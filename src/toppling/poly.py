"""Sparse polynomial and free-module arithmetic, the Schreyer order and
division.

A polynomial is a dict {exponent tuple: nonzero field scalar}; a free-module
element is a dict {(basis index, exponent tuple): nonzero field scalar}.  The
additive operations accept either.  Every column of a differential, in the
closed-form resolution and in the Schreyer oracle, is a free-module element;
a ring polynomial enters that format through `lift`.  All operations take the
coefficient field explicitly; nothing here owns state.
"""

from __future__ import annotations

from .graphs import divisor_add, divisor_sub, zero_divisor


def add_into(field, acc, p):
    """acc += p in place, dropping zero coefficients."""
    for key, c in p.items():
        s = field.add(acc.get(key, field.zero), c)
        if field.is_zero(s):
            acc.pop(key, None)
        else:
            acc[key] = s


def poly_add(field, p1, p2):
    out = dict(p1)
    add_into(field, out, p2)
    return out


def poly_neg(field, p):
    return {e: field.neg(c) for e, c in p.items()}

def poly_sub(field, p1, p2):
    return poly_add(field, p1, poly_neg(field, p2))


def lift(p):
    """The polynomial p as an element of R, the free module of rank one."""
    return {(0, e): c for e, c in p.items()}


def poly_term_mul(field, p, exps, scalar):
    """Multiply by scalar * x^exps."""
    if field.is_zero(scalar):
        return {}
    return {divisor_add(e, exps): field.mul(c, scalar) for e, c in p.items()}


def module_term_mul(field, elem, exps, scalar):
    """Multiply a free-module element by scalar * x^exps."""
    return {(i, divisor_add(e, exps)): field.mul(c, scalar)
            for (i, e), c in elem.items()}


def poly_mul(field, p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = divisor_add(e1, e2)
            s = field.add(out.get(e, field.zero), field.mul(c1, c2))
            if field.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
    return out


def leading_monomial(p, order):
    return max(p, key=order.monomial_key)


def monomial_divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


# ---------------------------------------------------------------------------
# the Schreyer order and division

class ModuleOrder:
    """Term order on a free module: per-index monomial shift plus a position
    chain used as tie-break (earlier positions win ties)."""

    def __init__(self, order, shifts, chains):
        self.order = order
        self.shifts = shifts
        self.chains = chains
        self._ties = [tuple(-p for p in chain) for chain in chains]

    def key(self, term):
        idx, e = term
        return self.order.monomial_key(divisor_add(e, self.shifts[idx])), self._ties[idx]

    def leading_term(self, elem):
        return max(elem, key=self.key)

    def pulled_back(self, leads):
        """Schreyer's order on the free module whose basis element p maps to
        an element leading with leads[p] = (index, exponent): p is shifted by
        exponent + shifts[index] and tie-broken by chains[index] + (p,)."""
        return ModuleOrder(self.order,
                           [divisor_add(e, self.shifts[i]) for i, e in leads],
                           [self.chains[i] + (p,) for p, (i, _) in enumerate(leads)])


def ring_module_order(order):
    """R viewed as a rank-one free module over itself."""
    return ModuleOrder(order, [zero_divisor(len(order.priority))], [(0,)])


def division_normal_form(field, elem, basis, morder, leads):
    """Standard representation elem = sum quotient_g * g + remainder, where
    leads[i] is the lead term of basis[i] under morder.

    The lowest-index basis element whose lead divides the working lead is
    always chosen, so the output is deterministic.  The working lead falls
    strictly at every step, so no quotient receives one shift twice."""
    quotients = [{} for _ in basis]
    remainder = {}
    work = dict(elem)
    while work:
        lt = morder.leading_term(work)
        lc = work[lt]
        idx, e = lt
        for b_pos, (bidx, be) in enumerate(leads):
            if bidx == idx and monomial_divides(be, e):
                shift = divisor_sub(e, be)
                factor = field.mul(lc, field.inv(basis[b_pos][leads[b_pos]]))
                quotients[b_pos][shift] = factor
                add_into(field, work, module_term_mul(field, basis[b_pos], shift,
                                                      field.neg(factor)))
                break
        else:
            remainder[lt] = lc
            del work[lt]
    return quotients, remainder


def poly_division(field, p, divisors, order):
    """Divide p by the list of divisors; returns (quotients, remainder).

    The rank-one case of division_normal_form."""
    basis = [lift(d) for d in divisors]
    morder = ring_module_order(order)
    quotients, remainder = division_normal_form(
        field, lift(p), basis, morder, [morder.leading_term(b) for b in basis])
    return quotients, {e: c for (_, e), c in remainder.items()}


def format_poly(p, order, n):
    """Render as `c*x1^a1*x2` terms joined by ` + ` / ` - `, leading term first.

    Coefficients are printed only when not +-1 (or for constants)."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, key=order.monomial_key, reverse=True):
        c = p[e]
        factors = []
        for v in range(n):
            if e[v] == 1:
                factors.append(f"x{v + 1}")
            elif e[v] > 1:
                factors.append(f"x{v + 1}^{e[v]}")
        body = "*".join(factors)
        parts.append((c, body))
    out = []
    for i, (c, body) in enumerate(parts):
        neg = _is_negative(c)
        mag = -c if neg else c
        coeff = "" if (mag == 1 and body) else str(mag)
        term = "*".join(x for x in (coeff, body) if x) or "1"
        if i == 0:
            out.append(("-" if neg else "") + term)
        else:
            out.append(("- " if neg else "+ ") + term)
    return " ".join(out)


def _is_negative(c):
    try:
        return c < 0
    except TypeError:
        return False
