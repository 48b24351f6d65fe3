"""Sparse polynomial arithmetic keyed by exponent tuples.

A polynomial is a dict {exponent tuple: nonzero field scalar}.  All operations
take the coefficient field explicitly; nothing here owns state.
"""

from __future__ import annotations

from .graphs import divisor_add, divisor_sub


def poly_zero():
    return {}


def poly_monomial(exps, coeff):
    return {tuple(exps): coeff}


def poly_add(field, p1, p2):
    out = dict(p1)
    for e, c in p2.items():
        s = field.add(out.get(e, field.zero), c)
        if field.is_zero(s):
            out.pop(e, None)
        else:
            out[e] = s
    return out


def poly_neg(field, p):
    return {e: field.neg(c) for e, c in p.items()}

def poly_sub(field, p1, p2):
    return poly_add(field, p1, poly_neg(field, p2))


def poly_term_mul(field, p, exps, scalar):
    """Multiply by scalar * x^exps."""
    if field.is_zero(scalar):
        return {}
    return {divisor_add(e, exps): field.mul(c, scalar) for e, c in p.items()}


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


def poly_is_zero(p):
    return not p


def leading_monomial(p, order):
    return max(p, key=order.monomial_key)


def monomial_divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def poly_division(field, p, divisors, order):
    """Divide p by the list of divisors; returns (quotients, remainder).

    The lowest-index divisor whose lead divides the current lead is used.
    """
    quotients = [poly_zero() for _ in divisors]
    remainder = poly_zero()
    leads = [leading_monomial(d, order) for d in divisors]
    work = dict(p)
    while work:
        lm = leading_monomial(work, order)
        lc = work[lm]
        for idx, d in enumerate(divisors):
            if monomial_divides(leads[idx], lm):
                factor = field.mul(lc, field.inv(d[leads[idx]]))
                shift = divisor_sub(lm, leads[idx])
                quotients[idx] = poly_add(field, quotients[idx],
                                          poly_monomial(shift, factor))
                work = poly_sub(field, work, poly_term_mul(field, d, shift, factor))
                break
        else:
            remainder = poly_add(field, remainder, poly_monomial(lm, lc))
            del work[lm]
    return quotients, remainder


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
