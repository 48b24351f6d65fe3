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

from heapq import heappop, heappush
from operator import le, mul

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


def monomial_divides(e1, e2):
    return all(map(le, e1, e2))


# ---------------------------------------------------------------------------
# the Schreyer order and division

class ModuleOrder:
    """Term order on a free module: per-index monomial shift plus a position
    chain used as tie-break (earlier positions win ties).

    A term (i, e) is ranked by one int, lower for the greater term.  Its
    digits in base w, most significant first, are -deg(e + shifts[i]), the
    entries of e + shifts[i] in priority order, then chains[i]; each digit
    below the top one lies in [0, w).  So the rank is linear in e, and the
    rank of x^s times a term is the term's rank plus sum coef[v] * s[v]:
    no tuple is built to compare two terms."""

    def __init__(self, order, shifts, chains):
        self.order = order
        self.shifts = shifts
        self.chains = chains
        self._degrees = [sum(s) for s in shifts]
        self._top_chain = max(map(max, chains), default=0)
        self._ranks = {}            # w -> (coef, base)

    def ranks(self, bound):
        """(coef, base) with rank(i, e) = base[i] + sum coef[v] * e[v]: a
        rank of the order for every term whose shifted exponent has degree
        at most bound.  The field width w is the least power of two above
        bound and every chain entry."""
        w = 1 << max(bound, self._top_chain).bit_length()
        if w not in self._ranks:
            n, tail = len(self.order.priority), len(self.chains[0])
            top = w ** (n + tail)
            coef = [0] * n
            for j, v in enumerate(self.order.priority):
                coef[v] = w ** (n + tail - 1 - j) - top
            base = []
            for shift, chain in zip(self.shifts, self.chains):
                tie = 0
                for p in chain:
                    tie = tie * w + p
                base.append(sum(map(mul, coef, shift)) + tie)
            self._ranks[w] = coef, base
        return self._ranks[w]

    def bound(self, elem):
        """The largest degree of a shifted exponent in elem."""
        return max((sum(e) + self._degrees[i] for i, e in elem), default=0)

    def leading_term(self, elem):
        coef, base = self.ranks(self.bound(elem))
        return min(elem, key=lambda term: base[term[0]] + sum(map(mul, coef, term[1])))

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


class Division:
    """A basis prepared once for division in `morder`, for elements whose
    shifted exponents have degree at most `bound`: each row's leads in
    basis order with their ranks and inverse coefficients, and each basis
    element's other terms as (rank, row, exponent, coefficient)."""

    def __init__(self, field, basis, morder, leads, bound):
        self.field = field
        self.coef, self.base = morder.ranks(bound)
        self.leads = leads
        self.invs = [field.inv(elem[lead]) for elem, lead in zip(basis, leads)]
        self.rows = {}              # row -> [(position, exponent, rank, 1/coeff)]
        self.tails = []
        for pos, (elem, lead, inv) in enumerate(zip(basis, leads, self.invs)):
            self.rows.setdefault(lead[0], []).append((pos, lead[1], self.rank(lead), inv))
            self.tails.append([(self.rank(term), *term, c)
                               for term, c in elem.items() if term != lead])

    def rank(self, term):
        i, e = term
        return self.base[i] + sum(map(mul, self.coef, e))

    def reduce(self, seeds):
        """Divide sum c * x^s * terms over the seeds (terms, s, c), where
        terms are ranked as `tails` and s = None stands for x^0.  Returns
        (quotients, remainder): quotients sparse as {(basis position,
        shift): coeff}.

        The working element is a dict from rank to [coeff, row, exponent,
        shift], whose exponent is summed only when its term leads, over a
        heap of ranks.  A term that cancels stays in the dict at zero until
        the heap reaches it, so every rank is pushed once.  The lowest-index
        lead of the row that divides the working lead is always chosen.
        The working lead falls strictly at every step, so no quotient
        receives one shift twice and no popped rank comes back."""
        field = self.field
        mul_, add_, is_zero = field.mul, field.add, field.is_zero
        work, heap = {}, []

        def add_terms(terms, offset, shift, scalar):
            for r, i, e, c in terms:
                r += offset
                entry = work.get(r)
                if entry is None:
                    work[r] = [mul_(scalar, c), i, e, shift]
                    heappush(heap, r)
                else:
                    entry[0] = add_(entry[0], mul_(scalar, c))

        for terms, shift, scalar in seeds:
            offset = 0 if shift is None else sum(map(mul, self.coef, shift))
            add_terms(terms, offset, shift, scalar)
        quotients, remainder = {}, {}
        while heap:
            r = heappop(heap)
            c, i, e, s = work.pop(r)
            if is_zero(c):
                continue
            if s is not None:
                e = divisor_add(e, s)
            for pos, be, lead_rank, inv in self.rows.get(i, ()):
                if monomial_divides(be, e):
                    shift = divisor_sub(e, be)
                    factor = mul_(c, inv)
                    quotients[(pos, shift)] = factor
                    add_terms(self.tails[pos], r - lead_rank, shift, field.neg(factor))
                    break
            else:
                remainder[(i, e)] = c
        return quotients, remainder

    def spair(self, f, h, gamma):
        """Divide the S-pair of basis positions f and h, whose leads lie in
        one row and divide x^gamma, seeded as the non-lead terms of each,
        shifted to gamma and scaled by the inverse lead coefficients, since
        the leads cancel.  Returns (syzygy, remainder): the S-pair's two
        terms less its quotients, as {(position, shift): coeff}, is a
        syzygy of the basis when the remainder is zero."""
        sf = divisor_sub(gamma, self.leads[f][1])
        sh = divisor_sub(gamma, self.leads[h][1])
        cf, ch = self.invs[f], self.field.neg(self.invs[h])
        quotients, remainder = self.reduce([(self.tails[f], sf, cf), (self.tails[h], sh, ch)])
        return poly_sub(self.field, {(f, sf): cf, (h, sh): ch}, quotients), remainder


def division_normal_form(field, elem, basis, morder, leads):
    """Standard representation elem = sum quotient_g * g + remainder, where
    leads[i] is the lead term of basis[i] under morder: quotients as one
    {shift: coeff} per basis element."""
    division = Division(field, basis, morder, leads, morder.bound(elem))
    terms = [(division.rank(term), *term, c) for term, c in elem.items()]
    sparse, remainder = division.reduce([(terms, None, field.one)])
    quotients = [{} for _ in basis]
    for (pos, shift), c in sparse.items():
        quotients[pos][shift] = c
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
