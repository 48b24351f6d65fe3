"""The toppling ideal's Groebner basis, the flag-indexed free resolutions of
the ideal and of its initial ideal, Betti tables, and self-verification."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import add

from .divisors import PicClass, _reduce_effective, hilbert_function
from .fields import PrimeField
from .flags import _merge_terms, enumerate_minimal_flags
from .graphs import (
    PointedGraph,
    TermOrder,
    _boundary,
    bfs_term_order,
    divisor_max,
    neighbor_lists,
    zero_divisor,
)
from .poly import (
    Division,
    add_into,
    format_poly,
    lift,
    ring_module_order,
)


class ResolutionError(ValueError):
    pass


class LeadingTermMismatch(ResolutionError):
    pass


class CompositionNonzero(ResolutionError):
    pass


class UnitEntry(ResolutionError):
    pass


class IdentityViolation(ResolutionError):
    pass


@dataclass(frozen=True)
class Binomial:
    """x^lead - x^trail with lead the leading side under the term order."""

    lead: tuple
    trail: tuple

    def poly(self, field):
        return {self.lead: field.one, self.trail: field.neg(field.one)}


def generator_poly(field, gen):
    """A generator, given as a Binomial or as a polynomial, as a polynomial."""
    return gen.poly(field) if isinstance(gen, Binomial) else gen


def groebner_basis(g: PointedGraph):
    """One binomial per S_2 flag: x^{D(U2-U1, U1)} - x^{D(U1, U2-U1)}."""
    order = bfs_term_order(g)
    out = []
    for uc in enumerate_minimal_flags(g, 2):
        u1, rest = uc.masks[0], uc.masks[1] ^ uc.masks[0]
        lead = _boundary(g, rest, u1)
        trail = _boundary(g, u1, rest)
        if not order.greater(lead, trail):
            raise LeadingTermMismatch(f"{lead} vs {trail}")
        out.append(Binomial(lead, trail))
    return out


def initial_ideal(g: PointedGraph):
    return [b.lead for b in groebner_basis(g)]


def buchberger_check(gens, order, field=None) -> bool:
    """True iff every S-polynomial of the list reduces to zero."""
    if field is None:
        field = PrimeField()
    # divide in R as a rank-one free module, with the basis lifted and
    # prepared once; the order is graded, so an S-polynomial's degree is at
    # most twice the largest lead degree
    morder = ring_module_order(order)
    basis = [lift(generator_poly(field, p)) for p in gens]
    leads = [morder.leading_term(b) for b in basis]
    bound = 2 * max((sum(e) for _, e in leads), default=0)
    division = Division(field, basis, morder, leads, bound)
    return not any(division.spair(i, j, divisor_max(leads[i][1], leads[j][1]))[1]
                   for i, j in itertools.combinations(range(len(basis)), 2))


# ---------------------------------------------------------------------------
# the closed-form resolution

@dataclass
class FreeResolution:
    g: PointedGraph
    field: object
    order: TermOrder
    bases: list               # bases[t] = FlagBasis of S_{t+2}
    diffs: list               # diffs[t] = columns, each a free-module element
                              # {(row, exponent): coeff} over F_{t-1} (R for t = 0)

    def ranks(self):
        return [len(b) for b in self.bases]


VARIANTS = ("binomial", "monomial")


def build_resolution(g: PointedGraph, variant="binomial", field=None) -> FreeResolution:
    if variant not in VARIANTS:
        raise ValueError(variant)
    return _build(g, (variant,), field)[0]


def build_resolutions(g: PointedGraph, field=None):
    """[binomial, monomial] resolutions of g from one merge pass, each equal
    to `build_resolution` of its variant and each checked as that is."""
    return _build(g, VARIANTS, field)


def _build(g, variants, field):
    if field is None:
        field = PrimeField()
    order = bfs_term_order(g)
    bases = [enumerate_minimal_flags(g, k) for k in range(2, g.n + 1)]
    gens = groebner_basis(g)
    out = []
    for variant, diffs in zip(variants, _merge_differentials(g, field, bases, variants)):
        # phi_0: the generators lifted to row 0 of R, lead terms only for in(I)
        phi0 = [lift(b.poly(field)) if variant == "binomial" else {(0, b.lead): field.one}
                for b in gens]
        res = FreeResolution(g, field, order, bases, [phi0] + diffs)
        _check_composition(res)
        _check_unit_entries(res)
        out.append(res)
    return out


def _merge_differentials(g, field, bases, variants):
    """phi_1, phi_2, ... of each variant from one pass over the merges: each
    (row, theta, sign) of `flags._merge_terms` enters its column as
    sign * x^theta at that row.  A merge inside G(U) enters the column of
    every variant, a merge inside some o_j(U) only the binomial one."""
    one, minus = field.one, field.neg(field.one)
    out = [[] for _ in variants]      # out[i][t-1]: the columns of phi_t, variant i
    for t in range(1, len(bases)):
        for diffs in out:
            diffs.append([])
        # the walk reads each chain off the level's index, which the next
        # level's merges look their targets up in
        bases[t].index()
        for uc in bases[t]:
            cols = [{} for _ in variants]
            for diffs, col in zip(out, cols):
                diffs[-1].append(col)
            # from_reversal -> the columns the merge enters
            into = (cols, [col for v, col in zip(variants, cols) if v == "binomial"])
            for _, _, row, theta, sign, from_reversal in _merge_terms(g, uc):
                key, c = (row, theta), one if sign > 0 else minus
                for col in into[from_reversal]:
                    if key in col:      # a second merge with this term
                        add_into(field, col, {key: c})
                    else:
                        col[key] = c
    return out


def _check_composition(res):
    """phi_{t-1} . phi_t = 0 for every t, on a FreeResolution or a
    SchreyerResolution: column c of phi_t, sum a * x^e * phi_{t-1}[r] over its
    terms, must vanish.  Raises CompositionNonzero at the first column that
    does not.

    Each (row, monomial) is packed into one int, an exponent per field of w
    bits and the row above them, so a product term's key is the sum of two
    ints.  w holds the sum of the largest exponents of the two levels, so
    no field carries into the next.  The coefficients of both fields are
    Python numbers whose + and * map onto the field's (PrimeField keeps
    residues, RationalField Fractions), so each key sums its products
    exactly before one is_zero test."""
    field, n = res.field, res.g.n
    for t in range(1, len(res.diffs)):
        lower, upper = res.diffs[t - 1], res.diffs[t]
        exps = [{e for col in level for _, e in col} for level in (lower, upper)]
        w = sum(max(map(max, level), default=0) for level in exps).bit_length()
        packed = {}
        for e in exps[0] | exps[1]:
            key = 0
            for x in reversed(e):
                key = key << w | x
            packed[e] = key
        shift = w * n
        # the terms of each column of phi_{t-1}, keyed by row and monomial
        terms = [[(i << shift | packed[f], b) for (i, f), b in col.items()] for col in lower]
        for c, col in enumerate(upper):
            acc = {}
            for (r, e), a in col.items():
                pe = packed[e]
                for key, b in terms[r]:
                    key += pe
                    acc[key] = acc.get(key, 0) + a * b
            rows = [key >> shift for key, s in acc.items() if not field.is_zero(s)]
            if rows:
                raise CompositionNonzero(
                    f"phi_{t-1} . phi_{t} nonzero at column {c}, row {min(rows)}")


def _check_unit_entries(res: FreeResolution):
    for t in range(1, len(res.diffs)):
        for c, col in enumerate(res.diffs[t]):
            for r, e in col:
                if sum(e) == 0:
                    raise UnitEntry(f"unit entry in phi_{t} at ({r},{c})")


# ---------------------------------------------------------------------------
# Betti tables

@dataclass
class BettiTable:
    pic_graded: dict          # (i, PicClass) -> count

    @property
    def z_graded(self):
        """(i, j) -> count; q-reduction keeps the degree, so j = deg rep."""
        z = {}
        for (i, cls), c in self.pic_graded.items():
            z[(i, sum(cls.rep))] = z.get((i, sum(cls.rep)), 0) + c
        return z

    def total(self, i):
        return sum(c for (ii, _), c in self.pic_graded.items() if ii == i)


def _pic_levels(g: PointedGraph):
    """For k = 2..n, the q-reduced D(U) of each U in S_k, in basis order.

    U in S_k extends W = drop_first(U) in S_{k-1}, and D(U) = D(W) +
    D(A, U_1) for A = U_2 - U_1, with S_1 = {(V,)} and D((V,)) = 0.  So the
    class of D(U) is that of r_W + D(A, U_1), for r_W the q-reduced divisor
    of W found one level down.

    Dhar's fire on that sum usually stops at A, so A is fired before any
    burning.  D(A, U_1) gives each v in A back its edges to U_1, so the
    firing is legal iff r_W(v) >= e(v, V - U_2) for every v in A, and then
    yields r_W - D(A, V - U_2) + D(V - A, A).  Otherwise the start is
    r_W + D(A, U_1) itself.  Either start is effective off q and lies in
    the class of D(U), which holds one q-reduced divisor, so the firing
    stage of q-reduction alone finds the same result from both.  The walk
    runs over each level's parent rows, and only the reduced divisors of one
    level are held at a time, in a list indexed by row."""
    nbrs = neighbor_lists(g)
    lower = [zero_divisor(g.n)]     # row of S_{k-1} -> reduced divisor
    for k in range(2, g.n + 1):
        basis = enumerate_minimal_flags(g, k)
        heads, u2s = basis.heads, basis.lower.heads
        reps = []
        for p, start, stop in basis.runs():
            parent, u2 = lower[p], u2s[p]
            for i in range(start, stop):
                u1 = heads[i]
                a = rest = u2 ^ u1
                d = list(parent)
                while rest:             # fire A once on r_W + D(A, U_1)
                    v = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    for w, m in nbrs[v]:
                        if not a >> w & 1:
                            d[w] += m
                            if not u2 >> w & 1:
                                d[v] -= m
                    if d[v] < 0:
                        d = list(map(add, parent, _boundary(g, a, u1)))
                        break
                reps.append(_reduce_effective(g, g.q, d))
        yield reps
        lower = reps


def betti_table(g: PointedGraph) -> BettiTable:
    """Graded Betti numbers of R/I_G by counting flags (no matrices): each U
    in S_k adds one at (k - 1, the class of D(U))."""
    pic = {(0, PicClass(zero_divisor(g.n))): 1}
    for i, reps in enumerate(_pic_levels(g), 1):
        for rep, c in Counter(reps).items():
            pic[(i, PicClass(rep))] = c
    return BettiTable(pic)


# ---------------------------------------------------------------------------
# verification

def verify_resolution(res: FreeResolution, *others: FreeResolution):
    """Check the Schreyer lead terms of each built resolution of one graph,
    then the gradings of their terms; raise LeadingTermMismatch or
    IdentityViolation at the first failure.  A term that two resolutions
    share (same level, row, column and exponent) has its degree checked once.

    phi . phi = 0 and the absence of unit entries are not rechecked here:
    `build_resolution` raises CompositionNonzero or UnitEntry instead of
    returning a resolution that fails either."""
    if any(other.g != res.g for other in others):
        raise ValueError("resolutions of different graphs")
    resolutions = (res, *others)
    for each in resolutions:
        _check_lead_terms(each)
    _check_degrees(resolutions)


def _check_lead_terms(res: FreeResolution):
    """Column U of phi_t must lead, in the Schreyer order pulled back along
    the lead terms of the levels below, with x^{D(U2-U1, U1)} at the row of
    drop_first(U) (row 0 of R for t = 0)."""
    g = res.g
    morder = ring_module_order(res.order)
    for t, (basis, cols) in enumerate(zip(res.bases, res.diffs)):
        leads = []
        heads, u2s = basis.heads, basis.lower.heads
        # the parent of a flag of S_2 is row 0 of S_1, and row 0 of R for t = 0
        for p, start, stop in basis.runs():
            for c in range(start, stop):
                u1 = heads[c]
                want = (p, _boundary(g, u2s[p] ^ u1, u1))
                if not cols[c]:
                    raise LeadingTermMismatch(f"phi_{t} column {c} is zero")
                r, e = morder.leading_term(cols[c])
                if (r, e) != want:
                    raise LeadingTermMismatch(
                        f"phi_{t} column {c}: lead ({r},{e}) != ({want[0]},{want[1]})")
                leads.append(want)
        morder = morder.pulled_back(leads)


def _check_degrees(resolutions):
    """Each term of phi_t at (r, c) must carry basis element r of F_{t-1} into
    the Pic class of basis element c of F_t.  q-reduction keeps the degree, so
    this also checks the Z-grading.  The resolutions are of one graph, so
    they share their bases, and each distinct term is reduced once over the
    union of their columns.

    The class of each basis element comes from `_pic_levels`, the walk from
    parent to child classes that betti_table counts.  e + r is effective off
    q for an exponent e and a q-reduced r, so only the firing stage of
    q-reduction runs."""
    first = resolutions[0]
    g, q = first.g, first.g.q
    # reps[t][r] = class of basis element r of F_{t-1}; F_{-1} = R has class 0
    reps = [[zero_divisor(g.n)], *_pic_levels(g)]
    for t, cols in enumerate(first.diffs):
        for c in range(len(cols)):
            for r, e in dict.fromkeys(itertools.chain.from_iterable(
                    res.diffs[t][c] for res in resolutions)):
                if _reduce_effective(g, q, list(map(add, e, reps[t][r]))) != reps[t + 1][c]:
                    raise IdentityViolation(f"Pic-degree clash in phi_{t} at ({r},{c})")


# ---------------------------------------------------------------------------
# Hilbert identity

def hilbert_check(g: PointedGraph, bt: BettiTable) -> list:
    """sum_i (-1)^i sum_j beta_{i,j} t^j == (1-t)^n * sum_d HF(d) t^d up to
    t^(m+2), with beta read off the table `bt` of g.  Returns the checked
    series; raises IdentityViolation if the two sides differ."""
    t_max = g.m + 2           # every Betti degree j is at most m
    lhs = [0] * (t_max + 1)
    for (i, j), c in bt.z_graded.items():
        lhs[j] += c if i % 2 == 0 else -c
    hf = hilbert_function(g, t_max)
    binom = [1]
    for _ in range(g.n):      # coefficients of (1-t)^n
        binom = [a - b for a, b in zip(binom + [0], [0] + binom)]
    rhs = [0] * (t_max + 1)
    for d, h in enumerate(hf):
        for e, b in enumerate(binom):
            if d + e <= t_max:
                rhs[d + e] += h * b
    if lhs != rhs:
        raise IdentityViolation(f"lhs={lhs} rhs={rhs}")
    return lhs


# ---------------------------------------------------------------------------
# text emission

def format_resolution(res: FreeResolution):
    """The text of every differential: a `phi t rows cols` header, then one
    `row col entry` line per nonzero entry.  An entry of one term is
    rendered once per distinct (exponent, coefficient)."""
    lines = []
    n, order = res.g.n, res.order
    memo = {}       # (exponent, coefficient) -> the text of that one-term entry
    for t, cols in enumerate(res.diffs):
        rows = 1 if t == 0 else len(res.bases[t - 1])
        lines.append(f"phi {t} {rows} {len(cols)}")
        for c, col in enumerate(cols):
            by_row = {}
            for (r, e), a in col.items():
                by_row.setdefault(r, {})[e] = a
            for r in sorted(by_row):
                p = by_row[r]
                if len(p) > 1:
                    text = format_poly(p, order, n)
                else:
                    [term] = p.items()
                    text = memo.get(term)
                    if text is None:
                        text = memo[term] = format_poly(p, order, n)
                lines.append(f"{r} {c} {text}")
    return "\n".join(lines) + "\n"
