"""The toppling ideal's Groebner basis, the flag-indexed free resolutions of
the ideal and of its initial ideal, Betti tables, and self-verification."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

from .divisors import PicClass, pic_class, q_reduce, hilbert_function
from .fields import PrimeField
from .flags import (
    ConnectedFlag,
    FlagBasis,
    drop_first,
    enumerate_minimal_flags,
    flag_divisor,
    merge_records,
    record_sign,
    record_theta,
)
from .graphs import (
    PointedGraph,
    TermOrder,
    bfs_term_order,
    boundary_divisor,
    divisor_add,
    divisor_deg,
    divisor_sub,
    divisor_max,
    zero_divisor,
)
from .poly import (
    format_poly,
    leading_monomial,
    monomial_divides,
    poly_add,
    poly_division,
    poly_is_zero,
    poly_monomial,
    poly_mul,
    poly_sub,
    poly_term_mul,
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


def _based_at(g: PointedGraph, q):
    """g with base vertex q: the term order and the merges read g.q."""
    return g if q is None or q == g.q else replace(g, q=q)


def groebner_basis(g: PointedGraph, q=None):
    """One binomial per S_2 flag: x^{D(U2-U1, U1)} - x^{D(U1, U2-U1)}."""
    g = _based_at(g, q)
    q = g.q
    order = bfs_term_order(g)
    out = []
    for uc in enumerate_minimal_flags(g, q, 2):
        u1 = uc.chain[0]
        rest = uc.chain[1] - u1
        lead = boundary_divisor(g, rest, u1)
        trail = boundary_divisor(g, u1, rest)
        if not order.greater(lead, trail):
            raise LeadingTermMismatch(f"{lead} vs {trail}")
        out.append(Binomial(lead, trail))
    return out


def initial_ideal(g: PointedGraph, q=None):
    gens = [b.lead for b in groebner_basis(g, q)]
    for a in gens:
        for b in gens:
            assert a == b or not monomial_divides(a, b), (a, b)
    return gens


def spolynomial(field, f, h, order):
    lf, lh = leading_monomial(f, order), leading_monomial(h, order)
    gamma = divisor_max(lf, lh)
    tf = poly_term_mul(field, f, divisor_sub(gamma, lf), field.inv(f[lf]))
    th = poly_term_mul(field, h, divisor_sub(gamma, lh), field.inv(h[lh]))
    return poly_sub(field, tf, th)


def buchberger_check(gens, order, field=None) -> bool:
    """True iff every S-polynomial of the list reduces to zero."""
    if field is None:
        field = PrimeField()
    polys = [p if isinstance(p, dict) else p.poly(field) for p in gens]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = spolynomial(field, polys[i], polys[j], order)
            _, rem = poly_division(field, s, polys, order)
            if not poly_is_zero(rem):
                return False
    return True


# ---------------------------------------------------------------------------
# the closed-form resolution

@dataclass
class FreeResolution:
    g: PointedGraph
    q: int
    variant: str              # "binomial" | "monomial"
    field: object
    order: TermOrder
    bases: list               # bases[t] = FlagBasis of S_{t+2}
    diffs: list               # diffs[t] = list of columns; a column maps row -> poly
    zdeg: list                # zdeg[t][i] for basis element i of F_t
    picrep: list              # picrep[t][i] = q-reduced representative tuple

    @property
    def length(self):
        return len(self.bases)

    def ranks(self):
        return [len(b) for b in self.bases]


def build_resolution(g: PointedGraph, q=None, variant="binomial", field=None) -> FreeResolution:
    g = _based_at(g, q)
    q = g.q
    if field is None:
        field = PrimeField()
    if variant not in ("binomial", "monomial"):
        raise ValueError(variant)
    order = bfs_term_order(g)
    bases = [enumerate_minimal_flags(g, q, k) for k in range(2, g.n + 1)]
    diffs = []
    # phi_0: generators as single-row columns
    gens = groebner_basis(g, q)
    cols0 = []
    for b in gens:
        p = b.poly(field) if variant == "binomial" else poly_monomial(b.lead, field.one)
        cols0.append({0: p})
    diffs.append(cols0)
    for t in range(1, len(bases)):
        lower = bases[t - 1]
        cols = []
        for uc in bases[t]:
            col = {}
            for rec in merge_records(g, uc):
                if variant == "monomial" and rec.from_reversal:
                    continue
                row = lower.position[rec.flag]
                sgn = record_sign(g, uc, rec)
                coeff = field.one if sgn > 0 else field.neg(field.one)
                term = poly_monomial(record_theta(g, uc, rec), coeff)
                col[row] = poly_add(field, col.get(row, {}), term)
            cols.append({r: p for r, p in col.items() if not poly_is_zero(p)})
        diffs.append(cols)
    zdeg, picrep = [], []
    for t, basis in enumerate(bases):
        zs, ps = [], []
        for uc in basis:
            d = flag_divisor(g, uc)
            zs.append(divisor_deg(d))
            ps.append(q_reduce(g, q, d))
        zdeg.append(zs)
        picrep.append(ps)
    res = FreeResolution(g, q, variant, field, order, bases, diffs, zdeg, picrep)
    bad = _first_composition_failure(res)
    if bad is not None:
        raise CompositionNonzero(bad)
    bad = _first_unit_entry(res)
    if bad is not None:
        raise UnitEntry(bad)
    return res


def _first_composition_failure(res: FreeResolution):
    field = res.field
    for t in range(1, len(res.diffs)):
        for c, col in enumerate(res.diffs[t]):
            acc = {}
            for r, p in col.items():
                for r2, p2 in res.diffs[t - 1][r].items():
                    acc[r2] = poly_add(field, acc.get(r2, {}), poly_mul(field, p2, p))
            for r2, p in acc.items():
                if not poly_is_zero(p):
                    return f"phi_{t-1} . phi_{t} nonzero at column {c}, row {r2}"
    return None


def _first_unit_entry(res: FreeResolution):
    for t in range(1, len(res.diffs)):
        for c, col in enumerate(res.diffs[t]):
            for r, p in col.items():
                if any(sum(e) == 0 for e in p):
                    return f"unit entry in phi_{t} at ({r},{c})"
    return None


# ---------------------------------------------------------------------------
# Betti tables

@dataclass
class BettiTable:
    z_graded: dict            # (i, j) -> count
    pic_graded: dict          # (i, PicClass) -> count

    def total(self, i):
        return sum(c for (ii, _), c in self.z_graded.items() if ii == i)


def betti_table(g: PointedGraph, q=None) -> BettiTable:
    """Graded Betti numbers of R/I_G by counting flags (no matrices)."""
    if q is None:
        q = g.q
    z = {(0, 0): 1}
    pic = {(0, PicClass(zero_divisor(g.n))): 1}
    for k in range(2, g.n + 1):
        i = k - 1
        for uc in enumerate_minimal_flags(g, q, k):
            d = flag_divisor(g, uc)
            zkey = (i, divisor_deg(d))
            z[zkey] = z.get(zkey, 0) + 1
            pkey = (i, pic_class(g, q, d))
            pic[pkey] = pic.get(pkey, 0) + 1
    return BettiTable(z, pic)


# ---------------------------------------------------------------------------
# verification

@dataclass
class VerifyReport:
    checks: dict = dc_field(default_factory=dict)     # name -> bool
    counterexamples: dict = dc_field(default_factory=dict)

    @property
    def ok(self):
        return all(self.checks.values())

    def record(self, name, failure):
        self.checks[name] = failure is None
        if failure is not None:
            self.counterexamples[name] = failure


def schreyer_keys(res: FreeResolution):
    """Per level: accumulated lead exponent + position chain for each basis
    element, defining the pulled-back module orders of the closed form."""
    total_exp, chains = [], []
    for t, basis in enumerate(res.bases):
        te, ch = [], []
        for pos, uc in enumerate(basis):
            a = boundary_divisor(res.g, uc.chain[1] - uc.chain[0], uc.chain[0])
            if t == 0:
                te.append(a)
                ch.append((pos,))
            else:
                parent = drop_first(res.g, uc)
                ppos = res.bases[t - 1].position[parent]
                te.append(divisor_add(a, total_exp[t - 1][ppos]))
                ch.append(chains[t - 1][ppos] + (pos,))
        total_exp.append(te)
        chains.append(ch)
    return total_exp, chains


def verify_resolution(res: FreeResolution) -> VerifyReport:
    report = VerifyReport()
    report.record("composition", _first_composition_failure(res))
    report.record("no_units", _first_unit_entry(res))
    report.record("lead_terms", _first_lead_failure(res))
    report.record("degrees", _first_degree_failure(res))
    return report


def _first_lead_failure(res: FreeResolution):
    g, order = res.g, res.order
    total_exp, chains = schreyer_keys(res)
    for t in range(1, len(res.diffs)):
        lower = res.bases[t - 1]
        for c, uc in enumerate(res.bases[t]):
            col = res.diffs[t][c]
            terms = [(r, e) for r, p in col.items() for e in p]
            if not terms:
                return f"phi_{t} column {c} is zero"

            def key(term):
                r, e = term
                mon = order.monomial_key(divisor_add(e, total_exp[t - 1][r]))
                return (mon,) + tuple(-p for p in chains[t - 1][r])

            r, e = max(terms, key=key)
            want_row = lower.position[drop_first(g, uc)]
            want_exp = boundary_divisor(g, uc.chain[1] - uc.chain[0], uc.chain[0])
            if (r, e) != (want_row, want_exp):
                return f"phi_{t} column {c}: lead ({r},{e}) != ({want_row},{want_exp})"
    return None


def _first_degree_failure(res: FreeResolution):
    g, q = res.g, res.q
    for t in range(1, len(res.diffs)):
        for c, col in enumerate(res.diffs[t]):
            for r, p in col.items():
                for e in p:
                    if divisor_deg(e) + res.zdeg[t - 1][r] != res.zdeg[t][c]:
                        return f"Z-degree clash in phi_{t} at ({r},{c})"
                    if q_reduce(g, q, divisor_add(e, res.picrep[t - 1][r])) != res.picrep[t][c]:
                        return f"Pic-degree clash in phi_{t} at ({r},{c})"
    # phi_0 columns against the ring
    for c, col in enumerate(res.diffs[0]):
        for e in col[0]:
            if divisor_deg(e) != res.zdeg[0][c]:
                return f"Z-degree clash in phi_0 at column {c}"
            if q_reduce(g, q, e) != res.picrep[0][c]:
                return f"Pic-degree clash in phi_0 at column {c}"
    return None


# ---------------------------------------------------------------------------
# Hilbert identity

@dataclass
class HilbertReport:
    lhs: list
    rhs: list

    @property
    def ok(self):
        return self.lhs == self.rhs


def hilbert_check(g: PointedGraph, q=None, t_max=None) -> HilbertReport:
    """sum_i (-1)^i sum_j beta_{i,j} t^j == (1-t)^n * sum_d HF(d) t^d."""
    if q is None:
        q = g.q
    if t_max is None:
        t_max = g.m + 2
    if t_max < g.m:
        raise ValueError(f"t_max={t_max} below edge count {g.m}")
    bt = betti_table(g, q)
    lhs = [0] * (t_max + 1)
    for (i, j), c in bt.z_graded.items():
        lhs[j] += c if i % 2 == 0 else -c
    hf = hilbert_function(g, q, t_max)
    binom = [1]
    for _ in range(g.n):      # coefficients of (1-t)^n
        binom = [a - b for a, b in zip(binom + [0], [0] + binom)]
    rhs = [0] * (t_max + 1)
    for d, h in enumerate(hf):
        for e, b in enumerate(binom):
            if d + e <= t_max:
                rhs[d + e] += h * b
    report = HilbertReport(lhs, rhs)
    if not report.ok:
        raise IdentityViolation(f"lhs={lhs} rhs={rhs}")
    return report


# ---------------------------------------------------------------------------
# text emission

def format_resolution(res: FreeResolution):
    lines = []
    n = res.g.n
    for t, cols in enumerate(res.diffs):
        rows = 1 if t == 0 else len(res.bases[t - 1])
        lines.append(f"phi {t} {rows} {len(cols)}")
        for c, col in enumerate(cols):
            for r in sorted(col):
                lines.append(f"{r} {c} {format_poly(col[r], res.order, n)}")
    return "\n".join(lines) + "\n"
