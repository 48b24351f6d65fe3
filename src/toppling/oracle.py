"""Independent verifiers: a generic Schreyer syzygy engine, resolution
minimalization, Hochster-style simplicial homology, and a brute-force
flag-class counter.

Everything here recomputes results from first principles so it can be diffed
against the closed-form construction in `resolution`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .divisors import PicClass, linear_system, q_reduce
from .fields import PrimeField, RationalField
from .flags import ConnectedFlag, flag_orientation
from .graphs import (
    PointedGraph,
    divisor_add,
    divisor_deg,
    divisor_max,
    divisor_sub,
    induced_connected,
    zero_divisor,
)
from .poly import (
    monomial_divides,
    poly_add,
    poly_is_zero,
    poly_monomial,
    poly_mul,
    poly_scale,
    poly_sub,
)
from .resolution import BettiTable


class OracleError(ValueError):
    pass


class NotGroebner(OracleError):
    pass


# ---------------------------------------------------------------------------
# free-module elements and Schreyer orders
#
# A module element is a dict {(basis index, exponent tuple): scalar}.

class ModuleOrder:
    """Term order on a free module: per-index monomial shift plus a position
    chain used as tie-break (earlier positions win ties)."""

    def __init__(self, order, shifts, chains):
        self.order = order
        self.shifts = shifts
        self.chains = chains

    def key(self, term):
        idx, e = term
        mon = self.order.monomial_key(divisor_add(e, self.shifts[idx]))
        return (mon,) + tuple(-p for p in self.chains[idx])

    def leading_term(self, elem):
        return max(elem, key=self.key)


def ring_module_order(order, n):
    """R viewed as a rank-one free module over itself."""
    return ModuleOrder(order, [zero_divisor(n)], [(0,)])


def division_normal_form(field, elem, basis, morder):
    """Standard representation elem = sum quotient_g * g + remainder.

    The lowest-index basis element whose lead divides the working lead is
    always chosen, so the output is deterministic."""
    leads = [morder.leading_term(b) for b in basis]
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
                quotients[b_pos] = poly_add(field, quotients[b_pos],
                                            poly_monomial(shift, factor))
                for (i2, e2), c2 in basis[b_pos].items():
                    key = (i2, divisor_add(e2, shift))
                    s = field.sub(work.get(key, field.zero), field.mul(c2, factor))
                    if field.is_zero(s):
                        work.pop(key, None)
                    else:
                        work[key] = s
                break
        else:
            remainder[lt] = lc
            del work[lt]
    return quotients, remainder


def schreyer_step(field, basis, morder):
    """S-pair syzygies of a Groebner basis, pruned by the chain criterion.

    Returns (syzygies, pulled-back ModuleOrder).  Raises NotGroebner when an
    S-pair does not reduce to zero."""
    leads = [morder.leading_term(b) for b in basis]
    m = len(basis)
    pairs = []
    for f in range(m):
        for h in range(f + 1, m):
            if leads[f][0] == leads[h][0]:
                pairs.append((f, h))

    def gamma(f, h):
        return divisor_max(leads[f][1], leads[h][1])

    kept = []
    for f, h in pairs:
        drop = False
        for mid in range(f + 1, m):
            if mid == h or leads[mid][0] != leads[f][0]:
                continue
            if not monomial_divides(leads[mid][1], gamma(f, h)):
                continue
            if gamma(f, mid) != gamma(f, h) or mid < h:
                drop = True
                break
        if not drop:
            kept.append((f, h))

    # pulled-back order on the new free module: basis element [g] carries the
    # accumulated lead exponent and the position chain of g
    new_shifts = [divisor_add(leads[p][1], morder.shifts[leads[p][0]])
                  for p in range(m)]
    new_chains = [morder.chains[leads[p][0]] + (p,) for p in range(m)]
    new_order = ModuleOrder(morder.order, new_shifts, new_chains)

    syzygies = []
    for f, h in kept:
        gm = gamma(f, h)
        sf = divisor_sub(gm, leads[f][1])
        sh = divisor_sub(gm, leads[h][1])
        cf = field.inv(basis[f][leads[f]])
        ch = field.inv(basis[h][leads[h]])
        spair = {}
        for (i, e), c in basis[f].items():
            spair[(i, divisor_add(e, sf))] = field.mul(c, cf)
        for (i, e), c in basis[h].items():
            key = (i, divisor_add(e, sh))
            s = field.sub(spair.get(key, field.zero), field.mul(c, ch))
            if field.is_zero(s):
                spair.pop(key, None)
            else:
                spair[key] = s
        quotients, rem = division_normal_form(field, spair, basis, morder)
        if rem:
            raise NotGroebner(f"S-pair ({f},{h}) has remainder")
        syz = {(f, sf): cf, (h, sh): field.neg(ch)}
        for g_pos, quot in enumerate(quotients):
            for e, c in quot.items():
                key = (g_pos, e)
                s = field.sub(syz.get(key, field.zero), c)
                if field.is_zero(s):
                    syz.pop(key, None)
                else:
                    syz[key] = s
        lead = new_order.leading_term(syz)
        if lead != (f, sf):
            raise OracleError(f"syzygy of S-pair ({f},{h}) leads with {lead},"
                              f" not {(f, sf)}")
        syzygies.append(syz)
    return syzygies, new_order


@dataclass
class SchreyerResolution:
    g: PointedGraph
    field: object
    diffs: list               # diffs[t] = columns; a column maps row -> ring poly
    zdeg: list                # zdeg[t][i]
    picrep: list              # picrep[t][i] = q-reduced representative

    def ranks(self):
        return [len(cols) for cols in self.diffs]


def schreyer_resolution(g: PointedGraph, gens, order, field=None) -> SchreyerResolution:
    """Iterate schreyer_step from the given Groebner basis until the syzygy
    module vanishes.  The basis list order at each level is the generation
    order, which pulls back the caller's ordering of `gens`."""
    if field is None:
        field = PrimeField()
    q, n = g.q, g.n
    basis = []
    for p in gens:
        elem = p.poly(field) if hasattr(p, "poly") else p
        basis.append({(0, e): c for e, c in elem.items()})
    morder = ring_module_order(order, n)

    diffs = [[{0: {e: c for (_, e), c in b.items()}} for b in basis]]
    leads = [morder.leading_term(b) for b in basis]
    zdeg = [[divisor_deg(e) for _, e in leads]]
    picrep = [[q_reduce(g, q, e) for _, e in leads]]

    level = 0
    while basis and level < n + 1:
        syzygies, morder = schreyer_step(field, basis, morder)
        if not syzygies:
            break
        cols = []
        zs, ps = [], []
        for syz in syzygies:
            col = {}
            for (row, e), c in syz.items():
                col[row] = poly_add(field, col.get(row, {}), poly_monomial(e, c))
            cols.append(col)
            lead_row, lead_exp = morder.leading_term(syz)
            zs.append(divisor_deg(lead_exp) + zdeg[level][lead_row])
            ps.append(q_reduce(g, q, divisor_add(lead_exp, picrep[level][lead_row])))
        diffs.append(cols)
        zdeg.append(zs)
        picrep.append(ps)
        basis = syzygies
        level += 1
    return SchreyerResolution(g, field, diffs, zdeg, picrep)


# ---------------------------------------------------------------------------
# minimalization

def minimalize(res: SchreyerResolution) -> BettiTable:
    """Cancel all unit entries of the complex by row/column elimination and
    return the graded ranks of what is left (as Betti numbers of R/I)."""
    field = res.field
    g = res.g
    zero_exp = zero_divisor(g.n)
    # mutable copies; diffs[t][c][r] = entry of M_t : F_t -> F_{t-1};
    # diffs[0] maps the generators to the ring and never carries units
    diffs = [[dict(col) for col in cols] for cols in res.diffs]
    alive = [list(range(len(cols))) for cols in res.diffs]
    zdeg = res.zdeg
    picrep = res.picrep

    def entry(t, r, c):
        return diffs[t][c].get(r, {})

    def set_entry(t, r, c, p):
        if poly_is_zero(p):
            diffs[t][c].pop(r, None)
        else:
            diffs[t][c][r] = p

    changed = True
    while changed:
        changed = False
        for t in range(1, len(diffs)):
            unit = None
            for c in alive[t]:
                for r, p in diffs[t][c].items():
                    if zero_exp in p:
                        unit = (r, c, p[zero_exp])
                        break
                if unit:
                    break
            if unit is None:
                continue
            r, c, u = unit
            uinv = field.inv(u)
            # clear row r: col_c2 -= fac * col_c; mirror on M_{t+1} is
            # row c += fac * row c2
            for c2 in alive[t]:
                if c2 == c or poly_is_zero(entry(t, r, c2)):
                    continue
                fac = poly_scale(field, entry(t, r, c2), uinv)
                for r2 in list(diffs[t][c]):
                    prod = poly_mul(field, fac, diffs[t][c][r2])
                    set_entry(t, r2, c2, poly_sub(field, entry(t, r2, c2), prod))
                if t + 1 < len(diffs):
                    for c3 in alive[t + 1]:
                        below = entry(t + 1, c2, c3)
                        if poly_is_zero(below):
                            continue
                        set_entry(t + 1, c, c3,
                                  poly_add(field, entry(t + 1, c, c3),
                                           poly_mul(field, fac, below)))
            # clear column c: row_r2 -= fac * row_r (row r is now supported
            # only at c); mirror on M_{t-1} is col r += fac * col r2
            for r2 in list(diffs[t][c]):
                if r2 == r:
                    continue
                fac = poly_scale(field, diffs[t][c][r2], uinv)
                set_entry(t, r2, c, {})
                for rprev in list(diffs[t - 1][r2]):
                    prod = poly_mul(field, fac, diffs[t - 1][r2][rprev])
                    set_entry(t - 1, rprev, r,
                              poly_add(field, entry(t - 1, rprev, r), prod))
            # drop the cancelled pair of basis elements
            alive[t].remove(c)
            alive[t - 1].remove(r)
            diffs[t][c] = {}
            diffs[t - 1][r] = {}
            for cols in diffs[t]:
                cols.pop(r, None)
            if t + 1 < len(diffs):
                for cols in diffs[t + 1]:
                    cols.pop(c, None)
            changed = True
            break

    z = {(0, 0): 1}
    pic = {(0, PicClass(zero_divisor(g.n))): 1}
    for t in range(len(diffs)):
        for c in alive[t]:
            i = t + 1
            zkey = (i, zdeg[t][c])
            z[zkey] = z.get(zkey, 0) + 1
            pkey = (i, PicClass(picrep[t][c]))
            pic[pkey] = pic.get(pkey, 0) + 1
    return BettiTable(z, pic)


# ---------------------------------------------------------------------------
# Hochster-style homology

@dataclass(frozen=True)
class SimplicialComplex:
    n: int
    facets: tuple             # tuple of frozensets; () = void complex

    @property
    def dim(self):
        return max((len(f) for f in self.facets), default=0) - 1


def delta_complex(g: PointedGraph, q, j) -> SimplicialComplex:
    """Supports of effective divisors dominated by members of |j|."""
    rep = j.rep if isinstance(j, PicClass) else j
    members = linear_system(g, q, rep)
    supports = {frozenset(v for v in range(g.n) if d[v] > 0) for d in members}
    facets = [s for s in supports
              if not any(s < t for t in supports)]
    return SimplicialComplex(g.n, tuple(sorted(facets, key=lambda s: sorted(s))))


def _all_faces(c: SimplicialComplex):
    faces = set()
    for f in c.facets:
        verts = sorted(f)
        for r in range(len(verts) + 1):
            faces.update(frozenset(s) for s in itertools.combinations(verts, r))
    return faces


def reduced_homology_dims(c: SimplicialComplex, field=None):
    """{i: dim H~_i} for i = -1 .. dim(c).  Void complex -> all zero."""
    if field is None:
        field = RationalField()
    if not c.facets:
        return {}
    faces = _all_faces(c)
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    top = max(by_dim)
    pos = {d: {f: i for i, f in enumerate(sorted(fs, key=sorted))}
           for d, fs in by_dim.items()}

    def boundary_rank(d):
        # rank of the map C_d -> C_{d-1}
        if d not in by_dim or d - 1 not in by_dim:
            return 0
        rows, cols = len(by_dim[d - 1]), len(by_dim[d])
        mat = [[field.zero] * cols for _ in range(rows)]
        for f, ci in pos[d].items():
            verts = sorted(f)
            for omit in range(len(verts)):
                sub = frozenset(verts[:omit] + verts[omit + 1:])
                sgn = field.one if omit % 2 == 0 else field.neg(field.one)
                mat[pos[d - 1][sub]][ci] = sgn
        return _matrix_rank(mat, field)

    ranks = {d: boundary_rank(d) for d in range(0, top + 1)}
    out = {}
    for d in range(-1, top + 1):
        n_d = len(by_dim.get(d, []))
        ker = n_d - ranks.get(d, 0)
        out[d] = ker - ranks.get(d + 1, 0)
    return out


def _matrix_rank(mat, field):
    if not mat or not mat[0]:
        return 0
    if isinstance(field, RationalField):
        return _int_rank([[int(Fraction(x)) for x in row] for row in mat])
    a = [row[:] for row in mat]
    rows, cols = len(a), len(a[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if not field.is_zero(a[r][c])), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = field.inv(a[rank][c])
        for r in range(rows):
            if r != rank and not field.is_zero(a[r][c]):
                fac = field.mul(a[r][c], inv)
                a[r] = [field.sub(x, field.mul(fac, y)) for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


def _int_rank(mat):
    """Fraction-free (Bareiss) rank of an integer matrix."""
    a = [row[:] for row in mat]
    rows, cols = len(a), len(a[0])
    rank = 0
    prev = 1
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(rank + 1, rows):
            for c2 in range(c + 1, cols):
                a[r][c2] = (a[r][c2] * a[rank][c] - a[r][c] * a[rank][c2]) // prev
            a[r][c] = 0
        prev = a[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


def hochster_betti(g: PointedGraph, q, i, j) -> int:
    """beta_{i,j}(R/I) as dim H~_{i-1} of the support complex of |j|.

    The index shift is calibrated: H~_{-1}({emptyset}) = 1 gives beta_0 at
    the trivial class."""
    dims = reduced_homology_dims(delta_complex(g, q, j))
    return dims.get(i - 1, 0)


# ---------------------------------------------------------------------------
# brute-force flag-class counting

def brute_force_class_count(g: PointedGraph, q, k) -> int:
    """Count flag equivalence classes from scratch: enumerate every connected
    k-flag by a top-down recursion and bucket by full orientation fingerprint.
    The fingerprint, not the drop rule that grows S_k, makes it independent."""
    if not 1 <= k <= g.n:
        raise OracleError(f"k={k} out of range")
    everything = frozenset(range(g.n))
    fingerprints = set()

    def descend(top, depth, suffix):
        # top = current largest chain element still to be split
        if depth == 1:
            chain = (top,) + suffix
            uc = ConnectedFlag(chain)
            fingerprints.add(flag_orientation(g, uc))
            return
        for r in range(1, len(top)):
            for combo in itertools.combinations(sorted(top), r):
                sub = frozenset(combo)
                if q not in sub:
                    continue
                if not induced_connected(g, sub):
                    continue
                if not induced_connected(g, top - sub):
                    continue
                descend(sub, depth - 1, (top,) + suffix)

    if k == 1:
        return 1
    descend(everything, k, ())
    return len(fingerprints)
