"""Independent verifiers: a generic Schreyer syzygy engine whose Betti
numbers are read off F (x) k, Hochster-style simplicial homology, and a
brute-force flag-class counter.

Everything here recomputes results from first principles so it can be diffed
against the closed-form construction in `resolution`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm

from .divisors import PicClass, _bareiss, _reduce_effective, linear_system
from .fields import PrimeField, RationalField
from .flags import ConnectedFlag, flag_orientation
from .graphs import (
    PointedGraph,
    bfs_term_order,
    divisor_max,
    divisor_sub,
    mask_connected,
    zero_divisor,
)
from .poly import Division, lift, monomial_divides, ring_module_order
from .resolution import BettiTable, generator_poly


class OracleError(ValueError):
    pass


class NotGroebner(OracleError):
    pass


# ---------------------------------------------------------------------------
# Schreyer resolutions (module elements and orders live in `poly`)

def schreyer_step(field, basis, morder):
    """S-pair syzygies of a Groebner basis, pruned by the chain criterion.

    Returns (syzygies, pulled-back ModuleOrder).  Raises NotGroebner when an
    S-pair does not reduce to zero.

    A pair (f, h) of one row, f < h, is dropped when a later mid != h of
    that row has a lead dividing gamma(f, h) and either mid < h or
    gamma(f, mid) != gamma(f, h).  Each kept pair is divided by
    `Division.spair`.  The pulled-back order's shifts are the multidegrees
    of the basis elements."""
    leads = [morder.leading_term(b) for b in basis]
    rows = {}
    for pos, (i, _) in enumerate(leads):
        rows.setdefault(i, []).append(pos)

    kept = []
    for row in rows.values():
        for a, f in enumerate(row):
            later, ef = row[a + 1:], leads[f][1]
            for h in later:
                gm = divisor_max(ef, leads[h][1])
                if not any(mid != h and monomial_divides(leads[mid][1], gm)
                           and (mid < h or divisor_max(ef, leads[mid][1]) != gm)
                           for mid in later):
                    kept.append((f, h, gm))
    kept.sort()

    new_order = morder.pulled_back(leads)
    if not kept:
        return [], new_order
    bound = morder.bound((leads[f][0], gm) for f, _, gm in kept)
    division = Division(field, basis, morder, leads, bound)
    syzygies = []
    for f, h, gm in kept:
        syz, rem = division.spair(f, h, gm)
        if rem:
            raise NotGroebner(f"S-pair ({f},{h}) has remainder")
        sf = divisor_sub(gm, leads[f][1])
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
    diffs: list               # diffs[0] = the lifted basis, diffs[t] = the syzygies;
                              # each column is a free-module element {(row, exp): coeff}
    picrep: list              # picrep[t][i] = q-reduced representative

    def ranks(self):
        return [len(cols) for cols in self.diffs]


def schreyer_resolution(g: PointedGraph, gens, field=None) -> SchreyerResolution:
    """Iterate schreyer_step from the given Groebner basis until the syzygy
    module vanishes, in the Schreyer orders pulled back from g's BFS term
    order.  The basis list order at each level is the generation order, which
    pulls back the caller's ordering of `gens`.  Each level's picrep is read
    off the shifts of the order its step pulls back: the basis elements'
    multidegrees, effective, so stage 2 of q_reduce alone reduces them."""
    if field is None:
        field = PrimeField()
    basis = [lift(generator_poly(field, p)) for p in gens]
    morder = ring_module_order(bfs_term_order(g))

    diffs, picrep = [basis], []
    while basis:
        syzygies, morder = schreyer_step(field, basis, morder)
        picrep.append([_reduce_effective(g, g.q, list(s)) for s in morder.shifts])
        if not syzygies or len(diffs) > g.n:
            break
        diffs.append(syzygies)
        basis = syzygies
    return SchreyerResolution(g, field, diffs, picrep or [[]])   # no step on no basis


# ---------------------------------------------------------------------------
# minimalization

def minimalize(res: SchreyerResolution) -> BettiTable:
    """Graded Betti numbers of R/I read off F (x) k, without reducing F.

    beta_{i,J} = dim Tor_i(R/I, k)_J is the homology of F (x) k, whose
    differentials are the constant entries of F.  A constant entry joins two
    basis elements of one Pic class J, so phi_i (x) k splits into one scalar
    block per class and
        beta_{i,J} = #F_i(J) - rank phi_i(J) - rank phi_{i+1}(J)."""
    field = res.field
    zero_exp = zero_divisor(res.g.n)
    # reps[i][c] = q-reduced class of basis element c of F_i; F_0 = R
    reps = [[zero_exp]] + res.picrep
    ranks = [{} for _ in range(len(reps) + 1)]      # ranks[i][J] = rank phi_i(J)
    for i, cols in enumerate(res.diffs, start=1):
        blocks = {}                                 # J -> {column: {row: unit}}
        for c, col in enumerate(cols):
            for (r, e), a in col.items():
                if e != zero_exp:
                    continue
                if reps[i - 1][r] != reps[i][c]:
                    raise OracleError(f"constant entry of phi_{i} at ({r},{c})"
                                      f" joins classes {reps[i - 1][r]} and {reps[i][c]}")
                blocks.setdefault(reps[i][c], {}).setdefault(c, {})[r] = a
        for cls, block in blocks.items():
            rows = sorted({r for col in block.values() for r in col})
            mat = [[col.get(r, field.zero) for col in block.values()] for r in rows]
            ranks[i][cls] = _matrix_rank(mat, field)

    pic = {}
    for i, classes in enumerate(reps):
        for cls, count in Counter(classes).items():
            beta = count - ranks[i].get(cls, 0) - ranks[i + 1].get(cls, 0)
            if beta < 0:
                raise OracleError(f"beta_{i} at {cls} is {beta}: F (x) k is not a complex")
            if beta:
                pic[(i, PicClass(cls))] = beta
    return BettiTable(pic)


# ---------------------------------------------------------------------------
# Hochster-style homology

@dataclass(frozen=True)
class SimplicialComplex:
    facets: tuple             # tuple of frozensets; () = void complex


def delta_complex(g: PointedGraph, d) -> SimplicialComplex:
    """Supports of effective divisors dominated by members of |d|."""
    members = linear_system(g, d)
    supports = {frozenset(v for v in range(g.n) if e[v] > 0) for e in members}
    facets = [s for s in supports
              if not any(s < t for t in supports)]
    return SimplicialComplex(tuple(sorted(facets, key=sorted)))


def reduced_homology_dims(c: SimplicialComplex, field=None):
    """{i: dim H~_i} for i = -1 .. dim(c).  Void complex -> all zero.

    Faces are vertex masks, the submasks of each facet's mask.  Dropping
    vertex v from a face f has sign (-1)^(number of vertices of f below v).
    The boundary matrices hold the integers +-1, ranked by `_matrix_rank`
    over either field."""
    if field is None:
        field = RationalField()
    if not c.facets:
        return {}
    faces = {0}
    for facet in c.facets:
        m = sub = sum(1 << v for v in facet)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & m
    by_dim = {}
    for f in sorted(faces):
        by_dim.setdefault(f.bit_count() - 1, []).append(f)
    top = max(by_dim)
    pos = {d: {f: i for i, f in enumerate(fs)} for d, fs in by_dim.items()}

    def boundary_rank(d):
        # rank of the map C_d -> C_{d-1}
        if d not in by_dim:
            return 0
        below = pos[d - 1]
        mat = [[0] * len(by_dim[d]) for _ in below]
        for ci, f in enumerate(by_dim[d]):
            rest = f
            while rest:
                low = rest & -rest
                mat[below[f ^ low]][ci] = -1 if (f & (low - 1)).bit_count() & 1 else 1
                rest ^= low
        return _matrix_rank(mat, field)

    ranks = {d: boundary_rank(d) for d in range(0, top + 1)}
    out = {}
    for d in range(-1, top + 1):
        n_d = len(by_dim.get(d, []))
        ker = n_d - ranks.get(d, 0)
        out[d] = ker - ranks.get(d + 1, 0)
    return out


def _matrix_rank(mat, field):
    """The rank of a matrix given as a list of rows of field elements: over
    the rationals by Bareiss elimination once each row is scaled to
    integers, which keeps the rank; over a PrimeField by Gaussian
    elimination below each pivot on plain ints, with one % p per entry that
    a row operation writes."""
    if not isinstance(field, PrimeField):
        scaled = []
        for row in mat:
            m = lcm(*(x.denominator for x in row))
            scaled.append([x.numerator * (m // x.denominator) for x in row])
        return _bareiss(scaled)[0]
    p = field.p
    a = [[x % p for x in row] for row in mat]
    rows, cols = len(a), len(a[0]) if a else 0
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        inv = pow(top[c], -1, p)
        for r in range(rank + 1, rows):
            if a[r][c]:
                f = a[r][c] * inv
                a[r] = [(x - f * y) % p for x, y in zip(a[r], top)]
        rank += 1
        if rank == rows:
            break
    return rank


def hochster_betti(g: PointedGraph, i, d, field=None) -> int:
    """beta_{i,[d]}(R/I) as dim H~_{i-1} of the support complex of |d|, over
    `field` (the rationals by default).

    The index shift is calibrated: H~_{-1}({emptyset}) = 1 gives beta_0 at
    the trivial class."""
    dims = reduced_homology_dims(delta_complex(g, d), field)
    return dims.get(i - 1, 0)


# ---------------------------------------------------------------------------
# brute-force flag-class counting

def brute_force_class_count(g: PointedGraph, k) -> int:
    """Count flag equivalence classes from scratch: enumerate every connected
    k-flag by a top-down recursion and bucket by full orientation fingerprint.
    The fingerprint, not the drop rule that grows S_k, makes it independent."""
    if not 1 <= k <= g.n:
        raise OracleError(f"k={k} out of range")
    qbit = 1 << g.q
    fingerprints = set()

    def descend(top, depth, suffix):
        # top = the vertex mask of the largest chain element still to be split
        if depth == 1:
            fingerprints.add(flag_orientation(g, ConnectedFlag((top,) + suffix)))
            return
        # the set below top: q plus a proper submask s of the rest of top
        rest = s = top ^ qbit
        while s:
            s = (s - 1) & rest
            if mask_connected(g, s | qbit) and mask_connected(g, rest ^ s):
                descend(s | qbit, depth - 1, (top,) + suffix)

    if k == 1:
        return 1
    descend((1 << g.n) - 1, k, ())
    return len(fingerprints)
