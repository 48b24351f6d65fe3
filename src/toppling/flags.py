"""Connected flags and the flag calculus driving the resolution:
orientations, the total order, minimal representatives S_k, drops, kappa,
contraction, o_j reversals, merges, incidence signs and theta exponents."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .graphs import (
    BACKWARD,
    FORWARD,
    UNORIENTED,
    PartialOrientation,
    PointedGraph,
    boundary_divisor,
    digraph_is_acyclic,
    divisor_add,
    divisor_max,
    divisor_sub,
    induced_connected,
    zero_divisor,
)
from .divisors import q_reduce


class FlagError(ValueError):
    pass


class MissingQ(FlagError):
    pass


class NotIncreasing(FlagError):
    pass


class LastNotV(FlagError):
    pass


class PartDisconnected(FlagError):
    pass


class PrefixDisconnected(FlagError):
    pass


class LengthMismatch(FlagError):
    pass


class BadK(FlagError):
    pass


class TooShort(FlagError):
    pass


class TailMismatch(FlagError):
    pass


class NotMinimalRep(FlagError):
    pass


class NotMergedFrom(FlagError):
    pass


class BadPartIndex(FlagError):
    pass


class NotAFlag(FlagError):
    pass


@dataclass(frozen=True)
class ConnectedFlag:
    chain: tuple  # tuple of frozensets, strictly increasing, last = V(G)

    @property
    def k(self) -> int:
        return len(self.chain)

    def parts(self):
        """A_1..A_k as a tuple (0-based positions)."""
        out = [self.chain[0]]
        for i in range(1, len(self.chain)):
            out.append(self.chain[i] - self.chain[i - 1])
        return tuple(out)

    def literal(self):
        return " < ".join(
            "{" + ",".join(str(v + 1) for v in sorted(s)) + "}" for s in self.chain)


def validate_flag(g: PointedGraph, q, chain) -> ConnectedFlag:
    chain = tuple(frozenset(s) for s in chain)
    if not chain or q not in chain[0]:
        raise MissingQ(f"q={q} not in the first set")
    for i in range(1, len(chain)):
        if not chain[i - 1] < chain[i]:
            raise NotIncreasing(f"chain not strictly increasing at index {i}")
    if chain[-1] != frozenset(range(g.n)):
        raise LastNotV("last set is not V(G)")
    for i, s in enumerate(chain):
        if not induced_connected(g, s):
            raise PrefixDisconnected(i + 1)
    for i in range(1, len(chain)):
        if not induced_connected(g, chain[i] - chain[i - 1]):
            raise PartDisconnected(i + 1)
    return ConnectedFlag(chain)


# ---------------------------------------------------------------------------
# orders

def subset_key(s):
    """Total order on vertex sets: larger cardinality first, then lex."""
    return (-len(s), tuple(sorted(s)))


def flag_sort_key(uc: ConnectedFlag):
    # <_k compares at the largest level where the chains differ; the top level
    # is always V(G), so scan levels k-2 .. 0.
    return tuple(subset_key(uc.chain[i]) for i in range(uc.k - 2, -1, -1))


def flag_less(u: ConnectedFlag, v: ConnectedFlag) -> bool:
    if u.k != v.k:
        raise LengthMismatch(f"{u.k} != {v.k}")
    return flag_sort_key(u) < flag_sort_key(v)


# ---------------------------------------------------------------------------
# orientations

def _part_index(g: PointedGraph, parts):
    pidx = [None] * g.n
    for a, part in enumerate(parts):
        for v in part:
            pidx[v] = a
    return pidx


def _expand_arcs(g: PointedGraph, parts, arcs) -> PartialOrientation:
    """Vertex-pair states from part-level arcs (set of (a, b) = a -> b)."""
    pidx = _part_index(g, parts)
    state = {}
    for u, v in g.adjacent_pairs():
        pu, pv = pidx[u], pidx[v]
        if pu == pv:
            state[(u, v)] = UNORIENTED
        elif (pu, pv) in arcs:
            state[(u, v)] = FORWARD
        elif (pv, pu) in arcs:
            state[(u, v)] = BACKWARD
        else:
            raise FlagError("cross-part pair without an arc")
    return PartialOrientation.from_dict(state)


def _chain_arcs(g: PointedGraph, parts):
    """G(U): every adjacent part pair oriented from the lower part."""
    pidx = _part_index(g, parts)
    arcs = set()
    for u, v in g.adjacent_pairs():
        pu, pv = pidx[u], pidx[v]
        if pu != pv:
            arcs.add((min(pu, pv), max(pu, pv)))
    return arcs


def flag_orientation(g: PointedGraph, uc: ConnectedFlag) -> PartialOrientation:
    parts = uc.parts()
    return _expand_arcs(g, parts, _chain_arcs(g, parts))


def flag_divisor(g: PointedGraph, uc: ConnectedFlag):
    d = zero_divisor(g.n)
    for i in range(1, uc.k):
        d = divisor_add(d, boundary_divisor(g, uc.chain[i] - uc.chain[i - 1],
                                            uc.chain[i - 1]))
    return d


def flags_equivalent(g: PointedGraph, u: ConnectedFlag, v: ConnectedFlag) -> bool:
    if u.k != v.k:
        raise LengthMismatch(f"{u.k} != {v.k}")
    return flag_orientation(g, u) == flag_orientation(g, v)


def reversal_orientation(g: PointedGraph, uc: ConnectedFlag, j) -> PartialOrientation:
    if not 0 <= j <= uc.k:
        raise BadPartIndex(j)
    parts = uc.parts()
    return _expand_arcs(g, parts, _oj_arcs(g, parts, j))


def _oj_arcs(g: PointedGraph, parts, j):
    """o_j: flip, in turn, all arcs between A_1..A_j and their complements."""
    arcs = _chain_arcs(g, parts)
    for t in range(j):
        arcs = {(b, a) if a == t or b == t else (a, b) for a, b in arcs}
    return arcs


# ---------------------------------------------------------------------------
# enumeration of flags and minimal representatives

@lru_cache(maxsize=None)
def _connected_subsets(g: PointedGraph):
    verts = list(range(g.n))
    out = []
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(verts, r):
            s = frozenset(combo)
            if induced_connected(g, s):
                out.append(s)
    return tuple(out)


def enumerate_all_connected_flags(g: PointedGraph, q, k):
    """Every connected k-flag (not up to equivalence)."""
    if not 1 <= k <= g.n:
        raise BadK(k)
    everything = frozenset(range(g.n))
    subsets = _connected_subsets(g)
    out = []

    def extend(prefix, chain, remaining_parts):
        if remaining_parts == 0:
            if prefix == everything:
                out.append(ConnectedFlag(tuple(chain)))
            return
        if len(everything - prefix) < remaining_parts:
            return
        for part in subsets:
            if part & prefix:
                continue
            if prefix:
                # union stays connected iff the new part touches the prefix
                if not any(g.mult[u][v] for u in part for v in prefix):
                    continue
            elif q not in part:
                continue
            chain.append(prefix | part)
            extend(prefix | part, chain, remaining_parts - 1)
            chain.pop()

    extend(frozenset(), [], k)
    return out


class FlagBasis:
    """Minimal representatives of k-flag classes, sorted by <_k."""

    def __init__(self, k, flags, by_orientation):
        self.k = k
        self.flags = tuple(flags)
        self.position = {f: i for i, f in enumerate(self.flags)}
        self.by_orientation = by_orientation

    def __len__(self):
        return len(self.flags)

    def __iter__(self):
        return iter(self.flags)


_BASIS_CACHE = {}


def enumerate_minimal_flags(g: PointedGraph, q, k) -> FlagBasis:
    key = (g, q, k)
    if key in _BASIS_CACHE:
        return _BASIS_CACHE[key]
    buckets = {}
    for uc in enumerate_all_connected_flags(g, q, k):
        o = flag_orientation(g, uc)
        cur = buckets.get(o)
        if cur is None or flag_sort_key(uc) < flag_sort_key(cur):
            buckets[o] = uc
    flags = sorted(buckets.values(), key=flag_sort_key)
    basis = FlagBasis(k, flags, {o: f for o, f in buckets.items()})
    _BASIS_CACHE[key] = basis
    return basis


# ---------------------------------------------------------------------------
# drops and kappa

def drop_first(g: PointedGraph, uc: ConnectedFlag) -> ConnectedFlag:
    if uc.k < 2:
        raise TooShort("drop_first needs k >= 2")
    return ConnectedFlag(uc.chain[1:])


def drop_second(g: PointedGraph, uc: ConnectedFlag) -> ConnectedFlag:
    if uc.k < 3:
        raise TooShort("drop_second needs k >= 3")
    u1, u2, u3 = uc.chain[0], uc.chain[1], uc.chain[2]
    if induced_connected(g, u3 - u1):
        return ConnectedFlag((u1,) + uc.chain[2:])
    return ConnectedFlag((u1 | (u3 - u2),) + uc.chain[2:])


def kappa(g: PointedGraph, w: ConnectedFlag, v: ConnectedFlag):
    if w.k != v.k or w.chain[1:] != v.chain[1:]:
        raise TailMismatch("flags must agree above the first level")
    w1, v1 = w.chain[0], v.chain[0]
    w2 = w.chain[1]
    out = divisor_max(boundary_divisor(g, w2 - w1, w1),
                      boundary_divisor(g, w2 - v1, v1))
    # alternate expression; a mismatch means a boundary-divisor bug
    top = w2 - (w1 | v1)
    alt = divisor_add(
        divisor_max(boundary_divisor(g, top, w1), boundary_divisor(g, top, v1)),
        divisor_add(boundary_divisor(g, v1 - w1, w1),
                    boundary_divisor(g, w1 - v1, v1)))
    assert out == alt, (w, v, out, alt)
    return out


# ---------------------------------------------------------------------------
# contraction

def contract(g: PointedGraph, uc: ConnectedFlag):
    """(G_/U, vertex_map): part A_i becomes vertex i-1; q' = 0."""
    parts = uc.parts()
    k = uc.k
    pidx = _part_index(g, parts)
    mult = [[0] * k for _ in range(k)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            a, b = pidx[u], pidx[v]
            if a != b:
                mult[a][b] += g.mult[u][v]
                mult[b][a] += g.mult[u][v]
    h = PointedGraph(k, tuple(tuple(row) for row in mult), 0)
    return h, tuple(pidx)


def pushforward_divisor(vertex_map, d, n_target=None):
    if n_target is None:
        n_target = max(vertex_map) + 1
    out = [0] * n_target
    for v, a in enumerate(d):
        out[vertex_map[v]] += a
    return tuple(out)


def pullback_flag(g: PointedGraph, vertex_map, vc_prime: ConnectedFlag) -> ConnectedFlag:
    chain = []
    for s in vc_prime.chain:
        chain.append(frozenset(v for v, img in enumerate(vertex_map) if img in s))
    try:
        return validate_flag(g, g.q, chain)
    except FlagError as exc:
        raise NotAFlag(str(exc)) from exc


# ---------------------------------------------------------------------------
# merges

@dataclass(frozen=True)
class MergeRecord:
    """Merge of parts (A_i, A_j) of a flag; i, j are 1-based part indices.
    i < j is a merge inside G(U); i > j a merge inside o_j(U)."""

    i: int
    j: int
    flag: ConnectedFlag
    from_reversal: bool


def _fuse(parts, a, b):
    """New part list with parts a and b fused (kept at position min(a,b))
    plus the old->new index map."""
    lo, hi = min(a, b), max(a, b)
    new_parts = []
    old_to_new = {}
    for idx, part in enumerate(parts):
        if idx == hi:
            continue
        if idx == lo:
            new_parts.append(parts[lo] | parts[hi])
        else:
            new_parts.append(part)
        old_to_new[idx] = len(new_parts) - 1
    old_to_new[hi] = old_to_new[lo]
    return new_parts, old_to_new


def _quotient_arcs(arcs, old_to_new, drop_pair):
    out = set()
    for a, b in arcs:
        if frozenset((a, b)) == drop_pair:
            continue
        na, nb = old_to_new[a], old_to_new[b]
        if na != nb:
            out.add((na, nb))
    return out


def _merge_target(g, parts, arcs, a, b, basis, realign):
    """Minimal S_{k-1} representative for fusing parts a, b (0-based) of the
    part-level orientation `arcs`, or None when the merge is not acyclic."""
    new_parts, old_to_new = _fuse(parts, a, b)
    qarcs = _quotient_arcs(arcs, old_to_new, frozenset((a, b)))
    if not digraph_is_acyclic(len(new_parts), list(qarcs)):
        return None
    if realign:
        qarcs = _realigned_arcs(g, new_parts, qarcs, old_to_new[0])
    o = _expand_arcs(g, new_parts, qarcs)
    target = basis.by_orientation.get(o)
    if target is None:
        raise NotMinimalRep("merged orientation has no class representative")
    return target


def _realigned_arcs(g, new_parts, qarcs, qnode):
    """Replace the leftover orientation of the fused partition by the
    unique-source acyclic orientation whose indegree divisor is E + 1, for
    the q-reduced form E of sum(indeg - 1) on the quotient graph.

    Dhar's burning order is a bijection between maximal q-reduced divisors and
    unique-source acyclic orientations (Benson-Chakrabarty-Tetali, G-parking
    functions, acyclic orientations and spanning trees, 2010): start the fire
    at qnode, burn the smallest node whose burnt-edge count exceeds E there,
    and orient every edge from its earlier-burnt end.

    FlagError is raised if the fire stalls or a node burns with a count other
    than E + 1.  Past that check every node off qnode has indegree E + 1, and
    since both divisors sum to the edge count, so does qnode.  An acyclic
    orientation is determined by its indegrees, so this is the only one."""
    k = len(new_parts)
    mult = [[0] * k for _ in range(k)]
    for x in range(k):
        for y in range(x + 1, k):
            c = sum(g.mult[u][v] for u in new_parts[x] for v in new_parts[y])
            mult[x][y] = mult[y][x] = c
    h = PointedGraph(k, tuple(tuple(row) for row in mult), qnode)
    indeg = [0] * k
    for x, y in qarcs:
        indeg[y] += mult[x][y]
    e = q_reduce(h, qnode, tuple(c - 1 for c in indeg))
    rank = {qnode: 0}
    count = list(mult[qnode])       # edges from burnt nodes
    while len(rank) < k:
        x = next((y for y in range(k) if y not in rank and count[y] > e[y]), None)
        if x is None:
            raise FlagError(f"Dhar's fire stalls on E={e}")
        if count[x] != e[x] + 1:
            raise FlagError(f"node {x} burns with {count[x]} edges, E={e}")
        rank[x] = len(rank)
        for y in range(k):
            count[y] += mult[x][y]
    return {(x, y) if rank[x] < rank[y] else (y, x)
            for x in range(k) for y in range(x + 1, k) if mult[x][y]}


def merge_records(g: PointedGraph, uc: ConnectedFlag):
    """All members of B(U) with their (i, j) provenance; I(U) is the i < j
    sublist.  Needs uc in S_k with k >= 3 (k = 2 merges only hit the 1-flag)."""
    k = uc.k
    parts = uc.parts()
    basis = enumerate_minimal_flags(g, g.q, k - 1)
    adjacent = {(a, b) for a in range(k) for b in range(a + 1, k)
                if any(g.mult[u][v] for u in parts[a] for v in parts[b])}
    records = []
    arcs0 = _chain_arcs(g, parts)
    for a, b in sorted(adjacent):
        target = _merge_target(g, parts, arcs0, a, b, basis, realign=False)
        if target is not None:
            records.append(MergeRecord(a + 1, b + 1, target, False))
    for b in range(k - 1):          # 0-based j-1: merge inside o_{b+1}(U)
        arcs = _oj_arcs(g, parts, b + 1)
        for a in range(b + 1, k):   # 0-based i-1 with i > j
            if (b, a) not in adjacent:
                continue
            target = _merge_target(g, parts, arcs, a, b, basis, realign=True)
            if target is not None:
                records.append(MergeRecord(a + 1, b + 1, target, True))
    return records


def merge_sets(g: PointedGraph, uc: ConnectedFlag):
    """(I(U), B(U)) as flag lists."""
    if uc.k < 3:
        return [], []
    records = merge_records(g, uc)
    i_set = [r.flag for r in records if not r.from_reversal]
    b_set = [r.flag for r in records]
    return i_set, b_set


def _perm_parity(delta, alpha):
    """Sign of the permutation carrying the part sequence delta to alpha."""
    pos = {part: idx for idx, part in enumerate(delta)}
    seq = [pos[part] for part in alpha]
    inv = sum(1 for x in range(len(seq)) for y in range(x + 1, len(seq))
              if seq[x] > seq[y])
    return -1 if inv % 2 else 1


def record_sign(g: PointedGraph, uc: ConnectedFlag, rec: MergeRecord) -> int:
    parts = uc.parts()
    ai, aj = parts[rec.i - 1], parts[rec.j - 1]
    rest = [p for idx, p in enumerate(parts) if idx not in (rec.i - 1, rec.j - 1)]
    delta_w = rec.flag.parts()
    return (_perm_parity(parts, [ai, aj] + rest)
            * _perm_parity(delta_w, [ai | aj] + rest))


def record_theta(g: PointedGraph, uc: ConnectedFlag, rec: MergeRecord):
    parts = uc.parts()
    return boundary_divisor(g, parts[rec.j - 1], parts[rec.i - 1])


def _records_for(g, uc, wc):
    records = [r for r in merge_records(g, uc) if r.flag == wc]
    if not records:
        raise NotMergedFrom(f"{wc.literal()} is not a merge of {uc.literal()}")
    return records


def incidence_sign(g: PointedGraph, uc: ConnectedFlag, wc: ConnectedFlag) -> int:
    records = _records_for(g, uc, wc)
    signs = {record_sign(g, uc, r) for r in records}
    if len(signs) != 1:
        raise FlagError("sign is ambiguous: multiple merges hit this flag")
    return signs.pop()


def theta(g: PointedGraph, uc: ConnectedFlag, wc: ConnectedFlag):
    records = _records_for(g, uc, wc)
    thetas = {record_theta(g, uc, r) for r in records}
    if len(thetas) != 1:
        raise FlagError("theta is ambiguous: multiple merges hit this flag")
    return thetas.pop()
