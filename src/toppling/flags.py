"""Connected flags and the flag calculus driving the resolution:
orientations, the total order, minimal representatives S_k, drops, kappa,
contraction, o_j reversals, merges, incidence signs and theta exponents."""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .graphs import (
    BadVertex,
    PointedGraph,
    boundary_divisor,
    divisor_max,
    induced_connected,
    mask_connected,
)


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


class NotMergedFrom(FlagError):
    pass


class BadPartIndex(FlagError):
    pass


class NotAFlag(FlagError):
    pass


@dataclass(frozen=True, slots=True)
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
        return " < ".join(_literal(s) for s in self.chain)


def _literal(s):
    return "{" + ",".join(str(v + 1) for v in sorted(s)) + "}"


def validate_flag(g: PointedGraph, chain) -> ConnectedFlag:
    chain = tuple(frozenset(s) for s in chain)
    outside = sorted(v for s in chain for v in s if not 0 <= v < g.n)
    if outside:
        raise BadVertex(f"vertex {outside[0] + 1} is not in the graph (vertices 1..{g.n})")
    if not chain or g.q not in chain[0]:
        raise MissingQ(f"q={g.q + 1} not in the first set")
    for i in range(1, len(chain)):
        if not chain[i - 1] < chain[i]:
            raise NotIncreasing(f"chain not strictly increasing at index {i}")
    if chain[-1] != frozenset(range(g.n)):
        raise LastNotV("last set is not V(G)")
    for i, s in enumerate(chain):
        if not induced_connected(g, s):
            raise PrefixDisconnected(
                f"U_{i + 1} = {_literal(s)} does not induce a connected subgraph")
    for i in range(1, len(chain)):
        if not induced_connected(g, chain[i] - chain[i - 1]):
            raise PartDisconnected(
                f"A_{i + 1} = {_literal(chain[i] - chain[i - 1])} does not induce"
                " a connected subgraph")
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


def _expand_arcs(g: PointedGraph, parts, arcs):
    """Vertex arcs from part-level arcs (set of (a, b) = a -> b); pairs
    inside one part stay unoriented."""
    pidx = _part_index(g, parts)
    out = set()
    for u, v in g.adjacent_pairs():
        pu, pv = pidx[u], pidx[v]
        if (pu, pv) in arcs:
            out.add((u, v))
        elif (pv, pu) in arcs:
            out.add((v, u))
        elif pu != pv:
            raise FlagError("cross-part pair without an arc")
    return frozenset(out)


def _chain_arcs(g: PointedGraph, parts):
    """G(U): every adjacent part pair oriented from the lower part."""
    pidx = _part_index(g, parts)
    arcs = set()
    for u, v in g.adjacent_pairs():
        pu, pv = pidx[u], pidx[v]
        if pu != pv:
            arcs.add((pu, pv) if pu < pv else (pv, pu))
    return arcs


def flag_orientation(g: PointedGraph, uc: ConnectedFlag):
    """G(U) as a frozenset of (tail, head) vertex arcs: every edge between
    parts runs from the lower part; edges inside a part have no arc."""
    parts = uc.parts()
    return _expand_arcs(g, parts, _chain_arcs(g, parts))


def flag_divisor(g: PointedGraph, uc: ConnectedFlag):
    """D(U), the indegree divisor of G(U): every edge between two parts adds
    its multiplicity at its end in the higher part."""
    level = [0] * g.n       # the part of each vertex: the least i with v in U_i
    for i in range(uc.k - 1, -1, -1):
        for v in uc.chain[i]:
            level[v] = i
    d = [0] * g.n
    for u, v in g.adjacent_pairs():
        a, b = level[u], level[v]
        if a != b:
            d[u if a > b else v] += g.mult[u][v]
    return tuple(d)


def flags_equivalent(g: PointedGraph, u: ConnectedFlag, v: ConnectedFlag) -> bool:
    if u.k != v.k:
        raise LengthMismatch(f"{u.k} != {v.k}")
    return flag_orientation(g, u) == flag_orientation(g, v)


def reversal_orientation(g: PointedGraph, uc: ConnectedFlag, j):
    """o_j(U) as a frozenset of (tail, head) vertex arcs, in the format of
    flag_orientation."""
    if not 0 <= j <= uc.k:
        raise BadPartIndex(f"reversal index j={j} outside 0..{uc.k}")
    parts = uc.parts()
    return _expand_arcs(g, parts, _oj_arcs(g, parts, j))


def _oj_arcs(g: PointedGraph, parts, j):
    return _reversed_arcs(_chain_arcs(g, parts), j)


def _reversed_arcs(arcs, j):
    """o_j of the arcs of G(U): flip, in turn, all arcs between A_1..A_j and
    their complements, so an arc ends up flipped iff exactly one of its ends
    is below j."""
    return {(b, a) if (a < j) != (b < j) else (a, b) for a, b in arcs}


# ---------------------------------------------------------------------------
# enumeration of flags and minimal representatives, on vertex masks (bit v
# set iff vertex v is in the set)

def mask_rank(n, m):
    """subset_key order on the vertex masks of an n-vertex graph as one int:
    (n - |m|) * 2^n + (2^n - 1 - bitreverse_n(m)).  Among sets of one size,
    the set holding the least vertex where two differ comes first, and
    reversing the bits puts vertex 0 highest."""
    return (n - m.bit_count()) << n | ((1 << n) - 1 - int(f"{m:0{n}b}"[::-1], 2))


def _interned(g: PointedGraph):
    """(mask -> frozenset, frozenset -> mask), cached on g, so each frozenset
    of a flag chain is built once per mask."""
    if "sets" not in g._cache:
        g._cache["sets"] = ({}, {})
    return g._cache["sets"]


def _frozen(g: PointedGraph, m):
    sets, masks = _interned(g)
    s = sets.get(m)
    if s is None:
        s = sets[m] = frozenset(v for v in range(g.n) if m >> v & 1)
        masks[s] = m
    return s


def _split_masks(g: PointedGraph, w):
    """Every split of the mask w (holding q): a connected u with q in u < w
    and w - u connected, in rank order, memoised per w on g.  u is q plus a
    proper submask of w - {q}, so w = {q} has none."""
    memo = g._cache.setdefault("splits", {})
    out = memo.get(w)
    if out is None:
        qbit = 1 << g.q
        rest = w & ~qbit
        found = []
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            if mask_connected(g, sub | qbit) and mask_connected(g, rest ^ sub):
                found.append(sub | qbit)
        out = memo[w] = sorted(found, key=lambda u: mask_rank(g.n, u))
    return out


def enumerate_all_connected_flags(g: PointedGraph, k):
    """Every connected k-flag (not up to equivalence), sorted by <_k; none
    when k > n.  Dropping U_1 from one leaves a connected (k-1)-flag, so grow
    from (V,) by the splits of each first set."""
    if k < 1:
        raise BadK(f"flag length k={k} must be at least 1")
    masks = _interned(g)[1]
    out = [ConnectedFlag((_frozen(g, (1 << g.n) - 1),))]
    for _ in range(k - 1):
        out = [ConnectedFlag((_frozen(g, u),) + w.chain)
               for w in out for u in _split_masks(g, masks[w.chain[0]])]
    return out


class FlagBasis:
    """Minimal representatives of k-flag classes, sorted by <_k."""

    def __init__(self, flags):
        self.flags = tuple(flags)
        self.position = {f: i for i, f in enumerate(self.flags)}

    def __len__(self):
        return len(self.flags)

    def __iter__(self):
        return iter(self.flags)


def enumerate_minimal_flags(g: PointedGraph, k) -> FlagBasis:
    """S_k for the base vertex g.q, cached on g.  Every connected 2-flag is
    minimal; for k >= 3, U is in S_k iff drop_first(U) and drop_second(U) are
    in S_{k-1} and drop_first(U) <_{k-1} drop_second(U)."""
    if k in g._cache:
        return g._cache[k]
    if k <= 2:
        flags = enumerate_all_connected_flags(g, k)
    elif k > g.n:
        flags = []
    else:
        flags = _drop_rule_flags(g, enumerate_minimal_flags(g, k - 1))
    basis = FlagBasis(flags)
    g._cache[k] = basis
    return basis


def _drop_rule_flags(g: PointedGraph, lower: FlagBasis):
    """S_k from S_{k-1}, in <_k order.  U = (u, W) for W in S_{k-1} and u a
    split of W_1 has drop_first(U) = W, and drop_second(U) = (x, W_2, ...)
    with x = u if W_2 - u is connected, else u | (W_2 - W_1).  The two drops
    share W_2 onward, so W <_{k-1} drop_second(U) iff rank(W_1) < rank(x).
    The flags of S_{k-1} with one tail W_2, ... are consecutive, so x is
    looked up among the first sets of W's run.  <_k compares U_1 last, and
    the splits come in rank order, so the result needs no sort."""
    masks = _interned(g)[1]
    rank = functools.cache(functools.partial(mask_rank, g.n))
    out = []
    for tail, run in itertools.groupby(lower, key=lambda w: w.chain[1:]):
        run = list(run)
        heads = {masks[w.chain[0]] for w in run}
        w2 = masks[tail[0]]
        for w in run:
            w1 = masks[w.chain[0]]
            r1 = rank(w1)
            above = w2 & ~w1
            for u in _split_masks(g, w1):
                x = u if mask_connected(g, w2 & ~u) else u | above
                if x in heads and rank(x) > r1:
                    out.append(ConnectedFlag((_frozen(g, u),) + w.chain))
    return out


# ---------------------------------------------------------------------------
# drops and kappa

def drop_first(uc: ConnectedFlag) -> ConnectedFlag:
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
    return divisor_max(boundary_divisor(g, w2 - w1, w1),
                       boundary_divisor(g, w2 - v1, v1))


# ---------------------------------------------------------------------------
# contraction

def contract(g: PointedGraph, uc: ConnectedFlag):
    """(G_/U, vertex_map): part A_i becomes vertex i-1; q' = 0."""
    parts = uc.parts()
    k = len(parts)
    pidx = _part_index(g, parts)
    mult = [[0] * k for _ in range(k)]
    for u, v in g.adjacent_pairs():
        a, b = pidx[u], pidx[v]
        if a != b:
            mult[a][b] += g.mult[u][v]
            mult[b][a] += g.mult[u][v]
    return PointedGraph(k, tuple(tuple(row) for row in mult), 0), tuple(pidx)


def pushforward_divisor(vertex_map, d):
    out = [0] * (max(vertex_map) + 1)
    for v, a in enumerate(d):
        out[vertex_map[v]] += a
    return tuple(out)


def pullback_flag(g: PointedGraph, vertex_map, vc_prime: ConnectedFlag) -> ConnectedFlag:
    chain = []
    for s in vc_prime.chain:
        chain.append(frozenset(v for v, img in enumerate(vertex_map) if img in s))
    try:
        return validate_flag(g, chain)
    except FlagError as exc:
        raise NotAFlag(str(exc)) from exc


# ---------------------------------------------------------------------------
# merges

class MergeError(RuntimeError):
    """The closed form failed on a flag of S_k: a merge's target is not in
    S_{k-1}, or a quotient that must be acyclic has a cycle.  A failure of
    the library, not of its input."""


@dataclass(frozen=True)
class MergeRecord:
    """Merge of parts (A_i, A_j) of a flag; i, j are 1-based part indices.
    i < j is a merge inside G(U); i > j a merge inside o_j(U).  `parity` is
    the sign of the permutation carrying the parts of `flag` to
    (A_i | A_j, then the other parts of U in order)."""

    i: int
    j: int
    flag: ConnectedFlag
    from_reversal: bool
    parity: int


def _fuse(parts, a, b):
    """New part list with parts a and b fused (kept at position min(a,b))
    plus the old->new index map, as a list."""
    lo, hi = min(a, b), max(a, b)
    new_parts = [*parts[:lo], parts[lo] | parts[hi], *parts[lo + 1:hi], *parts[hi + 1:]]
    old_to_new = [x - (x > hi) for x in range(len(parts))]
    old_to_new[hi] = lo
    return new_parts, old_to_new


def _quotient_arcs(arcs, old_to_new, drop_pair):
    out = set()
    for a, b in arcs:
        if a in drop_pair and b in drop_pair:
            continue
        na, nb = old_to_new[a], old_to_new[b]
        if na != nb:
            out.add((na, nb))
    return out


def _merge_target(parts, keys, arcs, a, b, basis):
    """(W, parity) for fusing parts a, b (0-based) joined by an arc of the
    part-level orientation `arcs` that has no detour: W is the S_{k-1}
    representative of the fused orientation, and parity is the sign of the
    permutation carrying the parts of W to (A_a | A_b, the rest in order).
    keys[x] is (size, -least vertex) of parts[x]."""
    new_parts, old_to_new = _fuse(parts, a, b)
    qarcs = _realigned_arcs(_quotient_arcs(arcs, old_to_new, frozenset((a, b))))
    lo, hi = min(a, b), max(a, b)
    new_keys = keys[:hi] + keys[hi + 1:]
    new_keys[lo] = (keys[lo][0] + keys[hi][0], max(keys[lo][1], keys[hi][1]))
    flag, order = _least_flag(new_parts, qarcs,
                              sorted(range(len(new_keys)), key=new_keys.__getitem__))
    idx = basis.position.get(flag)
    if idx is None:
        raise MergeError(f"merged orientation {sorted(qarcs)} has no class representative")
    # moving the fused part (new index lo) to the front takes lo transpositions
    return basis.flags[idx], (-1) ** lo * _parity(order)


def _parity(seq):
    """Sign of the permutation listed by seq: one inversion per earlier,
    larger entry."""
    seen = inv = 0
    for x in seq:
        inv += (seen >> x).bit_count()
        seen |= 1 << x
    return -1 if inv % 2 else 1


def _least_flag(parts, arcs, rank):
    """The <_k-least flag whose parts, in order, run along the acyclic `arcs`,
    with the indices of `parts` in its order.  <_k compares from the top
    level down, so peel, level by level, the sink part P that leaves the
    subset_key-least prefix C - P.  That is the smallest sink and, among
    sinks of one size, the one whose least vertex is largest (the parts are
    disjoint, so the other prefix keeps that vertex): the first sink in
    `rank`, the part indices sorted by (size, -least vertex)."""
    k = len(parts)
    out = [0] * k
    for t, h in arcs:
        out[t] |= 1 << h
    left = (1 << k) - 1
    order = []
    for _ in range(k - 1):
        for x in rank:
            if left >> x & 1 and not out[x] & left:
                break
        else:
            raise MergeError(f"cyclic orientation {sorted(arcs)}: no sink left")
        left ^= 1 << x
        order.append(x)
    order.append(left.bit_length() - 1)
    order.reverse()
    return ConnectedFlag(tuple(itertools.accumulate([parts[x] for x in order],
                                                    operator.or_))), order


def _realigned_arcs(arcs):
    """The orientation push-equivalent to `arcs`, an acyclic orientation of
    a connected quotient, whose unique source is node 0 (q's part; _fuse
    never moves part 0): while another node is a source, reverse all of its
    arcs, smallest node first.  Pushes keep the indegree divisor's class, and
    each push class holds exactly one such orientation (Gioan, Enumerating
    degree sequences in digraphs and a cycle-cocycle reversing system, 2007;
    Benson-Chakrabarty-Tetali, G-parking functions, acyclic orientations and
    spanning trees, 2010), so one already of that form comes back unchanged.
    MergeError: node 0 is left with an incoming arc, so `arcs` had a cycle.
    Sources are read off per-node successor and predecessor masks, and a
    push flips its node's arcs in place."""
    arcs = set(arcs)
    size = max(map(max, arcs), default=0) + 1
    succ = [0] * size
    pred = [0] * size
    for t, h in arcs:
        succ[t] |= 1 << h
        pred[h] |= 1 << t
    x = 1
    while x < size:
        if pred[x] or not succ[x]:
            x += 1
            continue
        bit, heads = 1 << x, succ[x]
        succ[x], pred[x] = 0, heads
        for y in range(size):
            if heads >> y & 1:
                arcs.remove((x, y))
                arcs.add((y, x))
                succ[y] |= bit
                pred[y] &= ~bit
        x = 1
    if pred[0]:
        raise MergeError(f"cyclic orientation {sorted(arcs)}: node 0 has an incoming arc")
    return arcs


def merge_records(g: PointedGraph, uc: ConnectedFlag):
    """All members of B(U) with their (i, j) provenance; I(U) is the i < j
    sublist.  Needs uc in S_k with k >= 3 (k = 2 merges only hit the 1-flag).

    A merge fuses the ends of an arc a -> b (0-based parts) of G(U), a < b,
    or of o_j(U), a >= j = b + 1.  It counts iff the quotient stays acyclic,
    that is iff no other path runs from a to b: a cycle through the fused
    part leaves it by another arc and comes back, and it can neither leave
    from b nor come back to a without a cycle before the fuse.  Both tests
    read the ancestor masks of G(U), so only the kept merges are fused:
    - G(U) runs up the part order, so another path exists iff a has a
      successor among the ancestors of b;
    - o_j(U) runs up within 0..j-1 and within j..k-1, and down from j..k-1
      to 0..j-1, so a path from a climbs the upper parts, steps down once
      and climbs to b; another path exists iff a steps down into an ancestor
      of b, or a part that a climbs to is adjacent to b or to one of them."""
    k = uc.k
    parts = uc.parts()
    basis = enumerate_minimal_flags(g, k - 1)
    keys = [(len(p), -min(p)) for p in parts]
    adjacent = sorted(_chain_arcs(g, parts))    # G(U): (a, b) with a < b
    adj = [0] * k       # the parts adjacent to part a
    anc = [0] * k       # the parts with a path to part b in G(U)
    for a, b in adjacent:       # sorted, so anc[a] is complete here
        adj[a] |= 1 << b
        adj[b] |= 1 << a
        anc[b] |= anc[a] | 1 << a
    climb = [0] * k     # the parts adjacent to a part that a reaches in G(U)
    for a, b in reversed(adjacent):     # climb[b] is complete here
        climb[a] |= climb[b] | adj[b]
    records = []
    for a, b in adjacent:
        if not (adj[a] & anc[b]) >> (a + 1):
            flag, parity = _merge_target(parts, keys, adjacent, a, b, basis)
            records.append(MergeRecord(a + 1, b + 1, flag, False, parity))
    for b, a in adjacent:
        if not (adj[a] | climb[a]) & anc[b] and not climb[a] >> b & 1:
            flag, parity = _merge_target(parts, keys, _reversed_arcs(adjacent, b + 1),
                                         a, b, basis)
            records.append(MergeRecord(a + 1, b + 1, flag, True, parity))
    return records


def merge_sets(g: PointedGraph, uc: ConnectedFlag):
    """(I(U), B(U)) as flag lists."""
    if uc.k < 3:
        return [], []
    records = merge_records(g, uc)
    i_set = [r.flag for r in records if not r.from_reversal]
    b_set = [r.flag for r in records]
    return i_set, b_set


def record_sign(rec: MergeRecord) -> int:
    """The sign of the permutation carrying A_1..A_k to (A_i, A_j, the rest
    in order), which takes i - 1 + j - 1 transpositions less one when i < j,
    times the record's parity."""
    return (-1 if (rec.i + rec.j - (rec.i < rec.j)) % 2 else 1) * rec.parity


def record_theta(g: PointedGraph, uc: ConnectedFlag, rec: MergeRecord):
    return boundary_divisor(g, _part(uc, rec.j - 1), _part(uc, rec.i - 1))


def _part(uc: ConnectedFlag, x):
    """Part A_{x+1} of uc."""
    return uc.chain[x] - uc.chain[x - 1] if x else uc.chain[0]


def _records_for(g, uc, wc):
    records = [r for r in merge_records(g, uc) if r.flag == wc]
    if not records:
        raise NotMergedFrom(f"{wc.literal()} is not a merge of {uc.literal()}")
    return records


def incidence_sign(g: PointedGraph, uc: ConnectedFlag, wc: ConnectedFlag) -> int:
    records = _records_for(g, uc, wc)
    signs = {record_sign(r) for r in records}
    if len(signs) != 1:
        raise FlagError("sign is ambiguous: multiple merges hit this flag")
    return signs.pop()


def theta(g: PointedGraph, uc: ConnectedFlag, wc: ConnectedFlag):
    records = _records_for(g, uc, wc)
    thetas = {record_theta(g, uc, r) for r in records}
    if len(thetas) != 1:
        raise FlagError("theta is ambiguous: multiple merges hit this flag")
    return thetas.pop()
