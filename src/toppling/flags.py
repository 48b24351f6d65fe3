"""Connected flags and the flag calculus driving the resolution:
orientations, the total order, minimal representatives S_k, drops, kappa,
contraction, o_j reversals, merges, incidence signs and theta exponents."""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .graphs import (
    PointedGraph,
    _boundary,
    check_vertices,
    divisor_max,
    indegree_divisor,
    mask_connected,
    neighbor_masks,
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
    """U_1 < ... < U_k = V(G), held as vertex masks (bit v set iff v is in
    the set).  `chain`, `parts()` and `literal()` are views of them as
    frozensets and as text."""

    masks: tuple  # tuple of ints, strictly increasing, last = V(G)

    @classmethod
    def from_sets(cls, chain):
        """The flag whose chain is the vertex sets `chain`, unchecked."""
        return cls(tuple(sum(1 << v for v in frozenset(s)) for s in chain))

    @property
    def k(self) -> int:
        return len(self.masks)

    @property
    def chain(self):
        """U_1..U_k as a tuple of frozensets."""
        return tuple(map(_vertices, self.masks))

    def parts(self):
        """A_1..A_k as a tuple of frozensets (0-based positions)."""
        return tuple(_vertices(m ^ p) for p, m in zip((0,) + self.masks, self.masks))

    def literal(self):
        return " < ".join(map(_literal, self.masks))


def _vertices(m):
    return frozenset(v for v in range(m.bit_length()) if m >> v & 1)


def _literal(m):
    return "{" + ",".join(str(v + 1) for v in sorted(_vertices(m))) + "}"


def validate_flag(g: PointedGraph, chain) -> ConnectedFlag:
    chain = tuple(frozenset(s) for s in chain)
    check_vertices(g, (v for s in chain for v in s))
    uc = ConnectedFlag.from_sets(chain)
    masks = uc.masks
    if not masks or not masks[0] >> g.q & 1:
        raise MissingQ(f"q={g.q + 1} not in the first set")
    for i in range(1, len(masks)):
        if masks[i - 1] & ~masks[i] or masks[i - 1] == masks[i]:
            raise NotIncreasing(f"chain not strictly increasing at index {i}")
    if masks[-1] != (1 << g.n) - 1:
        raise LastNotV("last set is not V(G)")
    for i, m in enumerate(masks):
        if not mask_connected(g, m):
            raise PrefixDisconnected(
                f"U_{i + 1} = {_literal(m)} does not induce a connected subgraph")
    for i in range(1, len(masks)):
        if not mask_connected(g, masks[i] ^ masks[i - 1]):
            raise PartDisconnected(
                f"A_{i + 1} = {_literal(masks[i] ^ masks[i - 1])} does not induce"
                " a connected subgraph")
    return uc


# ---------------------------------------------------------------------------
# orientations

def _levels(g: PointedGraph, uc: ConnectedFlag):
    """The part of each vertex: the i with v in A_{i+1}."""
    level = [0] * g.n
    for i, (p, m) in enumerate(zip((0,) + uc.masks, uc.masks)):
        part = m ^ p
        while part:
            level[(part & -part).bit_length() - 1] = i
            part &= part - 1
    return level


def _vertex_arcs(g: PointedGraph, uc: ConnectedFlag, j):
    """o_j(U) as (tail, head) vertex arcs; o_0(U) = G(U), which runs every
    edge between two parts up the part order.  o_j flips the edges with
    exactly one end below part j, as if the parts below j came after all the
    others.  Pairs inside a part stay unoriented."""
    key = [x + uc.k * (x < j) for x in _levels(g, uc)]
    return frozenset((u, v) if key[u] < key[v] else (v, u)
                     for u, v in g.adjacent_pairs() if key[u] != key[v])


def flag_orientation(g: PointedGraph, uc: ConnectedFlag):
    """G(U) as a frozenset of (tail, head) vertex arcs: every edge between
    parts runs from the lower part; edges inside a part have no arc."""
    return _vertex_arcs(g, uc, 0)


def flag_divisor(g: PointedGraph, uc: ConnectedFlag):
    """D(U), the indegree divisor of G(U): every edge between two parts adds
    its multiplicity at its end in the higher part."""
    return indegree_divisor(g, flag_orientation(g, uc))


def flags_equivalent(g: PointedGraph, u: ConnectedFlag, v: ConnectedFlag) -> bool:
    if u.k != v.k:
        raise LengthMismatch(f"{u.k} != {v.k}")
    return flag_orientation(g, u) == flag_orientation(g, v)


def reversal_orientation(g: PointedGraph, uc: ConnectedFlag, j):
    """o_j(U) as a frozenset of (tail, head) vertex arcs, in the format of
    flag_orientation."""
    if not 0 <= j <= uc.k:
        raise BadPartIndex(f"reversal index j={j} outside 0..{uc.k}")
    return _vertex_arcs(g, uc, j)


# ---------------------------------------------------------------------------
# enumeration of flags and minimal representatives, on vertex masks (bit v
# set iff vertex v is in the set)

def mask_rank(n, m):
    """The order of vertex sets that <_k compares level by level (larger
    sets first, then lex) on the masks of an n-vertex graph, as one int:
    (n - |m|) * 2^n + (2^n - 1 - bitreverse_n(m)).  Among sets of one size,
    the set holding the least vertex where two differ comes first, and
    reversing the bits puts vertex 0 highest."""
    return (n - m.bit_count()) << n | ((1 << n) - 1 - int(f"{m:0{n}b}"[::-1], 2))


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
    out = [ConnectedFlag(((1 << g.n) - 1,))]
    for _ in range(k - 1):
        out = [ConnectedFlag((u,) + w.masks) for w in out for u in _split_masks(g, w.masks[0])]
    return out


class FlagBasis:
    """Minimal representatives of k-flag classes of g, sorted by <_k, with
    `row` finding a flag by the vertex masks of its chain."""

    __slots__ = ("flags", "_rows", "__weakref__")

    def __init__(self, flags):
        self.flags = tuple(flags)
        self._rows = None       # chain masks -> position, built on the first lookup

    def row(self, chain):
        """The position of the flag whose chain has the vertex masks `chain`
        (a tuple of ints), or None if no flag here has them."""
        if self._rows is None:
            # keyed by each flag's own masks tuple, so the index holds no new key
            self._rows = {f.masks: i for i, f in enumerate(self.flags)}
        return self._rows.get(chain)

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
    rank = functools.cache(functools.partial(mask_rank, g.n))
    out = []
    for tail, run in itertools.groupby(lower, key=lambda w: w.masks[1:]):
        run = list(run)
        heads = {w.masks[0] for w in run}
        w2 = tail[0]
        for w in run:
            w1 = w.masks[0]
            r1 = rank(w1)
            above = w2 & ~w1
            for u in _split_masks(g, w1):
                x = u if mask_connected(g, w2 & ~u) else u | above
                if x in heads and rank(x) > r1:
                    out.append(ConnectedFlag((u,) + w.masks))
    return out


# ---------------------------------------------------------------------------
# drops and kappa

def drop_first(uc: ConnectedFlag) -> ConnectedFlag:
    if uc.k < 2:
        raise TooShort("drop_first needs k >= 2")
    return ConnectedFlag(uc.masks[1:])


def drop_second(g: PointedGraph, uc: ConnectedFlag) -> ConnectedFlag:
    if uc.k < 3:
        raise TooShort("drop_second needs k >= 3")
    u1, u2, u3 = uc.masks[:3]
    if mask_connected(g, u3 ^ u1):
        return ConnectedFlag((u1,) + uc.masks[2:])
    return ConnectedFlag((u1 | u3 ^ u2,) + uc.masks[2:])


def kappa(g: PointedGraph, w: ConnectedFlag, v: ConnectedFlag):
    if w.k != v.k or w.masks[1:] != v.masks[1:]:
        raise TailMismatch("flags must agree above the first level")
    w1, v1 = w.masks[0], v.masks[0]
    w2 = w.masks[1]
    return divisor_max(_boundary(g, w2 ^ w1, w1), _boundary(g, w2 ^ v1, v1))


# ---------------------------------------------------------------------------
# contraction

def contract(g: PointedGraph, uc: ConnectedFlag):
    """(G_/U, vertex_map): part A_i becomes vertex i-1; q' = 0."""
    k = uc.k
    pidx = _levels(g, uc)
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


@dataclass(slots=True)
class MergeRecord:
    """Merge of parts (A_i, A_j) of a flag; i, j are 1-based part indices.
    i < j is a merge inside G(U); i > j a merge inside o_j(U).  `flag` is
    the target in S_{k-1} and `row` its position there.  `parity` is the
    sign of the permutation carrying the parts of `flag` to (A_i | A_j, then
    the other parts of U in order)."""

    i: int
    j: int
    flag: ConnectedFlag
    row: int
    from_reversal: bool
    parity: int


def _part_graph(g: PointedGraph, uc: ConnectedFlag):
    """G(U) over the parts of uc, read off the graph's neighbour masks:
    (parts, up, down, anc, arcs) with parts the vertex masks of A_1..A_k,
    up[a] the mask of the parts adjacent to part a above it, down[b] that
    of the parts adjacent to part b below it, anc[b] that of the parts with
    a path to part b, and arcs the pairs (a, b), a < b, of adjacent parts,
    sorted."""
    parts = [m ^ p for p, m in zip((0,) + uc.masks, uc.masks)]
    nbr = neighbor_masks(g)
    up, down, anc, arcs = [0] * uc.k, [0] * uc.k, [0] * uc.k, []
    for b, p in enumerate(parts):
        around = 0      # the vertices adjacent to part b
        while p:
            low = p & -p
            around |= nbr[low.bit_length() - 1]
            p ^= low
        for a in range(b):      # anc[a] is complete here
            if around & parts[a]:
                up[a] |= 1 << b
                down[b] |= 1 << a
                anc[b] |= anc[a] | 1 << a
                arcs.append((a, b))
    arcs.sort()
    return parts, up, down, anc, arcs


def _oriented(up, down, j):
    """(successor, predecessor) masks over the parts of o_j(U), from those
    of G(U), `up` and `down`: o_j flips an arc iff exactly one of its ends
    is below j."""
    low = (1 << j) - 1
    return ([u & low if x < j else u | d & low for x, (u, d) in enumerate(zip(up, down))],
            [d | u & ~low if x < j else d & ~low for x, (u, d) in enumerate(zip(up, down))])


def _arcs(succ):
    """The (tail, head) arcs of successor masks, sorted."""
    return [(x, y) for x, m in enumerate(succ) for y in range(m.bit_length()) if m >> y & 1]


def _merge_target(parts, keys, succ, pred, a, b, basis):
    """(row, parity) for fusing parts a, b (0-based) joined by an arc of the
    part-level orientation `succ` / `pred` that has no detour: row is the
    position in `basis` = S_{k-1} of the representative of the fused
    orientation, and parity is the sign of the permutation carrying the
    parts of that flag to (A_a | A_b, the rest in order).  keys[x] is
    (|A| << n) - lowest bit of A, for A = parts[x].  The fused part keeps
    index lo = min(a, b), and hi = max(a, b) is left dead: its arcs move to
    lo, so it has none and no other part is renumbered."""
    lo, hi = min(a, b), max(a, b)
    lobit, hibit = 1 << lo, 1 << hi
    succ, pred = succ[:], pred[:]
    rest = (succ[hi] | pred[hi]) & ~lobit      # the other ends of hi's arcs
    while rest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        if succ[x] & hibit:
            succ[x] = succ[x] & ~hibit | lobit
        if pred[x] & hibit:
            pred[x] = pred[x] & ~hibit | lobit
    succ[lo] = (succ[lo] | succ[hi]) & ~(lobit | hibit)
    pred[lo] = (pred[lo] | pred[hi]) & ~(lobit | hibit)
    succ[hi] = pred[hi] = 0
    _realign(succ, pred)
    pa, pb = parts[lo], parts[hi]
    new_parts, new_keys = parts[:], keys[:]
    new_parts[lo] = pa | pb
    # sizes add, and the lower of the two lowest bits stays
    new_keys[lo] += keys[hi] + max(pa & -pa, pb & -pb)
    rank = sorted(range(len(parts)), key=new_keys.__getitem__)
    rank.remove(hi)
    chain, order = _peel(new_parts, succ, rank)
    row = basis.row(chain)
    if row is None:
        raise MergeError(f"merged orientation {_arcs(succ)} has no class representative")
    # moving the fused part (index lo among the live parts) to the front
    # takes lo transpositions
    return row, -_parity(order) if lo & 1 else _parity(order)


def _parity(seq):
    """Sign of the permutation listed by seq: one inversion per earlier,
    larger entry."""
    seen = inv = 0
    for x in seq:
        inv += (seen >> x).bit_count()
        seen |= 1 << x
    return -1 if inv % 2 else 1


def _peel(parts, succ, rank):
    """(chain masks, order) of the <_k-least flag whose parts, in order, run
    along the acyclic orientation with successor masks `succ`; order lists
    the indices of `parts` in the flag's order.  <_k compares from the top
    level down, so peel, level by level, the sink P that leaves the least
    prefix C - P (larger sets first, then lex).  That is the smallest sink
    and, among sinks of one size, the one whose least vertex is largest (the
    parts are disjoint, so the other prefix keeps that vertex): the first
    sink in `rank`, the live part indices sorted by (size, -least vertex),
    which the peel consumes.  A dead index is in no successor mask and not
    in `rank`, so the peel never reaches it."""
    left = (1 << len(parts)) - 1
    order = []
    for _ in range(len(rank) - 1):
        for x in rank:
            if not succ[x] & left:
                break
        else:
            raise MergeError(f"cyclic orientation {_arcs(succ)}: no sink left")
        rank.remove(x)
        left ^= 1 << x
        order.append(x)
    order += rank
    order.reverse()
    return tuple(itertools.accumulate([parts[x] for x in order], operator.or_)), order


def _realign(succ, pred):
    """Make, in place, the acyclic orientation of a connected quotient with
    successor masks `succ` and predecessor masks `pred` the one
    push-equivalent to it whose unique source is node 0 (q's part; a fuse
    never moves part 0): while another node is a source, reverse all of its
    arcs, smallest node first.  Pushes keep the indegree divisor's class,
    and each push class holds exactly one such orientation (Gioan,
    Enumerating degree sequences in digraphs and a cycle-cocycle reversing
    system, 2007; Benson-Chakrabarty-Tetali, G-parking functions, acyclic
    orientations and spanning trees, 2010), so one already of that form is
    left unchanged.  A node with no arcs (a dead part) is passed over.
    MergeError: node 0 is left with an incoming arc, so the orientation had
    a cycle."""
    x = 1
    while x < len(succ):
        if pred[x] or not succ[x]:
            x += 1
            continue
        bit, heads = 1 << x, succ[x]
        succ[x], pred[x] = 0, heads
        for y in range(len(succ)):
            if heads >> y & 1:
                succ[y] |= bit
                pred[y] &= ~bit
        x = 1
    if pred[0]:
        raise MergeError(f"cyclic orientation {_arcs(succ)}: node 0 has an incoming arc")


def _front_sign(i, j):
    """The sign of the permutation carrying A_1..A_k to (A_i, A_j, the rest
    in order), for 1-based i != j: i - 1 + j - 1 transpositions, less one
    when i < j."""
    return -1 if (i + j - (i < j)) % 2 else 1


def _merge_terms(g: PointedGraph, uc: ConnectedFlag):
    """Every member of B(U), as (a, b, row, theta, sign, from_reversal): the
    fused parts a, b (0-based), the target's position row in S_{k-1}, theta
    = D(A_b, A_a), the incidence sign, and whether the merge is inside some
    o_j(U) rather than G(U).  Needs uc in S_k with k >= 3 (k = 2 merges only
    hit the 1-flag).  This is the one merge routine: the differentials read
    it term by term, and `merge_records` wraps it.

    A merge fuses the ends of an arc a -> b of G(U), a < b, or of o_j(U),
    a >= j = b + 1.  It counts iff the quotient stays acyclic, that is iff
    no other path runs from a to b: a cycle through the fused part leaves it
    by another arc and comes back, and it can neither leave from b nor come
    back to a without a cycle before the fuse.  Both tests read the ancestor
    masks of G(U), so only the kept merges are fused:
    - G(U) runs up the part order, so another path exists iff a has a
      successor among the ancestors of b;
    - o_j(U) runs up within 0..j-1 and within j..k-1, and down from j..k-1
      to 0..j-1, so a path from a climbs the upper parts, steps down once
      and climbs to b; another path exists iff a steps down into an ancestor
      of b, or a part that a climbs to is adjacent to b or to one of them."""
    parts, up, down, anc, adjacent = _part_graph(g, uc)
    basis = enumerate_minimal_flags(g, uc.k - 1)
    keys = [(p.bit_count() << g.n) - (p & -p) for p in parts]
    climb = [0] * uc.k     # the parts adjacent to a part that a reaches in G(U)
    for a, b in reversed(adjacent):     # climb[b] is complete here
        climb[a] |= climb[b] | up[b] | down[b]
    for a, b in adjacent:
        if not up[a] & anc[b]:
            # fusing consecutive parts drops U_{a+1}: the fused orientation is
            # G(drop), so a drop in S_{k-1} is the least flag of its class,
            # peeled in part order; the sign is then (-1)^a
            row = basis.row(uc.masks[:a] + uc.masks[b:]) if b == a + 1 else None
            if row is not None:
                sign = -1 if a & 1 else 1
            else:
                row, parity = _merge_target(parts, keys, up, down, a, b, basis)
                sign = _front_sign(a + 1, b + 1) * parity
            yield a, b, row, _boundary(g, parts[b], parts[a]), sign, False
    for b, a in adjacent:
        if not (up[a] | down[a] | climb[a]) & anc[b] and not climb[a] >> b & 1:
            row, parity = _merge_target(parts, keys, *_oriented(up, down, b + 1), a, b, basis)
            yield (a, b, row, _boundary(g, parts[b], parts[a]),
                   _front_sign(a + 1, b + 1) * parity, True)


def merge_records(g: PointedGraph, uc: ConnectedFlag):
    """All members of B(U) with their (i, j) provenance, read off
    `_merge_terms`; I(U) is the i < j sublist.  Needs uc in S_k with
    k >= 3."""
    flags = enumerate_minimal_flags(g, uc.k - 1).flags
    return [MergeRecord(a + 1, b + 1, flags[row], row, rev, _front_sign(a + 1, b + 1) * sign)
            for a, b, row, _, sign, rev in _merge_terms(g, uc)]


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
    in order), times the record's parity."""
    return _front_sign(rec.i, rec.j) * rec.parity


def record_theta(g: PointedGraph, uc: ConnectedFlag, rec: MergeRecord):
    """D(A_j, A_i): for v in A_j, its edge count into A_i."""
    chain = (0, *uc.masks)      # A_x = chain[x] ^ chain[x - 1]
    return _boundary(g, chain[rec.j] ^ chain[rec.j - 1], chain[rec.i] ^ chain[rec.i - 1])


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
