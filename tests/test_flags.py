import gc
import weakref
from dataclasses import replace

import pytest

from conftest import (
    c4,
    complete,
    cycle,
    digraph_is_acyclic,
    flag_less,
    flag_sort_key,
    grid_2x3,
    path,
    reference_merge_terms,
    scanned_unique_source,
    subset_key,
)
from toppling import flags
from toppling.divisors import q_reduce
from toppling.graphs import (
    BadVertex,
    PointedGraph,
    boundary_divisor,
    build_graph,
    divisor_add,
    indegree_divisor,
    zero_divisor,
)
from toppling.flags import (
    BadK,
    BadPartIndex,
    ConnectedFlag,
    FlagError,
    LengthMismatch,
    MergeError,
    MissingQ,
    NotAFlag,
    NotIncreasing,
    NotMergedFrom,
    PartDisconnected,
    PrefixDisconnected,
    TailMismatch,
    TooShort,
    contract,
    drop_first,
    drop_second,
    enumerate_all_connected_flags,
    enumerate_minimal_flags,
    flag_divisor,
    flag_orientation,
    flags_equivalent,
    incidence_sign,
    kappa,
    mask_rank,
    merge_records,
    merge_sets,
    pullback_flag,
    pushforward_divisor,
    record_sign,
    reversal_orientation,
    theta,
    validate_flag,
)


def g5():
    return build_graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 0)


def fs(*xs):
    return frozenset(x - 1 for x in xs)


def make(chain):
    return ConnectedFlag.from_sets(chain)


# the running 4-flag on the 4-cycle
def u_flag():
    return make([fs(1), fs(1, 2), fs(1, 2, 3), fs(1, 2, 3, 4)])


class TestValidate:
    def test_g5_valid(self):
        uc = validate_flag(g5(), [fs(1), fs(1, 2), fs(1, 2, 3, 4),
                                  fs(1, 2, 3, 4, 5)])
        assert uc.k == 4

    def test_part_disconnected(self):
        with pytest.raises(PartDisconnected, match=r"A_2 = \{2,3\}"):
            validate_flag(c4(), [fs(1), fs(1, 2, 3), fs(1, 2, 3, 4)])

    def test_errors_name_the_problem(self):
        with pytest.raises(PrefixDisconnected, match=r"U_1 = \{1,4\}"):
            validate_flag(c4(), [fs(1, 4), fs(1, 2, 3, 4)])
        with pytest.raises(BadPartIndex, match="j=5"):
            reversal_orientation(c4(), u_flag(), 5)

    def test_one_flag(self):
        uc = validate_flag(c4(), [fs(1, 2, 3, 4)])
        assert uc.k == 1

    def test_missing_q(self):
        with pytest.raises(MissingQ):
            validate_flag(c4(), [fs(2), fs(1, 2, 3, 4)])

    def test_not_increasing(self):
        with pytest.raises(NotIncreasing):
            validate_flag(c4(), [fs(1), fs(1), fs(1, 2, 3, 4)])
        with pytest.raises(NotIncreasing, match="index 1"):
            validate_flag(c4(), [fs(1, 2), fs(1, 3), fs(1, 2, 3, 4)])

    def test_vertex_outside_graph(self):
        # named 1-based, before the chain's order is looked at
        with pytest.raises(BadVertex, match="vertex 9 "):
            validate_flag(c4(), [fs(1, 9), fs(1, 2, 3, 4)])
        with pytest.raises(BadVertex, match="vertex 0 "):
            validate_flag(c4(), [fs(0, 1), fs(1, 2, 3, 4)])

    def test_literal_round_trip(self):
        assert u_flag().literal() == "{1} < {1,2} < {1,2,3} < {1,2,3,4}"


class TestOrientation:
    def test_g5_example(self):
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        # 3-4 lies inside one part, so it has no arc
        assert flag_orientation(g5(), uc) == {(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)}

    def test_one_flag_unoriented(self):
        uc = make([fs(1, 2, 3, 4)])
        assert flag_orientation(c4(), uc) == frozenset()

    def test_c4_full_flag(self):
        # 1->2, 1->3, 2->4, 3->4
        assert flag_orientation(c4(), u_flag()) == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_divisor_g5(self):
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        assert flag_divisor(g5(), uc) == (0, 1, 1, 1, 2)

    def test_divisor_c4(self):
        assert flag_divisor(c4(), u_flag()) == (0, 1, 1, 2)

    def test_one_pass_divisor_matches_level_sum(self, graph_corpus):
        # D(U) = sum over levels i of D(A_i, U_{i-1}), on every connected
        # flag of every corpus graph at every base vertex, and of K6
        checked = 0
        for g in [*corpus_and_families(graph_corpus), complete(6)]:
            for k in range(1, g.n + 1):
                for uc in enumerate_all_connected_flags(g, k):
                    want = zero_divisor(g.n)
                    for i in range(1, k):
                        want = divisor_add(want, boundary_divisor(
                            g, uc.chain[i] - uc.chain[i - 1], uc.chain[i - 1]))
                    assert flag_divisor(g, uc) == want, uc.literal()
                    checked += 1
        assert checked > 10000

    def test_divisor_extends_drop_first(self, graph_corpus):
        # D(U) = D(drop_first(U)) + D(U_2 - U_1, U_1) for U in S_k, k >= 3:
        # the edges U_1 adds inside U_2 are the only ones W = drop_first(U)
        # does not count
        graphs = [*corpus_and_families(graph_corpus), complete(6)]
        graphs += [grid_2x3(q) for q in range(6)]
        checked = 0
        for g in graphs:
            for k in range(3, g.n + 1):
                for uc in enumerate_minimal_flags(g, k):
                    u1, u2 = uc.chain[0], uc.chain[1]
                    want = divisor_add(flag_divisor(g, drop_first(uc)),
                                       boundary_divisor(g, u2 - u1, u1))
                    assert flag_divisor(g, uc) == want, uc.literal()
                    checked += 1
        assert checked > 5000

    def test_divisor_is_indegree(self):
        g = g5()
        for uc in enumerate_all_connected_flags(g, 3):
            o = flag_orientation(g, uc)
            assert flag_divisor(g, uc) == indegree_divisor(g, o)


class TestOrder:
    def test_larger_first_set_wins(self):
        g = c4()
        big = make([fs(1, 3, 4), fs(1, 2, 3, 4)])
        small = make([fs(1), fs(1, 2, 3, 4)])
        assert flag_less(big, small)
        assert not flag_less(small, big)

    def test_mask_rank_is_subset_key(self):
        # every mask of every n <= 10, the empty one included: sorted by
        # subset_key, the ranks strictly increase
        for n in range(1, 11):
            by_key = sorted(range(1 << n), key=lambda m: subset_key(
                {v for v in range(n) if m >> v & 1}))
            ranks = [mask_rank(n, m) for m in by_key]
            assert all(a < b for a, b in zip(ranks, ranks[1:])), n

    def test_irreflexive(self):
        assert not flag_less(u_flag(), u_flag())

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            flag_less(u_flag(), make([fs(1), fs(1, 2, 3, 4)]))

    def test_equivalence_two_flags(self):
        g = c4()
        u = make([fs(1), fs(1, 2), fs(1, 2, 3, 4)])
        w = make([fs(1), fs(1, 2), fs(1, 2, 3, 4)])
        assert flags_equivalent(g, u, w)

    def test_k2_classes_singletons(self):
        # every 2-flag is alone in its class
        g = c4()
        all2 = enumerate_all_connected_flags(g, 2)
        assert len(all2) == len(enumerate_minimal_flags(g, 2))


class TestEnumeration:
    def test_c4_counts(self):
        g = c4()
        assert [len(enumerate_minimal_flags(g, k)) for k in (2, 3, 4)] == \
            [6, 8, 3]

    def test_c5_counts(self):
        g = cycle(5)
        assert [len(enumerate_minimal_flags(g, k)) for k in (2, 3, 4, 5)] == \
            [10, 20, 15, 4]

    def test_k1(self):
        assert len(enumerate_minimal_flags(c4(), 1)) == 1

    def test_k_above_n_is_empty(self):
        assert enumerate_all_connected_flags(c4(), 5) == []
        assert len(enumerate_minimal_flags(c4(), 5)) == 0

    def test_one_vertex_has_no_split(self):
        # V = {q} has no split, so there is no 2-flag, and the growth must not
        # put V itself below V
        k1 = build_graph(1, [], 0)
        assert enumerate_minimal_flags(k1, 1).flags == (ConnectedFlag.from_sets([fs(1)]),)
        assert len(enumerate_minimal_flags(k1, 2)) == 0
        assert enumerate_all_connected_flags(k1, 2) == []

    def test_all_flags_sorted(self, graph_corpus):
        for g in corpus_and_families(graph_corpus):
            for k in range(1, g.n + 1):
                flags = enumerate_all_connected_flags(g, k)
                assert flags == sorted(flags, key=flag_sort_key)

    def test_k_below_one(self):
        with pytest.raises(BadK, match="k=0"):
            enumerate_minimal_flags(c4(), 0)

    def test_kn_counts(self):
        # (k-1)! * Stirling2(n, k)
        g = complete(4)
        assert [len(enumerate_minimal_flags(g, k)) for k in (2, 3, 4)] == \
            [7, 12, 6]

    def test_tree_counts(self):
        g = path(4)
        assert [len(enumerate_minimal_flags(g, k)) for k in (2, 3, 4)] == \
            [3, 3, 1]


class TestCache:
    def test_graph_owns_its_bases(self):
        g = c4()
        assert enumerate_minimal_flags(g, 2) is enumerate_minimal_flags(g, 2)
        twin = c4()
        assert twin == g and hash(twin) == hash(g)
        assert enumerate_minimal_flags(twin, 2) is not enumerate_minimal_flags(g, 2)

    def test_rebased_copy_starts_empty(self):
        g = c4()
        enumerate_minimal_flags(g, 2)
        h = replace(g, q=3)
        assert h == build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 3)
        assert enumerate_minimal_flags(h, 2) is not enumerate_minimal_flags(g, 2)
        assert all(3 in uc.chain[0] for uc in enumerate_minimal_flags(h, 2))

    def test_bases_die_with_the_graph(self):
        g = c4()
        ref = weakref.ref(enumerate_minimal_flags(g, 2))
        del g
        gc.collect()
        assert ref() is None


class TestDrops:
    def test_c4_drop_first(self):
        assert drop_first(u_flag()).chain == \
            (fs(1, 2), fs(1, 2, 3), fs(1, 2, 3, 4))

    def test_c4_drop_second_disconnected_branch(self):
        # G[{2,3}] is disconnected, so U_1 absorbs U_3 - U_2
        assert drop_second(c4(), u_flag()).chain == \
            (fs(1, 3), fs(1, 2, 3), fs(1, 2, 3, 4))

    def test_g5_drop_second_connected_branch(self):
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        assert drop_second(g5(), uc).chain == \
            (fs(1), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5))

    def test_too_short(self):
        with pytest.raises(TooShort):
            drop_second(c4(), make([fs(1), fs(1, 2, 3, 4)]))

    def test_drop_order(self):
        g = c4()
        for uc in enumerate_minimal_flags(g, 4):
            assert flag_less(drop_first(uc), drop_second(g, uc))


class TestKappa:
    def test_self(self):
        g = c4()
        u1 = drop_first(u_flag())
        assert kappa(g, u1, u1) == (0, 0, 1, 0)

    def test_c4_drops(self):
        g = c4()
        uc = u_flag()
        assert kappa(g, drop_first(uc), drop_second(g, uc)) == (0, 1, 1, 0)

    def test_g5_drops(self):
        g = g5()
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        assert kappa(g, drop_first(uc), drop_second(g, uc)) == (0, 1, 1, 1, 0)

    def test_tail_mismatch(self):
        g = c4()
        with pytest.raises(TailMismatch):
            kappa(g, u_flag(), make([fs(1), fs(1, 2, 3, 4)]))


class TestContract:
    def test_g5_partition(self):
        g = g5()
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        h, vmap = contract(g, uc)
        assert h.n == 4 and h.q == 0
        assert h.mult[0][1] == 1 and h.mult[0][2] == 1
        assert h.mult[1][2] == 1 and h.mult[2][3] == 2
        assert vmap == (0, 1, 2, 2, 3)

    def test_full_flag_identity(self):
        g = c4()
        h, vmap = contract(g, u_flag())
        assert h.mult == g.mult and vmap == (0, 1, 2, 3)

    def test_one_flag(self):
        h, _ = contract(c4(), make([fs(1, 2, 3, 4)]))
        assert h.n == 1 and h.m == 0

    def test_pushforward(self):
        g = g5()
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        _, vmap = contract(g, uc)
        assert pushforward_divisor(vmap, flag_divisor(g, uc)) == (0, 1, 2, 2)

    def test_pullback(self):
        g = g5()
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        _, vmap = contract(g, uc)
        vc_prime = ConnectedFlag.from_sets((frozenset({0}), frozenset({0, 1}),
                                            frozenset(range(4))))
        back = pullback_flag(g, vmap, vc_prime)
        assert back.chain == (fs(1), fs(1, 2), fs(1, 2, 3, 4, 5))

    def test_pullback_merged_part(self):
        g = g5()
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        _, vmap = contract(g, uc)
        vc_prime = ConnectedFlag.from_sets((frozenset({0}), frozenset({0, 1, 2}),
                                            frozenset(range(4))))
        back = pullback_flag(g, vmap, vc_prime)
        assert back.chain == (fs(1), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5))

    def test_pullback_disconnected_preimage(self):
        # {u1} < {u1,u3} < V' pulls back to parts {v3,v4} and {v2,v5};
        # the latter is disconnected, so the result is not a flag
        g = g5()
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        _, vmap = contract(g, uc)
        vc_prime = ConnectedFlag.from_sets((frozenset({0}), frozenset({0, 2}),
                                            frozenset(range(4))))
        with pytest.raises(NotAFlag):
            pullback_flag(g, vmap, vc_prime)


class TestReversals:
    def test_o0_is_flag_orientation(self):
        g = c4()
        assert reversal_orientation(g, u_flag(), 0) == \
            flag_orientation(g, u_flag())

    def test_o1(self):
        arcs = reversal_orientation(c4(), u_flag(), 1)
        assert arcs == {(1, 0), (2, 0), (1, 3), (2, 3)}

    def test_o3(self):
        arcs = reversal_orientation(c4(), u_flag(), 3)
        assert arcs == {(0, 1), (0, 2), (3, 1), (3, 2)}

    def test_o4_back_to_start(self):
        g = c4()
        assert reversal_orientation(g, u_flag(), 4) == \
            flag_orientation(g, u_flag())


class TestMerges:
    def test_c4_i_set(self):
        g = c4()
        i_set, b_set = merge_sets(g, u_flag())
        assert len(i_set) == 4 and len(b_set) == 8

    def test_k2_empty(self):
        g = c4()
        uc = make([fs(1), fs(1, 2, 3, 4)])
        assert merge_sets(g, uc) == ([], [])

    def test_merged_flags_are_representatives(self):
        g = c4()
        s3 = enumerate_minimal_flags(g, 3)
        _, b_set = merge_sets(g, u_flag())
        assert all(wc in s3.flags for wc in b_set)

    def test_signs_from_phi2_column(self):
        g = c4()
        uc = u_flag()
        # the +x2 and -x3 terms of the last differential's first column
        w12 = make([fs(1, 2), fs(1, 2, 3), fs(1, 2, 3, 4)])
        w13 = make([fs(1, 3), fs(1, 2, 3), fs(1, 2, 3, 4)])
        assert incidence_sign(g, uc, w12) == 1
        assert incidence_sign(g, uc, w13) == -1
        assert theta(g, uc, w12) == (0, 1, 0, 0)

    def test_theta_reversal_merge(self):
        g = c4()
        uc = u_flag()
        w21 = make([fs(1, 2), fs(1, 2, 4), fs(1, 2, 3, 4)])
        assert theta(g, uc, w21) == (1, 0, 0, 0)
        assert incidence_sign(g, uc, w21) == 1

    def test_not_merged_from(self):
        # every 3-flag class is a merge target of the running flag, so switch
        # to a base whose merge set misses some of them
        g = c4()
        u2 = make([fs(1), fs(1, 2), fs(1, 2, 4), fs(1, 2, 3, 4)])
        with pytest.raises(NotMergedFrom):
            theta(g, u2, make([fs(1), fs(1, 3), fs(1, 2, 3, 4)]))


def corpus_and_families(graph_corpus):
    """Every corpus graph at every base vertex, then C6 and K5."""
    for n, edges in graph_corpus:
        for q in range(n):
            yield build_graph(n, edges, q)
    yield cycle(6)
    yield complete(5)


def bucket_minima(g, k):
    """flag_orientation -> least flag of that class, over every connected
    k-flag: S_k by its definition, independent of the drop rule."""
    least = {}
    for uc in enumerate_all_connected_flags(g, k):
        o = flag_orientation(g, uc)
        if o not in least or flag_sort_key(uc) < flag_sort_key(least[o]):
            least[o] = uc
    return least


def bucketed_basis(g, k):
    return sorted(bucket_minima(g, k).values(), key=flag_sort_key)


def records_of(g):
    """(uc, rec) for every merge record of every S_k flag, k >= 3."""
    for k in range(3, g.n + 1):
        for uc in enumerate_minimal_flags(g, k):
            for rec in merge_records(g, uc):
                yield uc, rec


def peeled_least_flag(parts, arcs):
    """The <_k-least flag along the acyclic part-level `arcs`, by the rule
    itself: peel, level by level, the sink whose removal leaves the
    subset_key-least prefix."""
    left = set(range(len(parts)))
    chain = [frozenset().union(*parts)]
    while len(left) > 1:
        sinks = [x for x in left if not any(t == x and h in left for t, h in arcs)]
        x = min(sinks, key=lambda y: subset_key(chain[-1] - parts[y]))
        left.remove(x)
        chain.append(chain[-1] - parts[x])
    return ConnectedFlag.from_sets(reversed(chain))


def part_index(g, parts):
    """The part of each vertex, for parts given as sets."""
    return [next(x for x, part in enumerate(parts) if v in part) for v in range(g.n)]


def chain_arcs(g, parts):
    """G(U) over its parts: every adjacent part pair, oriented from the
    lower part."""
    pidx = part_index(g, parts)
    return {(min(pidx[u], pidx[v]), max(pidx[u], pidx[v]))
            for u, v in g.adjacent_pairs() if pidx[u] != pidx[v]}


def oj_arcs(g, parts, j):
    """o_j(U) over its parts: flip, in turn, all arcs between A_1..A_j and
    their complements, so an arc ends up flipped iff exactly one of its
    ends is below j."""
    return {(b, a) if (a < j) != (b < j) else (a, b) for a, b in chain_arcs(g, parts)}


def expand_arcs(g, parts, arcs):
    """Vertex arcs from the part-level `arcs`; pairs inside one part stay
    unoriented."""
    pidx = part_index(g, parts)
    out = set()
    for u, v in g.adjacent_pairs():
        if pidx[u] != pidx[v]:
            out.add((u, v) if (pidx[u], pidx[v]) in arcs else (v, u))
            assert (pidx[u], pidx[v]) in arcs or (pidx[v], pidx[u]) in arcs
    return frozenset(out)


def fuse(parts, a, b):
    """The part list with parts a and b fused (kept at position min(a, b)),
    and the old -> new index map as a list."""
    lo, hi = min(a, b), max(a, b)
    new_parts = [*parts[:lo], parts[lo] | parts[hi], *parts[lo + 1:hi], *parts[hi + 1:]]
    old_to_new = [x - (x > hi) for x in range(len(parts))]
    old_to_new[hi] = lo
    return new_parts, old_to_new


def quotient_arcs(arcs, old_to_new, drop_pair):
    """The part-level arcs after a fuse: the arcs between the fused pair
    go, and the others are renumbered."""
    out = set()
    for a, b in arcs:
        if a in drop_pair and b in drop_pair:
            continue
        na, nb = old_to_new[a], old_to_new[b]
        if na != nb:
            out.add((na, nb))
    return out


def realigned_arcs(arcs):
    """The push realignment on a set of part-level arcs: while a node other
    than 0 is a source, reverse all of its arcs, smallest node first."""
    arcs = set(arcs)
    while True:
        heads = {h for _, h in arcs}
        sources = sorted({t for t, _ in arcs} - heads - {0})
        if not sources:
            return arcs
        x = sources[0]
        arcs = {(h, t) if t == x else (t, h) for t, h in arcs}


def masks_of(arcs, size):
    """(successor, predecessor) masks of the part-level `arcs`."""
    succ, pred = [0] * size, [0] * size
    for t, h in arcs:
        succ[t] |= 1 << h
        pred[h] |= 1 << t
    return succ, pred


def arcs_of(succ):
    return {(x, y) for x, m in enumerate(succ) for y in range(len(succ)) if m >> y & 1}


def mask_realigned(arcs, size):
    """flags._realign on the part-level `arcs`, as a set of arcs."""
    succ, pred = masks_of(arcs, size)
    flags._realign(succ, pred)
    assert masks_of(arcs_of(succ), size)[1] == pred
    return arcs_of(succ)


def perm_parity(delta, alpha):
    """Sign of the permutation carrying the part sequence delta to alpha."""
    pos = {part: idx for idx, part in enumerate(delta)}
    seq = [pos[part] for part in alpha]
    inv = sum(1 for x in range(len(seq)) for y in range(x + 1, len(seq))
              if seq[x] > seq[y])
    return -1 if inv % 2 else 1


def scanned_arcs(g, new_parts, qarcs, qnode):
    """The realignment by brute force: scan every unique-source acyclic
    orientation of the quotient graph for indegree divisor E + 1."""
    k = len(new_parts)
    mult = tuple(tuple(sum(g.mult[u][v] for u in new_parts[x] for v in new_parts[y])
                       if x != y else 0 for y in range(k)) for x in range(k))
    h = PointedGraph(k, mult, qnode)
    indeg = [0] * k
    for x, y in qarcs:
        indeg[y] += mult[x][y]
    want = tuple(c + 1 for c in q_reduce(h, qnode, tuple(c - 1 for c in indeg)))
    matches = [o for o in scanned_unique_source(h)
               if indegree_divisor(h, o) == want]
    assert len(matches) == 1
    return matches[0]


class TestDropRuleGenerator:
    def test_equals_bucketed_basis(self, graph_corpus):
        for g in [*corpus_and_families(graph_corpus), grid_2x3()]:
            for k in range(1, g.n + 2):
                assert list(enumerate_minimal_flags(g, k).flags) == bucketed_basis(g, k)

    def test_merge_targets_are_bucket_minima(self, graph_corpus):
        checked = {False: 0, True: 0}
        for g in [*corpus_and_families(graph_corpus), grid_2x3()]:
            minima = {k: bucket_minima(g, k) for k in range(2, g.n)}
            for uc, rec in records_of(g):
                a, b = rec.i - 1, rec.j - 1
                parts = uc.parts()
                new_parts, old_to_new = fuse(parts, a, b)
                arcs = oj_arcs(g, parts, rec.j if rec.from_reversal else 0)
                qarcs = realigned_arcs(quotient_arcs(arcs, old_to_new, frozenset((a, b))))
                assert rec.flag == minima[uc.k - 1][expand_arcs(g, new_parts, qarcs)]
                checked[rec.from_reversal] += 1
        assert min(checked.values()) > 1000


class TestMergeSearch:
    def test_detours_match_acyclic_quotients(self, graph_corpus):
        # every merge attempt of both kinds is kept iff fusing its parts
        # leaves the quotient acyclic; o_0(U) is G(U)
        rejected = {False: 0, True: 0}
        for g in [*corpus_and_families(graph_corpus), complete(6), grid_2x3()]:
            for k in range(3, g.n + 1):
                for uc in enumerate_minimal_flags(g, k):
                    parts = uc.parts()
                    adjacent = sorted(chain_arcs(g, parts))
                    attempts = [(a, b, 0) for a, b in adjacent]
                    attempts += [(a, b, b + 1) for b, a in adjacent]
                    kept = set()
                    for a, b, j in attempts:
                        _, old_to_new = fuse(parts, a, b)
                        qarcs = quotient_arcs(oj_arcs(g, parts, j), old_to_new,
                                              frozenset((a, b)))
                        if digraph_is_acyclic(k - 1, qarcs):
                            kept.add((a + 1, b + 1, j > 0))
                        else:
                            rejected[j > 0] += 1
                    assert {(r.i, r.j, r.from_reversal)
                            for r in merge_records(g, uc)} == kept
        assert min(rejected.values()) > 1000

    def test_terms_match_reference(self, graph_corpus):
        # reading a merge of consecutive parts off its drop changes no term
        checked = 0
        for g in [*corpus_and_families(graph_corpus), cycle(7), complete(6), grid_2x3()]:
            for k in range(3, g.n + 1):
                for uc in enumerate_minimal_flags(g, k):
                    terms = list(flags._merge_terms(g, uc))
                    assert terms == list(reference_merge_terms(g, uc))
                    checked += len(terms)
        assert checked > 1000

    def test_least_flag_by_rank_matches_peel(self, graph_corpus, monkeypatch):
        # one peel per merge whose target is not its dropped chain, and each
        # equals the subset_key peel
        searched = 0
        for g in corpus_and_families(graph_corpus):
            for k in range(3, g.n + 1):
                basis = enumerate_minimal_flags(g, k - 1)
                for uc in enumerate_minimal_flags(g, k):
                    searched += sum(rev or b != a + 1 or
                                    basis.flags[row].masks != uc.masks[:a] + uc.masks[b:]
                                    for a, b, row, _, _, rev in reference_merge_terms(g, uc))
        peels = []
        real = flags._peel

        def spy(parts, succ, rank):
            live = sorted(rank)     # the peel consumes rank
            peels.append((parts, live, arcs_of(succ), real(parts, succ, rank)))
            return peels[-1][3]
        monkeypatch.setattr(flags, "_peel", spy)
        records = sum(1 for g in corpus_and_families(graph_corpus) for _ in records_of(g))
        assert len(peels) == searched > 1000
        assert records > searched
        for parts, live, arcs, (chain, order) in peels:
            # the fused-away part is dead: out of the rank, with no arc
            assert len(live) == len(parts) - 1
            assert all(x in live and y in live for x, y in arcs)
            sets = [frozenset(v for v in range(p.bit_length()) if p >> v & 1) for p in parts]
            new = {x: i for i, x in enumerate(live)}
            flag = ConnectedFlag(chain)
            assert flag == peeled_least_flag([sets[x] for x in live],
                                             {(new[x], new[y]) for x, y in arcs})
            assert flag.parts() == tuple(sets[x] for x in order)

    def test_cyclic_peel_raises(self):
        # nodes 1 and 2 point at each other, and node 0 at node 1: no sink
        with pytest.raises(MergeError):
            flags._peel([0b001, 0b010, 0b100], [0b010, 0b100, 0b010], [0, 1, 2])


class TestRealign:
    def test_pushes_match_scan(self, graph_corpus):
        checked = 0
        for g in corpus_and_families(graph_corpus):
            for uc, rec in records_of(g):
                if not rec.from_reversal:
                    continue
                a, b = rec.i - 1, rec.j - 1
                parts = uc.parts()
                new_parts, old_to_new = fuse(parts, a, b)
                qarcs = quotient_arcs(oj_arcs(g, parts, b + 1), old_to_new,
                                      frozenset((a, b)))
                qnode = old_to_new[0]
                assert mask_realigned(qarcs, len(new_parts)) == realigned_arcs(qarcs) == \
                    scanned_arcs(g, new_parts, qarcs, qnode)
                checked += 1
        assert checked > 1000

    def test_three_pushes(self):
        # path 0-1-2 with 2->1->0: push 2, then 1, then 2 again
        assert mask_realigned({(2, 1), (1, 0)}, 3) == {(0, 1), (1, 2)}

    def test_cyclic_quotient_raises(self):
        # arcs 0->1->2->0: no node off 0 is a source, so nothing is pushed
        # and node 0 keeps its incoming arc 2->0
        with pytest.raises(MergeError):
            mask_realigned({(0, 1), (1, 2), (2, 0)}, 3)


class TestSign:
    def test_independent_of_rest_order(self, graph_corpus):
        for g in corpus_and_families(graph_corpus):
            for uc, rec in records_of(g):
                parts = uc.parts()
                ai, aj = parts[rec.i - 1], parts[rec.j - 1]
                rest = [p for p in parts if p not in (ai, aj)]
                sign = record_sign(rec)
                for order in (sorted(rest, key=subset_key), rest[::-1]):
                    assert sign == (perm_parity(parts, [ai, aj] + order)
                                    * perm_parity(rec.flag.parts(), [ai | aj] + order))


def outcome(fn, *args):
    """fn(*args), or the type and message of the FlagError it raises."""
    try:
        return fn(*args)
    except FlagError as exc:
        return type(exc), str(exc)


class TestMaskPath:
    def test_flags_round_trip_through_sets(self, graph_corpus):
        # every flag of S_k, k = 1..n, of the corpus at every base vertex,
        # C6, K5 and the 2x3 grid: the set constructor (also on lists with
        # repeated vertices) and validate_flag on its chain give it back, and
        # its parts and literal match set-based references
        checked = 0
        graphs = [build_graph(n, edges, q) for n, edges in graph_corpus for q in range(n)]
        for g in [*graphs, cycle(6), complete(5), grid_2x3()]:
            for k in range(1, g.n + 1):
                for uc in enumerate_minimal_flags(g, k):
                    chain = uc.chain
                    assert all(type(s) is frozenset for s in chain)
                    assert ConnectedFlag.from_sets(chain) == uc
                    assert ConnectedFlag.from_sets(sorted(s) * 2 for s in chain) == uc
                    assert validate_flag(g, chain) == uc
                    assert uc.parts() == (chain[0], *(b - a for a, b in zip(chain, chain[1:])))
                    assert uc.literal() == " < ".join(
                        "{" + ",".join(str(v + 1) for v in sorted(s)) + "}" for s in chain)
                    checked += 1
        assert checked > 5000

    def test_orientations_match_set_reference(self, graph_corpus):
        # G(U) and every o_j(U) of every S_k flag, against the same
        # orientations built from sets of part-level arcs
        for g in corpus_and_families(graph_corpus):
            for k in range(2, g.n + 1):
                for uc in enumerate_minimal_flags(g, k):
                    parts = uc.parts()
                    assert flag_orientation(g, uc) == expand_arcs(g, parts, chain_arcs(g, parts))
                    for j in range(k + 1):
                        assert reversal_orientation(g, uc, j) == \
                            expand_arcs(g, parts, oj_arcs(g, parts, j))

    def test_rows_index_their_flags(self, graph_corpus):
        # every S_k flag of the corpus at every base vertex, K6 and the 2x3
        # grid: a record's row is its own target's position in S_{k-1}
        checked = 0
        graphs = [build_graph(n, edges, q) for n, edges in graph_corpus for q in range(n)]
        for g in [*graphs, complete(6), grid_2x3()]:
            for uc, rec in records_of(g):
                lower = enumerate_minimal_flags(g, uc.k - 1)
                assert lower.flags[rec.row] == rec.flag
                assert lower.flags.index(rec.flag) == rec.row
                assert lower.row(rec.flag.masks) == rec.row
                checked += 1
        assert checked > 10000

    def test_hand_built_flag_matches_enumerated(self, graph_corpus):
        # a flag built from sets (validate_flag on a fresh copy of the
        # graph) equals the enumerated flag and gives its results:
        # every flag of C4, C5 and K5, and the first and last of each S_k of
        # the corpus at base vertex 1
        cases = [(g, lambda basis: basis) for g in (c4(), cycle(5), complete(5))]
        cases += [(build_graph(n, edges, 0), lambda basis: basis[:1] + basis[-1:])
                  for n, edges in graph_corpus]
        checked = 0
        for g, pick in cases:
            for k in range(3, g.n + 1):
                for uc in pick(enumerate_minimal_flags(g, k).flags):
                    records = merge_records(g, uc)

                    def hand():
                        h = replace(g)
                        return h, validate_flag(h, [set(s) for s in uc.chain])
                    h, hc = hand()
                    assert hc == uc
                    assert merge_records(h, hc) == records
                    for wc in dict.fromkeys(r.flag for r in records):
                        assert outcome(incidence_sign, *hand(), wc) == \
                            outcome(incidence_sign, g, uc, wc)
                        assert outcome(theta, *hand(), wc) == outcome(theta, g, uc, wc)
                    checked += 1
        assert checked > 100
