import pytest

from conftest import c4, complete, cycle, path
from toppling.divisors import acyclic_orientations_unique_source, q_reduce
from toppling.graphs import FORWARD, UNORIENTED, PointedGraph, build_graph
from toppling.flags import (
    ConnectedFlag,
    FlagError,
    LengthMismatch,
    MissingQ,
    NotAFlag,
    NotIncreasing,
    NotMergedFrom,
    PartDisconnected,
    TailMismatch,
    TooShort,
    contract,
    drop_first,
    drop_second,
    enumerate_all_connected_flags,
    enumerate_minimal_flags,
    flag_divisor,
    flag_less,
    flag_orientation,
    flags_equivalent,
    incidence_sign,
    kappa,
    merge_records,
    merge_sets,
    pullback_flag,
    pushforward_divisor,
    record_sign,
    reversal_orientation,
    subset_key,
    theta,
    validate_flag,
    _fuse,
    _oj_arcs,
    _perm_parity,
    _quotient_arcs,
    _realigned_arcs,
)


def g5():
    return build_graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 0)


def fs(*xs):
    return frozenset(x - 1 for x in xs)


def make(chain):
    return ConnectedFlag(tuple(chain))


# the running 4-flag on the 4-cycle
def u_flag():
    return make([fs(1), fs(1, 2), fs(1, 2, 3), fs(1, 2, 3, 4)])


class TestValidate:
    def test_g5_valid(self):
        uc = validate_flag(g5(), 0, [fs(1), fs(1, 2), fs(1, 2, 3, 4),
                                     fs(1, 2, 3, 4, 5)])
        assert uc.k == 4

    def test_part_disconnected(self):
        with pytest.raises(PartDisconnected):
            validate_flag(c4(), 0, [fs(1), fs(1, 2, 3), fs(1, 2, 3, 4)])

    def test_one_flag(self):
        uc = validate_flag(c4(), 0, [fs(1, 2, 3, 4)])
        assert uc.k == 1

    def test_missing_q(self):
        with pytest.raises(MissingQ):
            validate_flag(c4(), 0, [fs(2), fs(1, 2, 3, 4)])

    def test_not_increasing(self):
        with pytest.raises(NotIncreasing):
            validate_flag(c4(), 0, [fs(1), fs(1), fs(1, 2, 3, 4)])

    def test_literal_round_trip(self):
        assert u_flag().literal() == "{1} < {1,2} < {1,2,3} < {1,2,3,4}"


class TestOrientation:
    def test_g5_example(self):
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        state = flag_orientation(g5(), uc).as_dict()
        assert state[(2, 3)] == UNORIENTED  # 3-4 inside one part
        oriented = {p for p, s in state.items() if s != UNORIENTED}
        assert oriented == {(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)}

    def test_one_flag_unoriented(self):
        uc = make([fs(1, 2, 3, 4)])
        assert all(s == UNORIENTED
                   for s in flag_orientation(c4(), uc).as_dict().values())

    def test_c4_full_flag(self):
        state = flag_orientation(c4(), u_flag()).as_dict()
        assert all(s == FORWARD for s in state.values())  # 1->2,1->3,2->4,3->4

    def test_divisor_g5(self):
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        assert flag_divisor(g5(), uc) == (0, 1, 1, 1, 2)

    def test_divisor_c4(self):
        assert flag_divisor(c4(), u_flag()) == (0, 1, 1, 2)

    def test_divisor_is_indegree(self):
        g = g5()
        for uc in enumerate_all_connected_flags(g, 0, 3):
            o = flag_orientation(g, uc)
            assert flag_divisor(g, uc) == o.indegree_divisor(g)


class TestOrder:
    def test_larger_first_set_wins(self):
        g = c4()
        big = make([fs(1, 3, 4), fs(1, 2, 3, 4)])
        small = make([fs(1), fs(1, 2, 3, 4)])
        assert flag_less(big, small)
        assert not flag_less(small, big)

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
        all2 = enumerate_all_connected_flags(g, 0, 2)
        assert len(all2) == len(enumerate_minimal_flags(g, 0, 2))


class TestEnumeration:
    def test_c4_counts(self):
        g = c4()
        assert [len(enumerate_minimal_flags(g, 0, k)) for k in (2, 3, 4)] == \
            [6, 8, 3]

    def test_c5_counts(self):
        g = cycle(5)
        assert [len(enumerate_minimal_flags(g, 0, k)) for k in (2, 3, 4, 5)] == \
            [10, 20, 15, 4]

    def test_k1(self):
        assert len(enumerate_minimal_flags(c4(), 0, 1)) == 1

    def test_kn_counts(self):
        # (k-1)! * Stirling2(n, k)
        g = complete(4)
        assert [len(enumerate_minimal_flags(g, 0, k)) for k in (2, 3, 4)] == \
            [7, 12, 6]

    def test_tree_counts(self):
        g = path(4)
        assert [len(enumerate_minimal_flags(g, 0, k)) for k in (2, 3, 4)] == \
            [3, 3, 1]


class TestDrops:
    def test_c4_drop_first(self):
        assert drop_first(c4(), u_flag()).chain == \
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
        for uc in enumerate_minimal_flags(g, 0, 4):
            assert flag_less(drop_first(g, uc), drop_second(g, uc))


class TestKappa:
    def test_self(self):
        g = c4()
        u1 = drop_first(g, u_flag())
        assert kappa(g, u1, u1) == (0, 0, 1, 0)

    def test_c4_drops(self):
        g = c4()
        uc = u_flag()
        assert kappa(g, drop_first(g, uc), drop_second(g, uc)) == (0, 1, 1, 0)

    def test_g5_drops(self):
        g = g5()
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        assert kappa(g, drop_first(g, uc), drop_second(g, uc)) == (0, 1, 1, 1, 0)

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
        vc_prime = ConnectedFlag((frozenset({0}), frozenset({0, 1}),
                                  frozenset(range(4))))
        back = pullback_flag(g, vmap, vc_prime)
        assert back.chain == (fs(1), fs(1, 2), fs(1, 2, 3, 4, 5))

    def test_pullback_merged_part(self):
        g = g5()
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        _, vmap = contract(g, uc)
        vc_prime = ConnectedFlag((frozenset({0}), frozenset({0, 1, 2}),
                                  frozenset(range(4))))
        back = pullback_flag(g, vmap, vc_prime)
        assert back.chain == (fs(1), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5))

    def test_pullback_disconnected_preimage(self):
        # {u1} < {u1,u3} < V' pulls back to parts {v3,v4} and {v2,v5};
        # the latter is disconnected, so the result is not a flag
        g = g5()
        uc = make([fs(1), fs(1, 2), fs(1, 2, 3, 4), fs(1, 2, 3, 4, 5)])
        _, vmap = contract(g, uc)
        vc_prime = ConnectedFlag((frozenset({0}), frozenset({0, 2}),
                                  frozenset(range(4))))
        with pytest.raises(NotAFlag):
            pullback_flag(g, vmap, vc_prime)


class TestReversals:
    def test_o0_is_flag_orientation(self):
        g = c4()
        assert reversal_orientation(g, u_flag(), 0) == \
            flag_orientation(g, u_flag())

    def test_o1(self):
        arcs = set(reversal_orientation(c4(), u_flag(), 1).arcs())
        assert arcs == {(1, 0), (2, 0), (1, 3), (2, 3)}

    def test_o3(self):
        arcs = set(reversal_orientation(c4(), u_flag(), 3).arcs())
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
        s3 = enumerate_minimal_flags(g, 0, 3)
        _, b_set = merge_sets(g, u_flag())
        assert all(wc in s3.position for wc in b_set)

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


def records_of(g):
    """(uc, rec) for every merge record of every S_k flag, k >= 3."""
    for k in range(3, g.n + 1):
        for uc in enumerate_minimal_flags(g, g.q, k):
            for rec in merge_records(g, uc):
                yield uc, rec


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
    matches = [o for o in acyclic_orientations_unique_source(h, qnode)
               if o.indegree_divisor(h) == want]
    assert len(matches) == 1
    return set(matches[0].arcs())


class TestRealign:
    def test_burning_order_matches_scan(self, graph_corpus):
        checked = 0
        for g in corpus_and_families(graph_corpus):
            for uc, rec in records_of(g):
                if not rec.from_reversal:
                    continue
                a, b = rec.i - 1, rec.j - 1
                parts = uc.parts()
                new_parts, old_to_new = _fuse(parts, a, b)
                qarcs = _quotient_arcs(_oj_arcs(g, parts, b + 1), old_to_new,
                                       frozenset((a, b)))
                qnode = old_to_new[0]
                assert _realigned_arcs(g, new_parts, qarcs, qnode) == \
                    scanned_arcs(g, new_parts, qarcs, qnode)
                checked += 1
        assert checked > 1000

    def test_cyclic_quotient_raises(self):
        # arcs 0->1->2->0: E = 0 and the fire reaches node 2 with 2 burnt
        # edges where E + 1 = 1
        g = complete(3)
        parts = [fs(1), fs(2), fs(3)]
        with pytest.raises(FlagError):
            _realigned_arcs(g, parts, {(0, 1), (1, 2), (2, 0)}, 0)


class TestSign:
    def test_independent_of_rest_order(self, graph_corpus):
        for g in corpus_and_families(graph_corpus):
            for uc, rec in records_of(g):
                parts = uc.parts()
                ai, aj = parts[rec.i - 1], parts[rec.j - 1]
                rest = [p for p in parts if p not in (ai, aj)]
                sign = record_sign(g, uc, rec)
                for order in (sorted(rest, key=subset_key), rest[::-1]):
                    assert sign == (_perm_parity(parts, [ai, aj] + order)
                                    * _perm_parity(rec.flag.parts(), [ai | aj] + order))
