import dataclasses
import random

import pytest

from conftest import (
    c4,
    complete,
    cycle,
    grid_2x3,
    path,
    reference_linear_system,
    reference_q_reduce,
    scanned_linear_system,
    scanned_unique_source,
    theta,
    wide_triangle,
)
from toppling import divisors
from toppling.divisors import (
    DivisorError,
    NegativeOffQ,
    acyclic_orientations_unique_source,
    burn_order,
    dhar_burn,
    fire_set,
    hilbert_function,
    is_q_reduced,
    laplacian_of,
    linear_system,
    linearly_equivalent,
    maximal_reduced_divisors,
    pic_class,
    q_reduce,
    spanning_tree_count,
)
from toppling.flags import enumerate_minimal_flags, flag_divisor
from toppling.graphs import BadVertex, build_graph
from toppling.resolution import betti_table


class TestLaplacian:
    def test_indicator(self):
        assert laplacian_of(c4(), (1, 0, 0, 0)) == (2, -1, -1, 0)

    def test_constant(self):
        assert laplacian_of(c4(), (5, 5, 5, 5)) == (0, 0, 0, 0)

    def test_theta(self):
        assert laplacian_of(theta(3), (0, 1)) == (-3, 3)

    def test_degree_zero(self):
        g = complete(4)
        for f in [(1, 2, 3, 4), (0, -1, 0, 7)]:
            assert sum(laplacian_of(g, f)) == 0


class TestDhar:
    def test_single_chip_burns(self):
        assert dhar_burn(c4(), 0, (0, 1, 0, 0)) == frozenset()

    def test_two_chips_survive(self):
        assert dhar_burn(c4(), 0, (0, 2, 0, 0)) == frozenset({1})

    def test_zero_divisor(self):
        assert dhar_burn(c4(), 0, (0, 0, 0, 0)) == frozenset()

    def test_negative_off_q(self):
        with pytest.raises(NegativeOffQ):
            dhar_burn(c4(), 0, (0, -1, 0, 0))

    def test_is_reduced(self):
        g = c4()
        assert is_q_reduced(g, 0, (0, 1, 0, 0))
        assert not is_q_reduced(g, 0, (0, 2, 0, 0))
        assert not is_q_reduced(g, 0, (0, -1, 0, 0))


class TestQReduce:
    def test_fire_single_vertex(self):
        # firing {2} sends chips along 2-1 and 2-4
        assert q_reduce(c4(), 0, (0, 2, 0, 0)) == (1, 0, 0, 1)

    def test_fire_other_vertex(self):
        assert q_reduce(c4(), 0, (0, 0, 2, 0)) == (1, 0, 0, 1)

    def test_zero(self):
        assert q_reduce(c4(), 0, (0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_idempotent(self):
        g = cycle(5)
        for d in [(0, 3, 0, 0, 2), (-2, 1, 4, 0, 0), (7, 0, 0, 0, 0)]:
            r = q_reduce(g, 0, d)
            assert q_reduce(g, 0, r) == r

    def test_negative_off_q_allowed(self):
        g = c4()
        d = (0, -3, 1, 0)
        r = q_reduce(g, 0, d)
        assert is_q_reduced(g, 0, r)
        assert sum(r) == sum(d)

    def test_equivalence_preserved(self):
        g = complete(4)
        d = (1, 2, 0, 3)
        r = q_reduce(g, 0, d)
        assert linearly_equivalent(g, d, r)


class TestEquivalence:
    def test_known_pair(self):
        assert linearly_equivalent(c4(), (0, 2, 0, 0), (1, 0, 0, 1))

    def test_inequivalent_singletons(self):
        assert not linearly_equivalent(c4(), (0, 1, 0, 0), (0, 0, 1, 0))

    def test_reflexive(self):
        assert linearly_equivalent(c4(), (3, 1, 0, 2), (3, 1, 0, 2))

    def test_degree_mismatch(self):
        assert not linearly_equivalent(c4(), (1, 0, 0, 0), (1, 1, 0, 0))

    def test_pic_class_keys(self):
        g = c4()
        assert pic_class(g, (0, 2, 0, 0)).rep == (1, 0, 0, 1)
        assert pic_class(g, (0, 0, 0, 0)).rep == (0, 0, 0, 0)
        f = (2, 0, 1, 0)
        shifted = tuple(a + b for a, b in zip((0, 2, 0, 0), laplacian_of(g, f)))
        assert pic_class(g, shifted) == pic_class(g, (0, 2, 0, 0))


class TestSpanningTrees:
    def test_c4(self):
        assert spanning_tree_count(c4()) == 4

    def test_k3(self):
        assert spanning_tree_count(complete(3)) == 3

    def test_tree(self):
        assert spanning_tree_count(path(5)) == 1

    def test_cayley(self):
        assert spanning_tree_count(complete(5)) == 5 ** 3

    def test_pic0_cardinality(self):
        # off-q parts of q-reduced divisors biject with Pic^0
        from toppling.divisors import effective_reduced_off_q
        for g in (c4(), complete(3), cycle(5), theta(4)):
            assert len(effective_reduced_off_q(g, g.q)) == spanning_tree_count(g)


class TestLinearSystem:
    def test_zero(self):
        assert linear_system(c4(), (0, 0, 0, 0)) == [(0, 0, 0, 0)]

    def test_rigid_single_chip(self):
        assert linear_system(c4(), (0, 1, 0, 0)) == [(0, 1, 0, 0)]

    def test_degree_two(self):
        got = linear_system(c4(), (0, 2, 0, 0))
        assert got == [(0, 0, 2, 0), (0, 2, 0, 0), (1, 0, 0, 1)]

    def test_negative_degree(self):
        assert linear_system(c4(), (-1, 0, 0, 0)) == []


def _at_every_base(graphs):
    return [dataclasses.replace(g, q=q) for g in graphs for q in range(g.n)]


class TestAgainstReferences:
    """The in-place reduction and the set-firing walk against the one-fire-
    per-round reduction and the scan over every composition."""

    def test_fire_set_subtracts_laplacian(self):
        rng = random.Random(11)
        for g in (c4(), complete(5), theta(3), cycle(6)):
            for _ in range(20):
                d = tuple(rng.randint(-9, 9) for _ in range(g.n))
                members = {v for v in range(g.n) if rng.random() < 0.5}
                times = rng.randint(0, 4)
                chi = tuple(int(v in members) for v in range(g.n))
                want = tuple(a - times * x for a, x in zip(d, laplacian_of(g, chi)))
                assert fire_set(g, d, members, times) == want

    def test_q_reduce_matches_reference(self, graph_corpus):
        rng = random.Random(12)
        graphs = [build_graph(n, edges, q) for n, edges in graph_corpus for q in range(n)]
        graphs += _at_every_base([cycle(5), complete(4), complete(5), theta(3)])
        for g in graphs:
            for _ in range(6):
                d = tuple(rng.randint(-100, 100) for _ in range(g.n))
                q = rng.randrange(g.n)
                assert q_reduce(g, q, d) == reference_q_reduce(g, q, d)

    def test_linear_system_matches_scan(self, graph_corpus):
        rng = random.Random(13)
        graphs = [build_graph(n, edges, q)
                  for n, edges in graph_corpus if n <= 5 for q in range(n)]
        graphs += _at_every_base([cycle(5), complete(4), complete(5), theta(3)])
        negative = not_effective = 0
        for g in graphs:
            for _ in range(3):
                d = tuple(rng.randint(-3, 4) for _ in range(g.n))
                while sum(d) > 8:
                    d = tuple(rng.randint(-3, 4) for _ in range(g.n))
                got = linear_system(g, d)
                assert got == scanned_linear_system(g, d)
                negative += sum(d) < 0
                not_effective += sum(d) >= 0 and not got
        assert negative and not_effective

    def test_linear_system_matches_bfs_reference(self, graph_corpus):
        # firings pre-checked against the chips they take, against the
        # search that adds every move and keeps the effective sums
        rng = random.Random(14)
        graphs = [build_graph(n, edges, q) for n, edges in graph_corpus for q in range(n)]
        for g in graphs:
            for _ in range(3):
                d = tuple(rng.randint(-2, 4) for _ in range(g.n))
                while sum(d) > 10:
                    d = tuple(rng.randint(-2, 4) for _ in range(g.n))
                assert linear_system(g, d) == reference_linear_system(g, d)
        sizes = []
        for g in (complete(5), cycle(6), wide_triangle()):
            for i, cls in betti_table(g).pic_graded:
                if i == g.n - 1:
                    got = linear_system(g, cls.rep)
                    assert got == reference_linear_system(g, cls.rep)
                    sizes.append(len(got))
        assert max(sizes) > 1

    def test_degree_zero_not_effective(self):
        assert linear_system(c4(), (-1, 1, 0, 0)) == []

    def test_multi_fire_rounds_do_not_grow_with_chips(self, monkeypatch):
        # -5L at q and L elsewhere on C6 reduces to 0; one firing round per
        # chip would need about L rounds.  Each round lights one fire.
        real = divisors._burn
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(divisors, "_burn", counting)
        counts = []
        for chips in (10, 10 ** 3, 10 ** 9):
            calls.clear()
            assert q_reduce(cycle(6), 0, (-5 * chips,) + (chips,) * 5) == (0,) * 6
            counts.append(len(calls))
        assert 0 < counts[0] == counts[1] == counts[2]

    def test_q_reduce_matches_reference_on_flag_divisors(self, graph_corpus):
        # the divisors betti_table reduces: D(U) for every U in every S_k
        graphs = [build_graph(n, edges, q) for n, edges in graph_corpus for q in range(n)]
        graphs += _at_every_base([cycle(6), complete(5), grid_2x3()])
        for g in graphs:
            for k in range(2, g.n + 1):
                for uc in enumerate_minimal_flags(g, k):
                    d = flag_divisor(g, uc)
                    assert q_reduce(g, g.q, d) == reference_q_reduce(g, g.q, d)


class TestBadInput:
    """The functions that take q check it, every function that takes a
    divisor checks its length, and fire_set checks its vertices."""

    BURNS = [q_reduce, burn_order, dhar_burn, is_q_reduced]

    @pytest.mark.parametrize("fn", BURNS)
    @pytest.mark.parametrize("q", [-1, 4])
    def test_q_out_of_range(self, fn, q):
        with pytest.raises(DivisorError, match=f"q={q} out of range for n=4"):
            fn(c4(), q, (0, 2, 0, 0))

    @pytest.mark.parametrize("fn", BURNS)
    @pytest.mark.parametrize("d", [(0, 2, 0, 0, 5), (0, 2, 0)])
    def test_wrong_length(self, fn, d):
        with pytest.raises(DivisorError, match=f"divisor has {len(d)} entries"):
            fn(c4(), 0, d)

    @pytest.mark.parametrize("d1, d2", [((1,), (0, 0, 0, 0)), ((0,), (0, 0, 0, 0)),
                                        ((0, 0, 0, 0), (0, 0, 0, 0, 1))])
    def test_linearly_equivalent_wrong_length(self, d1, d2):
        # checked before the degree comparison, whatever the degrees
        bad = d1 if len(d1) != 4 else d2
        with pytest.raises(DivisorError, match=f"divisor has {len(bad)} entries"):
            linearly_equivalent(c4(), d1, d2)

    @pytest.mark.parametrize("d", [(-1, 0, 0), (0, 0, 0), (1, 0, 0, 0, 0)])
    def test_linear_system_wrong_length(self, d):
        # checked before the negative-degree shortcut
        with pytest.raises(DivisorError, match=f"divisor has {len(d)} entries"):
            linear_system(c4(), d)

    @pytest.mark.parametrize("v", [-1, 3, 5])
    def test_fire_set_vertex_out_of_range(self, v):
        # -1 would index vertex 3 of K3 from the end
        with pytest.raises(BadVertex, match=f"vertex {v + 1} is not in the graph"):
            fire_set(complete(3), (0, 0, 0), [v])

    @pytest.mark.parametrize("d", [(0, 0), (0, 0, 0, 0)])
    def test_fire_set_wrong_length(self, d):
        with pytest.raises(DivisorError, match=f"divisor has {len(d)} entries"):
            fire_set(complete(3), d, [0])

    @pytest.mark.parametrize("f", [(1, 0), (1, 0, 0, 0, 0)])
    def test_laplacian_wrong_length(self, f):
        with pytest.raises(DivisorError, match=f"divisor has {len(f)} entries"):
            laplacian_of(c4(), f)


class TestOrientationCorrespondence:
    def test_c4_count(self):
        assert len(acyclic_orientations_unique_source(c4())) == 3

    def test_path_unique(self):
        assert len(acyclic_orientations_unique_source(path(3))) == 1

    def test_k3_count(self):
        assert len(acyclic_orientations_unique_source(complete(3))) == 2

    def test_equals_scan(self, graph_corpus):
        graphs = [build_graph(n, edges, q)
                  for n, edges in graph_corpus for q in range(n)]
        for g in graphs + [complete(5), cycle(6), grid_2x3(), complete(1)]:
            got = acyclic_orientations_unique_source(g)
            assert len(set(got)) == len(got)
            assert set(got) == set(scanned_unique_source(g))

    def test_maximal_reduced_c4(self):
        got = sorted(maximal_reduced_divisors(c4()))
        assert got == [(-1, 0, 0, 1), (-1, 0, 1, 0), (-1, 1, 0, 0)]

    def test_maximal_reduced_path(self):
        assert maximal_reduced_divisors(path(3)) == [(-1, 0, 0)]

    def test_counts_agree(self):
        for g in (c4(), complete(4), cycle(5), theta(4)):
            assert len(maximal_reduced_divisors(g)) == \
                len(acyclic_orientations_unique_source(g))

    def test_genus_sum(self):
        # off-q coordinates of each maximal reduced divisor sum to m - n + 1
        for g in (c4(), complete(4), theta(5)):
            genus = g.m - g.n + 1
            for e in maximal_reduced_divisors(g):
                assert sum(e) + 1 == genus
                assert e[g.q] == -1
                shifted = tuple(0 if v == g.q else e[v] for v in range(g.n))
                assert is_q_reduced(g, g.q, shifted)


def test_hilbert_function_c4():
    assert hilbert_function(c4(), 5) == [1, 4, 4, 4, 4, 4]


def test_hilbert_function_theta3():
    assert hilbert_function(theta(3), 5) == [1, 2, 3, 3, 3, 3]
