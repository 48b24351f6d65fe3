import copy

import pytest

from conftest import c4, complete, cycle, path, theta
from toppling.fields import get_field
from toppling.graphs import bfs_term_order, build_graph
from toppling.poly import poly_neg
from toppling.resolution import (
    Binomial,
    betti_table,
    buchberger_check,
    build_resolution,
    format_resolution,
    groebner_basis,
    hilbert_check,
    initial_ideal,
    verify_resolution,
)


class TestGroebner:
    def test_c4_binomials(self):
        got = {(b.lead, b.trail) for b in groebner_basis(c4())}
        # x4^2-x2x3, x3^2-x1x4, x2^2-x1x4, x3x4-x1x2, x2x4-x1x3, x2x3-x1^2
        assert got == {
            ((0, 0, 0, 2), (0, 1, 1, 0)),
            ((0, 0, 2, 0), (1, 0, 0, 1)),
            ((0, 2, 0, 0), (1, 0, 0, 1)),
            ((0, 0, 1, 1), (1, 1, 0, 0)),
            ((0, 1, 0, 1), (1, 0, 1, 0)),
            ((0, 1, 1, 0), (2, 0, 0, 0)),
        }

    def test_path_linear_forms(self):
        got = {(b.lead, b.trail) for b in groebner_basis(path(3))}
        assert got == {((0, 0, 1), (0, 1, 0)), ((0, 1, 0), (1, 0, 0))}

    def test_theta_single_generator(self):
        assert [(b.lead, b.trail) for b in groebner_basis(theta(3))] == \
            [((0, 3), (3, 0))]

    def test_count_is_s2(self):
        from toppling.flags import enumerate_minimal_flags
        for g in (c4(), complete(4), cycle(5)):
            assert len(groebner_basis(g)) == \
                len(enumerate_minimal_flags(g, g.q, 2))

    def test_initial_ideal_c4(self):
        assert set(initial_ideal(c4())) == {
            (0, 0, 0, 2), (0, 0, 2, 0), (0, 2, 0, 0),
            (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0),
        }

    def test_initial_ideal_k3(self):
        assert set(initial_ideal(complete(3))) == \
            {(0, 0, 2), (0, 2, 0), (0, 1, 1)}

    def test_initial_ideal_path(self):
        assert set(initial_ideal(path(3))) == {(0, 0, 1), (0, 1, 0)}


class TestBuchberger:
    def test_full_basis_passes(self):
        g = c4()
        assert buchberger_check(groebner_basis(g), bfs_term_order(g))

    def test_dropped_element_fails(self):
        g = c4()
        gens = groebner_basis(g)[1:]
        assert not buchberger_check(gens, bfs_term_order(g))

    def test_singleton(self):
        g = theta(3)
        assert buchberger_check(groebner_basis(g), bfs_term_order(g))

    def test_rational_field_agrees(self):
        g = complete(4)
        order = bfs_term_order(g)
        gens = groebner_basis(g)
        assert buchberger_check(gens, order, get_field("rational"))


class TestBuildResolution:
    def test_q_argument_rebases(self, graph_corpus):
        for n, edges in graph_corpus:
            g0 = build_graph(n, edges, 0)
            for q in range(n):
                gq = build_graph(n, edges, q)
                assert format_resolution(build_resolution(g0, q=q)) == \
                    format_resolution(build_resolution(gq))
                assert groebner_basis(g0, q) == groebner_basis(gq)

    def test_c4_ranks(self):
        res = build_resolution(c4())
        assert res.ranks() == [6, 8, 3]

    def test_c4_degrees(self):
        res = build_resolution(c4())
        assert res.zdeg == [[2] * 6, [3] * 8, [4] * 3]

    def test_p3_koszul(self):
        # two linear forms, a complete intersection
        res = build_resolution(path(3))
        assert res.ranks() == [2, 1]
        assert res.zdeg == [[1, 1], [2]]

    def test_monomial_variant(self):
        res = build_resolution(c4(), variant="monomial")
        assert res.ranks() == [6, 8, 3]

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            build_resolution(c4(), variant="taylor")

    def test_rational_field(self):
        res = build_resolution(c4(), field=get_field("rational"))
        assert verify_resolution(res).ok


class TestVerify:
    @pytest.mark.parametrize("variant", ["binomial", "monomial"])
    def test_c4_passes(self, variant):
        res = build_resolution(c4(), variant=variant)
        rep = verify_resolution(res)
        assert rep.ok and rep.counterexamples == {}

    def test_sign_flip_breaks_composition(self):
        res = build_resolution(c4())
        bad = copy.deepcopy(res)
        col = bad.diffs[1][0]
        row = next(iter(col))
        col[row] = poly_neg(bad.field, col[row])
        rep = verify_resolution(bad)
        assert not rep.checks["composition"]

    def test_degree_check_catches_corruption(self):
        res = build_resolution(c4())
        bad = copy.deepcopy(res)
        bad.zdeg[1][0] += 1
        rep = verify_resolution(bad)
        assert not rep.checks["degrees"]


class TestBetti:
    def test_c4(self):
        assert sorted(betti_table(c4()).z_graded.items()) == \
            [((0, 0), 1), ((1, 2), 6), ((2, 3), 8), ((3, 4), 3)]

    def test_k3(self):
        assert sorted(betti_table(complete(3)).z_graded.items()) == \
            [((0, 0), 1), ((1, 2), 3), ((2, 3), 2)]

    def test_theta5(self):
        assert sorted(betti_table(theta(5)).z_graded.items()) == \
            [((0, 0), 1), ((1, 5), 1)]

    def test_c4_pic_top(self):
        bt = betti_table(c4())
        top = sorted((j.rep, c) for (i, j), c in bt.pic_graded.items() if i == 3)
        assert top == [((3, 0, 1, 0), 1), ((3, 1, 0, 0), 1), ((4, 0, 0, 0), 1)]

    def test_totals_match_ranks(self):
        g = cycle(5)
        bt = betti_table(g)
        res = build_resolution(g)
        for i, rank in enumerate(res.ranks(), start=1):
            assert bt.total(i) == rank


class TestHilbert:
    def test_c4(self):
        rep = hilbert_check(c4())
        assert rep.ok
        assert rep.lhs == [1, 0, -6, 8, -3, 0, 0]

    def test_path(self):
        assert hilbert_check(path(3)).lhs == [1, -2, 1, 0, 0]

    def test_theta3(self):
        assert hilbert_check(theta(3)).lhs == [1, 0, 0, -1, 0, 0]

    def test_t_max_too_small(self):
        with pytest.raises(ValueError):
            hilbert_check(c4(), t_max=2)


def test_format_resolution_round_numbers():
    text = format_resolution(build_resolution(c4()))
    assert "phi 0 1 6" in text
    assert "phi 1 6 8" in text
    assert "phi 2 8 3" in text
