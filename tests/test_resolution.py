import copy
import hashlib
from dataclasses import replace

import pytest

from conftest import c4, complete, cycle, path, theta
from toppling.fields import get_field
from toppling.flags import flag_divisor
from toppling.graphs import bfs_term_order, build_graph
from toppling.poly import add_into, monomial_divides
from toppling.resolution import (
    Binomial,
    CompositionNonzero,
    IdentityViolation,
    LeadingTermMismatch,
    _check_composition,
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
                len(enumerate_minimal_flags(g, 2))

    def test_initial_ideal_minimal(self, graph_corpus):
        # no generator of in(I) divides another, at every base vertex
        for n, edges in graph_corpus:
            for q in range(n):
                gens = initial_ideal(build_graph(n, edges, q))
                for a in gens:
                    for b in gens:
                        assert a == b or not monomial_divides(a, b), (a, b)

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
        # g0's cache is warm first: a rebased copy must not inherit its bases
        for n, edges in graph_corpus:
            g0 = build_graph(n, edges, 0)
            build_resolution(g0)
            for q in range(n):
                gq = build_graph(n, edges, q)
                assert format_resolution(build_resolution(replace(g0, q=q))) == \
                    format_resolution(build_resolution(gq))
                assert groebner_basis(replace(g0, q=q)) == groebner_basis(gq)

    def test_c4_ranks(self):
        res = build_resolution(c4())
        assert res.ranks() == [6, 8, 3]

    def test_c4_degrees(self):
        g = c4()
        res = build_resolution(g)
        assert [[sum(flag_divisor(g, uc)) for uc in basis] for basis in res.bases] == \
            [[2] * 6, [3] * 8, [4] * 3]

    def test_p3_koszul(self):
        # two linear forms, a complete intersection
        g = path(3)
        res = build_resolution(g)
        assert res.ranks() == [2, 1]
        assert [[sum(flag_divisor(g, uc)) for uc in basis] for basis in res.bases] == \
            [[1, 1], [2]]

    def test_monomial_variant(self):
        res = build_resolution(c4(), variant="monomial")
        assert res.ranks() == [6, 8, 3]

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            build_resolution(c4(), variant="taylor")

    def test_rational_field(self):
        res = build_resolution(c4(), field=get_field("rational"))
        assert verify_resolution(res) is None


class TestVerify:
    @pytest.mark.parametrize("variant", ["binomial", "monomial"])
    def test_c4_passes(self, variant):
        res = build_resolution(c4(), variant=variant)
        assert verify_resolution(res) is None

    def test_sign_flip_breaks_composition(self):
        res = build_resolution(c4())
        bad = copy.deepcopy(res)
        col = bad.diffs[1][0]
        term = next(iter(col))
        col[term] = bad.field.neg(col[term])
        with pytest.raises(CompositionNonzero,
                           match=r"^phi_0 \. phi_1 nonzero at column 0,"):
            _check_composition(bad)

    def test_degree_check_catches_corruption(self):
        # x2 -> 1 in a non-leading term of phi_1 column 0 leaves its lead,
        # so only the degree check sees it
        bad = copy.deepcopy(build_resolution(c4()))
        col = bad.diffs[1][0]
        col[(1, (0, 0, 0, 0))] = col.pop((1, (0, 1, 0, 0)))
        with pytest.raises(IdentityViolation,
                           match=r"^Pic-degree clash in phi_1 at \(1,0\)$"):
            verify_resolution(bad)

    def test_lead_check_catches_higher_term(self):
        # x^(9,9,9,9) at row 0 outranks the true lead of column 0 of phi_1
        bad = copy.deepcopy(build_resolution(c4()))
        col = bad.diffs[1][0]
        add_into(bad.field, col, {(0, (9, 9, 9, 9)): bad.field.one})
        with pytest.raises(LeadingTermMismatch,
                           match=r"^phi_1 column 0: lead \(0,\(9, 9, 9, 9\)\) != "):
            verify_resolution(bad)

    def test_lead_check_catches_zero_column(self):
        bad = copy.deepcopy(build_resolution(c4()))
        bad.diffs[1][0] = {}
        with pytest.raises(LeadingTermMismatch, match=r"^phi_1 column 0 is zero$"):
            verify_resolution(bad)


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
        g = c4()
        assert hilbert_check(g, betti_table(g)) == [1, 0, -6, 8, -3, 0, 0]

    def test_path(self):
        g = path(3)
        assert hilbert_check(g, betti_table(g)) == [1, -2, 1, 0, 0]

    def test_theta3(self):
        g = theta(3)
        assert hilbert_check(g, betti_table(g)) == [1, 0, 0, -1, 0, 0]

    def test_changed_count_raises(self):
        g = c4()
        bt = betti_table(g)
        key = next(k for k in bt.pic_graded if k[0] == 2)
        bt.pic_graded[key] += 1
        with pytest.raises(IdentityViolation,
                           match=r"^lhs=\[1, 0, -6, 9, -3, 0, 0\] rhs=\[1, 0, -6, 8, -3, 0, 0\]$"):
            hilbert_check(g, bt)


def test_format_resolution_round_numbers():
    text = format_resolution(build_resolution(c4()))
    assert "phi 0 1 6" in text
    assert "phi 1 6 8" in text
    assert "phi 2 8 3" in text


def grid_2x3(q):
    return build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)], q)


GOLDEN_FAMILIES = {
    "C5": lambda q: build_graph(5, [(i, (i + 1) % 5) for i in range(5)], q),
    "K5": lambda q: build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)], q),
    "grid2x3": grid_2x3,
    "banana5": lambda q: build_graph(2, [(0, 1)] * 5, q),
}

# SHA-256 of format_resolution, pinned before the merge search moved to
# reach masks: the output must not change by a byte
GOLDEN_DIGESTS = {
    ("C5", 0, "binomial"): "d7adbd8052afbc71e6b138ba3ba5e43369bcd801b0302d28ee55880002a93741",
    ("C5", 0, "monomial"): "3d7c1a1e6fc7bee5765964b69d4df3b0d98adb50cbc65d304cb4bfb62527a78a",
    ("K5", 0, "binomial"): "ecad2328727762d6fb6385c88892bd5508783cedb8e7029b536f2488f3644422",
    ("K5", 0, "monomial"): "02655f7608d41f1843ec83d2d847d6d239b69c335fa324376cb55d63536c3aeb",
    ("grid2x3", 0, "binomial"): "d3032b16ba099d51e9e64a058d025f455f073b12b6de345bb821eadb182f313b",
    ("grid2x3", 0, "monomial"): "298235790e60d1a903629d6a884000e9f4975de0734f857ce5e8c477e249b908",
    ("C5", 2, "binomial"): "9eb3152da918885b04056ba568e28fd5e4f87d505b01d364ef2e9f128dd9e875",
    ("C5", 2, "monomial"): "1a3c61bc1bfcd4b810acde763d1e710f46b46452bd6622e73cd91d977464b823",
    ("K5", 2, "binomial"): "04dde7c9faa35847064c61c09499979599f71ecd1db21e4e8c695fb0a31f85c4",
    ("K5", 2, "monomial"): "bc72f8d401cc42542302f122fe4314b5ccae6688313f0f07dfe97cff3b3de5c3",
    ("grid2x3", 2, "binomial"): "926bf9a856994940132244152f031ab6cf85f0b345af26866eb7f625f7607128",
    ("grid2x3", 2, "monomial"): "e719d7774fc5d4d0c1ec04ddabc8ac598706006f70072df81c403b6077c19abc",
    ("banana5", 0, "binomial"): "e61719c7788afa1b4d955c5aa430c3ab0ce4a878b47d3113220c6730233a6156",
    ("banana5", 0, "monomial"): "b088ba0c8e40ddfc8682e2ef0fcac0184bc4cdb8584f99bed5098059c742040a",
    ("banana5", 1, "binomial"): "a66b9638b4b4c12a8dd93350343fe4425b952346e79b9d988b8ae124240b8b64",
    ("banana5", 1, "monomial"): "8d67c3aa8f7d2cd1980496d90dcb9ba1850766f411790799391396e726acbbda",
}


@pytest.mark.parametrize("family, q, variant", sorted(GOLDEN_DIGESTS))
def test_format_resolution_golden_digest(family, q, variant):
    text = format_resolution(build_resolution(GOLDEN_FAMILIES[family](q), variant))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[family, q, variant]
