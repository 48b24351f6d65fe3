import copy
import hashlib
from collections import Counter
from dataclasses import replace

import pytest

from conftest import (
    c4,
    complete,
    corpus,
    cycle,
    grid_2x3,
    path,
    per_flag_pic_table,
    reference_buchberger_check,
    reference_merge_differentials,
    theta,
)
from toppling import divisors, resolution
from toppling.cli import main
from toppling.fields import get_field
from toppling.divisors import q_reduce
from toppling.flags import drop_first, enumerate_minimal_flags, flag_divisor
from toppling.graphs import bfs_term_order, build_graph
from toppling.poly import add_into, monomial_divides
from toppling.resolution import (
    VARIANTS,
    Binomial,
    CompositionNonzero,
    IdentityViolation,
    LeadingTermMismatch,
    _check_composition,
    betti_table,
    buchberger_check,
    build_resolution,
    build_resolutions,
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

    @pytest.mark.parametrize("i", range(len(corpus())))
    def test_same_answer_as_reference(self, i):
        # the S-pair division of Division.spair against whole S-polynomials,
        # on the full basis and on each basis with one element dropped
        n, edges = corpus()[i]
        g = build_graph(n, list(edges), 0)
        order = bfs_term_order(g)
        gens = groebner_basis(g)
        for field in (get_field("prime"), get_field("rational")):
            assert buchberger_check(gens, order, field)
            assert reference_buchberger_check(gens, order, field)
            for drop in range(len(gens)):
                sub = gens[:drop] + gens[drop + 1:]
                assert (buchberger_check(sub, order, field)
                        == reference_buchberger_check(sub, order, field))


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


class TestSharedPass:
    """`build_resolutions` takes both complexes from one merge pass, and
    `verify_resolution` checks each distinct term's degree once over both."""

    def test_matches_separate_builds(self, graph_corpus):
        # every corpus graph at every base vertex, C6, K5, K6 and the 2x3 grid
        graphs = [build_graph(n, edges, q) for n, edges in graph_corpus for q in range(n)]
        graphs += [cycle(6), complete(5), complete(6), grid_2x3(0)]
        for g in graphs:
            binomial, monomial = build_resolutions(g)
            assert format_resolution(binomial) == \
                format_resolution(build_resolution(g, "binomial"))
            assert format_resolution(monomial) == \
                format_resolution(build_resolution(g, "monomial"))
            # every monomial term sits in its binomial column with the same
            # coefficient, phi_0 included (lead terms only)
            for bcols, mcols in zip(binomial.diffs, monomial.diffs, strict=True):
                for bcol, mcol in zip(bcols, mcols, strict=True):
                    assert all(bcol.get(term) == a for term, a in mcol.items())

    def test_degree_fault_in_monomial_only(self):
        # x4 -> 1 at row 3 of phi_1 column 0 of the monomial complex: a term
        # below the lead that the binomial column does not have, so only a
        # degree check over the union of both complexes' terms sees it
        binomial, monomial = build_resolutions(c4())
        bad = copy.deepcopy(monomial)
        col = bad.diffs[1][0]
        col[(3, (0, 0, 0, 0))] = col.pop((3, (0, 0, 0, 1)))
        assert (3, (0, 0, 0, 0)) not in binomial.diffs[1][0]
        with pytest.raises(IdentityViolation,
                           match=r"^Pic-degree clash in phi_1 at \(3,0\)$"):
            verify_resolution(binomial, bad)

    def test_lead_fault_in_monomial_only(self):
        binomial, monomial = build_resolutions(c4())
        bad = copy.deepcopy(monomial)
        add_into(bad.field, bad.diffs[1][0], {(0, (9, 9, 9, 9)): bad.field.one})
        with pytest.raises(LeadingTermMismatch,
                           match=r"^phi_1 column 0: lead \(0,\(9, 9, 9, 9\)\) != "):
            verify_resolution(binomial, bad)

    def test_sign_fault_in_monomial_only(self, monkeypatch):
        # the monomial complex gets one sign flipped just before its own
        # composition check, after the binomial one has passed its check
        real = resolution._check_composition
        checked = []

        def flip_monomial(res):
            monomial = all(len(col) == 1 for col in res.diffs[0])
            if monomial:
                col = res.diffs[1][0]
                term = next(iter(col))
                col[term] = res.field.neg(col[term])
            checked.append(monomial)
            real(res)
        monkeypatch.setattr(resolution, "_check_composition", flip_monomial)
        with pytest.raises(CompositionNonzero, match=r"^phi_0 \. phi_1 nonzero at column 0,"):
            build_resolutions(c4())
        assert checked == [False, True]

    def test_graphs_must_agree(self):
        with pytest.raises(ValueError, match="different graphs"):
            verify_resolution(build_resolution(c4()), build_resolution(complete(4)))


@pytest.mark.parametrize("name", ["prime", "rational"])
def test_columns_match_record_reference(graph_corpus, name):
    # every corpus graph at every base vertex, C6, K5, K6 and the 2x3 grid:
    # the columns of both variants equal those summed from the public merge
    # records, record_theta and record_sign
    field = get_field(name)
    graphs = [build_graph(n, edges, q) for n, edges in graph_corpus for q in range(n)]
    for g in [*graphs, cycle(6), complete(5), complete(6), grid_2x3()]:
        built = build_resolutions(g, field)
        want = reference_merge_differentials(g, field, built[0].bases, VARIANTS)
        assert [res.diffs[1:] for res in built] == want


class TestLargeExponents:
    """A triangle with multiplicities 2^21, 3 and 2^21 + 5: phi_0 has the
    exponent 2^22 + 5, beyond any packing of exponents in 22-bit fields."""

    @staticmethod
    def resolution(name):
        g = build_graph(3, [(0, 1, 1 << 21), (1, 2, 3), (0, 2, (1 << 21) + 5)], 0)
        return build_resolution(g, field=get_field(name))

    @pytest.mark.parametrize("name", ["prime", "rational"])
    def test_composition_check_passes(self, name):
        res = self.resolution(name)
        assert max(x for col in res.diffs[0] for _, e in col for x in e) > 1 << 22

    @pytest.mark.parametrize("name", ["prime", "rational"])
    def test_one_term_change_is_seen(self, name):
        res = self.resolution(name)
        (r, e), a = next(iter(res.diffs[1][0].items()))
        v = next(v for v in range(2) if not e[v] and e[v + 1])
        changes = [((r, e), res.field.neg(a))]      # the sign of the term
        # x^e with x_{v+1}^m moved to x_v^(m * 2^w), which fields of a fixed
        # w bits pack as x^e, by sums or by ors: any w up to 64, beyond the
        # 23 bits that sums of these exponents need
        for w in range(1, 65):
            f = list(e)
            f[v], f[v + 1] = e[v + 1] << w, 0
            changes.append(((r, tuple(f)), a))
        for term, coeff in changes:
            bad = copy.deepcopy(res)
            del bad.diffs[1][0][r, e]
            bad.diffs[1][0][term] = coeff
            with pytest.raises(CompositionNonzero, match=r"^phi_0 \. phi_1 nonzero at column 0,"):
                _check_composition(bad)


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

    def test_leaves_basis_indexes_unbuilt(self, graph_corpus):
        # the table counts flags and never looks one up by its chain
        graphs = [build_graph(n, edges, 0) for n, edges in graph_corpus]
        for g in [*graphs, complete(5), grid_2x3()]:
            betti_table(g)
            assert [enumerate_minimal_flags(g, k)._rows for k in range(1, g.n + 1)] == \
                [None] * g.n

    def test_pic_matches_per_flag_reduction(self, graph_corpus):
        # every corpus graph at every base vertex, C6, K5, K6 and the 2x3
        # grid at every base vertex
        graphs = [build_graph(n, edges, q) for n, edges in graph_corpus for q in range(n)]
        graphs += [cycle(6), complete(5), complete(6)]
        graphs += [grid_2x3(q) for q in range(6)]
        for g in graphs:
            assert betti_table(g).pic_graded == per_flag_pic_table(g)

    @pytest.mark.parametrize("n, flags", [(5, 149), (6, 1081), (7, 9365)])
    def test_one_burn_per_flag_on_complete_graphs(self, monkeypatch, n, flags):
        # on K_n firing U_2 - U_1 first leaves the q-reduced divisor, so
        # Dhar's fire runs once per flag, only to confirm it
        g = complete(n)
        assert sum(len(enumerate_minimal_flags(g, k)) for k in range(2, n + 1)) == flags
        real = divisors._burn
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(divisors, "_burn", counting)
        betti_table(g)
        assert len(calls) == flags

    def test_both_firing_starts_run(self, graph_corpus):
        # the walk fires A = U_2 - U_1 first when r_W(v) >= e(v, V - U_2) on
        # A, for r_W the reduced divisor of W = drop_first(U), and reduces
        # r_W + D(A, U_1) otherwise; both must give the class of D(U)
        graphs = [build_graph(n, edges, q) for n, edges in graph_corpus for q in range(n)]
        graphs += [theta(5), build_graph(2, [(0, 1)] * 5, 1)]
        checked = Counter()
        for g in graphs:
            for k, reps in enumerate(resolution._pic_levels(g), 2):
                for uc, rep in zip(enumerate_minimal_flags(g, k), reps, strict=True):
                    u1, u2 = uc.chain[:2]
                    r_w = q_reduce(g, g.q, flag_divisor(g, drop_first(uc)))
                    legal = all(r_w[v] >= sum(g.mult[v][w] for w in range(g.n) if w not in u2)
                                for v in u2 - u1)
                    assert rep == q_reduce(g, g.q, flag_divisor(g, uc))
                    checked[legal] += 1
        assert checked[True] and checked[False]

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


GOLDEN_FAMILIES = {
    "C5": lambda q: build_graph(5, [(i, (i + 1) % 5) for i in range(5)], q),
    "K5": lambda q: build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)], q),
    "grid2x3": grid_2x3,
    "banana5": lambda q: build_graph(2, [(0, 1)] * 5, q),
    "K6": lambda q: build_graph(6, [(i, j) for i in range(6) for j in range(i + 1, 6)], q),
    "corpus0": lambda q: build_graph(*corpus()[0], q),     # 6 vertices, doubled edges
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
    # pinned before the merge path moved to vertex masks
    ("K6", 0, "binomial"): "147e10a5d4618db310d77cacf8a64e2161b8038250e986c280db4463c1dd107e",
    ("K6", 0, "monomial"): "9411b80cc2642e916e19021405b70b241997c23c964cd18a91c39cd442aa0ae0",
    ("corpus0", 0, "binomial"): "35e33be2f64aeed944d3441f8aa7c5d548d9b916c707e1803b7bef9f29f3b842",
    ("corpus0", 0, "monomial"): "ef9efdf45e6bf9eb239f0c0116d4ac9f9713296ffc6d0286fc33e57953cc5873",
    ("corpus0", 3, "binomial"): "14ad12ea0c83aa5b17a6e27a0d465cb1e47658c1de0ef96fc70597f1d5df23bd",
    ("corpus0", 3, "monomial"): "593ea0e4631b4a41852d0730ff339a14022ff1cafa98f8c5134f27b14f92f8ef",
}


@pytest.mark.parametrize("family, q, variant", sorted(GOLDEN_DIGESTS))
def test_format_resolution_golden_digest(family, q, variant):
    text = format_resolution(build_resolution(GOLDEN_FAMILIES[family](q), variant))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[family, q, variant]


# SHA-256 of format_resolution over Q, where coefficients are Fractions
# (the GOLDEN_DIGESTS are over GF(32003)), pinned before format_resolution
# rendered each distinct single-term entry once
RATIONAL_DIGESTS = {
    ("C5", 0, "binomial"): "db01451f4f697ce0b0b2f5971dad083c53acfcdfcb8b66f12f6f5467e869aa79",
    ("C5", 0, "monomial"): "2913a20b2c5d1fe14416d67c81421a8e5c1afbb494084df0c73dffda7c349f7f",
    ("K5", 0, "binomial"): "0858aec43c7dfb5d72d28e0644c169823bedaf9a6d54d0f0a2d3eab1317587c0",
    ("K5", 0, "monomial"): "6d53eb782283a4dec84af77556867a4241e24be48b844f055da76ba1631877b3",
    ("grid2x3", 0, "binomial"): "b5a367d4a24638c62e549411f83091272f82d379473eb3f1170dbffc6662c4e5",
    ("grid2x3", 0, "monomial"): "f61163553e89490e6604105fbbee19ce1a4d2130c624c2121bb45666b94936d5",
}


@pytest.mark.parametrize("family, q, variant", sorted(RATIONAL_DIGESTS))
def test_format_resolution_rational_digest(family, q, variant):
    res = build_resolution(GOLDEN_FAMILIES[family](q), variant, field=get_field("rational"))
    text = format_resolution(res)
    assert hashlib.sha256(text.encode()).hexdigest() == RATIONAL_DIGESTS[family, q, variant]


def graph_text(g):
    """g in the CLI's text format."""
    lines = [f"v {g.n}", f"q {g.q + 1}"]
    lines += [f"e {u + 1} {v + 1} {g.mult[u][v]}" for u, v in g.adjacent_pairs()]
    return "\n".join(lines) + "\n"


def cli_digest(tmp_path, capsys, g, *argv):
    path = tmp_path / "g.txt"
    path.write_text(graph_text(g))
    assert main([argv[0], "--graph", str(path), *argv[1:]]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


# SHA-256 of `flags --k K` (one per K = 1..n) and of `betti --grading Pic`,
# pinned before S_k moved to vertex masks: the S_k order and the printed
# Pic representatives must not change by a byte
FLAGS_DIGESTS = {
    ("C5", 0): (
        "589d6335533a8a92420cb1e0302aba4234fbc5c39f4881fc630db1f782aecba8",
        "4c4cefa74a8678f819976bd86d3af70e9976cf63e7ff2a93f2334a6203e61579",
        "71f77722c60bb40b6444b4814adf729b52494d2a9ad766634eeedc5704b12982",
        "ce51f9c5ed5cfe568441471a22453979d3d53e16ad46e5493d40af494fc3e6aa",
        "040c23cdf519f4efb21b25472c16f9bbdcd13cb502a0bad189a85552ce4f729e",
    ),
    ("C5", 2): (
        "589d6335533a8a92420cb1e0302aba4234fbc5c39f4881fc630db1f782aecba8",
        "cfa08b8c171bee554fd353f8a76aac0f38332d76fb341372e6a1413a64e8c51e",
        "cf1b318c9e24f54ab4ce4d7281547cfc86e004c46f8ab1ba73d2888cbec992a7",
        "8774dbd3ed125eb9d1c10e6d347c687ce8d08845f6201d8caa47b48f71693efe",
        "0516e9576204b11c3af4291ffabfb142ec93198de47ad9b73e24cb026927b196",
    ),
    ("K5", 0): (
        "589d6335533a8a92420cb1e0302aba4234fbc5c39f4881fc630db1f782aecba8",
        "c8c9874bf80fe44344926d31fc4cac236caec08acf82557cbfca775ecba295d8",
        "0afa804a8275bf7b85a0f8a79ce2f0c59e3084d7fb7fc3dc98a3fdb61f59bae2",
        "6ebd8b47bf481ab7fd412e35fbabeb77015feb005fa7c781edaa4734c5d7de95",
        "5d9f2b6bb542f5fbe798b3b7d06c30ee81f6df7c0bca9f848e01b4f05682fcc1",
    ),
    ("K5", 2): (
        "589d6335533a8a92420cb1e0302aba4234fbc5c39f4881fc630db1f782aecba8",
        "29340cccafef00a57d41f98b86fd742d81daf21d789893914103d7c7f856ead2",
        "72ac76963fc051cb496b145906eabce28817b059b05a64056065b57cc1be15a0",
        "b3da7c9f1f20b1e1d828724c92a7935cd6104d2bef13b91af04f27bc020d3c7f",
        "ee32729b72f6ac1523e72c764d8410c31ce8d661305677cbc87bb48b5b355733",
    ),
    ("banana5", 0): (
        "3eb11568c560605098293e16b8069fcdc8ea86f097cb111e2ceabcf5f9dd2e65",
        "fdd346bb6dbb5884b88d37c65fe288171b0f22c91b81b61fffc0f420a932ca86",
    ),
    ("banana5", 1): (
        "3eb11568c560605098293e16b8069fcdc8ea86f097cb111e2ceabcf5f9dd2e65",
        "a70c0149d3541737dfe64664fb4c6f203bcb11fa89333d85f62361c295de871a",
    ),
    ("grid2x3", 0): (
        "dd365c84cc3457e690a58bf2065071155d3abb70c3b4ebb10747be09f6172c2f",
        "e2d3a16c15ee6e77a45a030c93a1a4025fc20cdb453bd832763f50e0957a6532",
        "0da0aede4b6393add6bbb8b2c0be1db82b5c809ae5fda8c18d21c7815ca2f1ac",
        "048df0f28fa1397b658f6f63fc7a7058469260278cb5142e43c0cd9e24367de4",
        "828e2fb815e49b58b42edcbf1c85f4333cc81be0ffd15b7cb49c3b6d4e0e77c0",
        "535cb473c1771eb6b86bc941ce01488602321ac01943f59ee3b2a49775099719",
    ),
    ("grid2x3", 2): (
        "dd365c84cc3457e690a58bf2065071155d3abb70c3b4ebb10747be09f6172c2f",
        "6ac1090c470d7ce74aa6794c36f6d55950330c3a96d07d5ffebf81208fc7af6a",
        "837ceb01b698955319c1ba7b63d5431b10537bf5506e765c3258729cd28298e8",
        "b4dccb67d243fae55460b88343f6c3e467011e26380cc09ea6f286f0c4897d0c",
        "91eeaaef39a23ae4f9f637695fedefd568b44237eebc5f88e385d7bd2b9daf7c",
        "b183bba7ce3dde6fab0b8d9be3f18cc820c0a252dd3f28e0f1f3ca3d9b65d5ea",
    ),
}
PIC_DIGESTS = {
    ("C5", 0): "5cf70e397cf4564e00ee6d29884ba782177f6b41a627d61a9e368b300ea767d3",
    ("C5", 2): "706a1b8ea2316395ad89698366b69ce56ea45fa610c2345e3f4b89962c284761",
    ("K5", 0): "f8a8f9d71a8c884b1dbb3df6ceadb5bf5052337901ea46c6e6a09d0a5ac641fa",
    ("K5", 2): "25b34f210bc950d4e66694655585a52388bd2b4622dcfd06efdc29b542257d12",
    ("banana5", 0): "3063f9567d5a175e4f0ec61226c46db18f095f82c6aacc77d8d7a804e60fd08c",
    ("banana5", 1): "4a9cf4afd9bc815e4894cc8f07876f2a40dd0128fdaec2e0a838f45ecb4ac52e",
    ("grid2x3", 0): "2ff29280cafcacf263c47f456b4bbaf5f6548404e157e0d54654242e092eee0d",
    ("grid2x3", 2): "d8910807480601a8e8d251923a092e9307c45f4a223fd4bb6321cf2099684dbe",
}


@pytest.mark.parametrize("family, q, k", sorted(
    (family, q, k) for (family, q), digests in FLAGS_DIGESTS.items()
    for k in range(1, len(digests) + 1)))
def test_flags_golden_digest(tmp_path, capsys, family, q, k):
    got = cli_digest(tmp_path, capsys, GOLDEN_FAMILIES[family](q), "flags", "--k", str(k))
    assert got == FLAGS_DIGESTS[family, q][k - 1]


@pytest.mark.parametrize("family, q", sorted(PIC_DIGESTS))
def test_betti_pic_golden_digest(tmp_path, capsys, family, q):
    got = cli_digest(tmp_path, capsys, GOLDEN_FAMILIES[family](q), "betti", "--grading", "Pic")
    assert got == PIC_DIGESTS[family, q]
