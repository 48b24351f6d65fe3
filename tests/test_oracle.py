import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    c4,
    complete,
    corpus,
    cycle,
    grid_2x3,
    path,
    reference_leading_term,
    reference_schreyer_resolution,
    theta,
    wide_triangle,
)
from toppling.divisors import linearly_equivalent
from toppling.fields import get_field
from toppling.graphs import bfs_term_order, build_graph
from toppling.oracle import (
    NotGroebner,
    OracleError,
    SchreyerResolution,
    SimplicialComplex,
    _matrix_rank,
    brute_force_class_count,
    delta_complex,
    hochster_betti,
    minimalize,
    reduced_homology_dims,
    schreyer_resolution,
    schreyer_step,
)
from toppling.poly import division_normal_form, lift, ring_module_order
from toppling.resolution import (
    CompositionNonzero,
    _check_composition,
    betti_table,
    groebner_basis,
    initial_ideal,
)


F = get_field("prime")


def divide(elem, basis, morder):
    return division_normal_form(F, elem, basis, morder,
                                [morder.leading_term(b) for b in basis])


def c4_setup():
    g = c4()
    order = bfs_term_order(g)
    morder = ring_module_order(order)
    gb = [lift(b.poly(F)) for b in groebner_basis(g)]
    return g, order, morder, gb


class TestDivision:
    def test_monomial_in_initial_ideal(self):
        g, _, morder, _ = c4_setup()
        mono = [{(0, e): F.one} for e in initial_ideal(g)]
        _, rem = divide({(0, (0, 2, 0, 1)): F.one}, mono, morder)
        assert rem == {}

    def test_binomial_basis_gives_standard_form(self):
        # no monomial lies in the ideal itself, so the remainder is the
        # standard monomial of the same Pic class
        g, _, morder, gb = c4_setup()
        _, rem = divide({(0, (0, 2, 0, 1)): F.one}, gb, morder)
        assert rem == {(0, (3, 0, 0, 0)): F.one}
        assert linearly_equivalent(g, (0, 2, 0, 1), (3, 0, 0, 0))

    def test_standard_monomial_untouched(self):
        _, _, morder, gb = c4_setup()
        for d in (1, 2, 5):
            e = (d, 0, 0, 0)
            quots, rem = divide({(0, e): F.one}, gb, morder)
            assert rem == {(0, e): F.one}
            assert all(q == {} for q in quots)

    def test_exactness_of_quotients(self):
        # elem == sum quotient_i * basis_i + remainder
        _, _, morder, gb = c4_setup()
        elem = {(0, (1, 2, 1, 0)): F.one, (0, (0, 0, 3, 1)): F.neg(F.one)}
        quots, rem = divide(elem, gb, morder)
        acc = dict(rem)
        for q, b in zip(quots, gb):
            for eq, cq in q.items():
                for (i, eb), cb in b.items():
                    key = (i, tuple(a + x for a, x in zip(eb, eq)))
                    s = F.add(acc.get(key, F.zero), F.mul(cq, cb))
                    if F.is_zero(s):
                        acc.pop(key, None)
                    else:
                        acc[key] = s
        assert acc == elem


class TestSchreyerStep:
    def test_c4_syzygy_count(self):
        _, _, morder, gb = c4_setup()
        syz, _ = schreyer_step(F, gb, morder)
        assert len(syz) == 8

    def test_path_koszul_syzygy(self):
        g = path(3)
        morder = ring_module_order(bfs_term_order(g))
        gb = [lift(b.poly(F)) for b in groebner_basis(g)]
        syz, _ = schreyer_step(F, gb, morder)
        assert len(syz) == 1

    def test_singleton_no_syzygies(self):
        g = theta(3)
        morder = ring_module_order(bfs_term_order(g))
        gb = [lift(b.poly(F)) for b in groebner_basis(g)]
        syz, _ = schreyer_step(F, gb, morder)
        assert syz == []

    def test_syzygies_annihilate_basis(self):
        _, _, morder, gb = c4_setup()
        syz, _ = schreyer_step(F, gb, morder)
        for s in syz:
            acc = {}
            for (pos, e), c in s.items():
                for (i, eb), cb in gb[pos].items():
                    key = (i, tuple(a + x for a, x in zip(eb, e)))
                    v = F.add(acc.get(key, F.zero), F.mul(c, cb))
                    if F.is_zero(v):
                        acc.pop(key, None)
                    else:
                        acc[key] = v
            assert acc == {}

    def test_not_groebner_detected(self):
        _, _, morder, gb = c4_setup()
        with pytest.raises(NotGroebner):
            schreyer_step(F, gb[3:5], morder)


class TestChainCriterion:
    def test_pruned_generates_all_spair_syzygies(self):
        # recompute every S-pair syzygy without pruning and divide it by the
        # pruned output: remainder must vanish, so the modules agree
        from toppling.graphs import divisor_add, divisor_max, divisor_sub
        _, _, morder, gb = c4_setup()
        pruned, new_order = schreyer_step(F, gb, morder)
        leads = [morder.leading_term(b) for b in gb]
        count = 0
        for f in range(len(gb)):
            for h in range(f + 1, len(gb)):
                if leads[f][0] != leads[h][0]:
                    continue
                count += 1
                gm = divisor_max(leads[f][1], leads[h][1])
                sf = divisor_sub(gm, leads[f][1])
                sh = divisor_sub(gm, leads[h][1])
                spair = {}
                for (i, e), c in gb[f].items():
                    spair[(i, divisor_add(e, sf))] = c
                for (i, e), c in gb[h].items():
                    key = (i, divisor_add(e, sh))
                    s = F.sub(spair.get(key, F.zero), c)
                    if F.is_zero(s):
                        spair.pop(key, None)
                    else:
                        spair[key] = s
                quots, rem = division_normal_form(F, spair, gb, morder, leads)
                syz = {(f, sf): F.one, (h, sh): F.neg(F.one)}
                for pos, quot in enumerate(quots):
                    for e, c in quot.items():
                        key = (pos, e)
                        s = F.sub(syz.get(key, F.zero), c)
                        if F.is_zero(s):
                            syz.pop(key, None)
                        else:
                            syz[key] = s
                assert rem == {}
                _, srem = divide(syz, pruned, new_order)
                assert srem == {}
        assert count > len(pruned)  # the criterion actually pruned something


class TestSchreyerResolution:
    def test_c4_minimal_from_flag_order(self):
        g = c4()
        res = schreyer_resolution(g, groebner_basis(g), field=F)
        assert res.ranks() == [6, 8, 3]

    def test_shuffled_generators_minimalize(self):
        g = c4()
        polys = [b.poly(F) for b in groebner_basis(g)]
        random.Random(7).shuffle(polys)
        res = schreyer_resolution(g, polys, field=F)
        assert res.ranks() != [6, 8, 3]  # Schreyer over-counts here
        bt = minimalize(res)
        assert sorted(bt.z_graded.items()) == \
            sorted(betti_table(g).z_graded.items())

    def test_redundant_generator_cancels(self):
        g = path(3)
        gens = [b.poly(F) for b in groebner_basis(g)]
        gens.append({(0, 0, 1): F.one, (1, 0, 0): F.neg(F.one)})  # x3 - x1
        res = schreyer_resolution(g, gens, field=F)
        assert res.ranks() == [3, 2]
        assert sorted(minimalize(res).z_graded.items()) == \
            [((0, 0), 1), ((1, 1), 2), ((2, 2), 1)]

    def test_monomial_input(self):
        g = complete(3)
        gens = [{e: F.one} for e in initial_ideal(g)]
        res = schreyer_resolution(g, gens, field=F)
        assert sorted(minimalize(res).z_graded.items()) == \
            sorted(betti_table(g).z_graded.items())

    def test_rational_matches_prime(self):
        g = cycle(5)
        Q = get_field("rational")
        bt_q = minimalize(schreyer_resolution(
            g, [b.poly(Q) for b in groebner_basis(g)], field=Q))
        bt_p = minimalize(schreyer_resolution(
            g, [b.poly(F) for b in groebner_basis(g)], field=F))
        assert bt_q.z_graded == bt_p.z_graded
        assert bt_q.pic_graded == bt_p.pic_graded


def reference_graphs():
    """Every corpus graph, C6, K5 and the 2x3 grid, at every base vertex."""
    graphs = [(f"corpus{i}", build_graph(n, list(edges), 0))
              for i, (n, edges) in enumerate(corpus())]
    graphs += [("c6", cycle(6)), ("k5", complete(5)), ("grid2x3", grid_2x3())]
    return [pytest.param(replace(g, q=q), id=f"{name}-q{q}")
            for name, g in graphs for q in range(g.n)]


class TestAgainstReference:
    """The heap division over once-ranked terms and the per-row chain
    criterion against the tuple-keyed division that scans every term and
    every lead (tests/conftest.py)."""

    @pytest.mark.parametrize("g", reference_graphs())
    def test_same_resolution(self, g):
        gens = groebner_basis(g)
        for field in (F, get_field("rational")):
            got = schreyer_resolution(g, gens, field=field)
            want = reference_schreyer_resolution(g, gens, field)
            assert got.diffs == want.diffs
            assert got.picrep == want.picrep
            assert minimalize(got).pic_graded == minimalize(want).pic_graded

    @pytest.mark.parametrize("q", range(3))
    def test_exponents_above_two_to_the_21(self, q):
        # a rank field of fixed width would carry into the next field here
        g = wide_triangle(q)
        gens = groebner_basis(g)
        assert max(max(b.lead + b.trail) for b in gens) > 2**21
        morder = ring_module_order(bfs_term_order(g))
        terms = [(0, e) for e in itertools.permutations((0, 1, 2**22 + 1))]
        for pair in itertools.combinations(terms, 2):
            elem = dict.fromkeys(pair, F.one)
            assert morder.leading_term(elem) == reference_leading_term(morder, elem)
        for field in (F, get_field("rational")):
            got = schreyer_resolution(g, gens, field=field)
            want = reference_schreyer_resolution(g, gens, field)
            assert got.diffs == want.diffs
            assert got.picrep == want.picrep
            assert minimalize(got).pic_graded == betti_table(g).pic_graded


def composition_graphs():
    """Every corpus graph at base vertex 0, plus C5 and K4."""
    graphs = [pytest.param(build_graph(n, list(edges), 0), id=f"corpus{i}")
              for i, (n, edges) in enumerate(corpus())]
    return graphs + [pytest.param(cycle(5), id="c5"), pytest.param(complete(4), id="k4")]


class TestSchreyerComposition:
    """The closed form's composition check reads a Schreyer resolution as it
    is: both store each column as a free-module element."""

    @pytest.mark.parametrize("g", composition_graphs())
    def test_phi_phi_vanishes(self, g):
        res = schreyer_resolution(g, groebner_basis(g), field=F)
        _check_composition(res)

    def test_sign_flip_breaks_composition(self):
        g = c4()
        res = schreyer_resolution(g, groebner_basis(g), field=F)
        col = res.diffs[1][0]
        term = next(iter(col))
        col[term] = F.neg(col[term])
        with pytest.raises(CompositionNonzero,
                           match=r"^phi_0 \. phi_1 nonzero at column 0,"):
            _check_composition(res)


def pointed_graphs():
    """C4, C5, K4 and the first corpus graphs, at every base vertex."""
    graphs = {"c4": c4(), "c5": cycle(5), "k4": complete(4)}
    for i, (n, edges) in enumerate(corpus()[:3]):
        graphs[f"corpus{i}"] = build_graph(n, list(edges), 0)
    return [pytest.param(replace(g, q=q), id=f"{name}-q{q}")
            for name, g in graphs.items() for q in range(g.n)]


def same_tables(got, want):
    return got.z_graded == want.z_graded and got.pic_graded == want.pic_graded


class TestMinimalizeByTor:
    """Betti numbers of Schreyer resolutions whose generators are not the
    +-1 binomials, so that the constant entries are not all +-1."""

    @pytest.mark.parametrize("g", pointed_graphs())
    def test_scaled_rational_generators(self, g):
        Q = get_field("rational")
        rng = random.Random(11)
        gens = []
        for b in groebner_basis(g):
            scale = Fraction(rng.choice((2, 3, -5)))
            gens.append({e: c * scale for e, c in b.poly(Q).items()})
        rng.shuffle(gens)
        res = schreyer_resolution(g, gens, field=Q)
        assert same_tables(minimalize(res), betti_table(g))

    def test_integer_rational_generators_stay_exact(self):
        g = cycle(5)
        Q = get_field("rational")
        gens = [{e: int(c) * 3 for e, c in b.poly(Q).items()}
                for b in groebner_basis(g)]
        res = schreyer_resolution(g, gens, field=Q)
        entries = [c for cols in res.diffs for col in cols for c in col.values()]
        assert entries and not any(isinstance(c, float) for c in entries)
        assert same_tables(minimalize(res), betti_table(g))

    @pytest.mark.parametrize("g", pointed_graphs())
    def test_repeated_prime_generator(self, g):
        rng = random.Random(13)
        gens = [b.poly(F) for b in groebner_basis(g)]
        rng.shuffle(gens)
        unit = rng.randrange(2, F.p)
        gens.insert(rng.randrange(len(gens) + 1),
                    {e: F.mul(c, unit) for e, c in rng.choice(gens).items()})
        res = schreyer_resolution(g, gens, field=F)
        assert sum(res.ranks()) > sum(betti_table(g).total(i) for i in range(1, g.n))
        assert same_tables(minimalize(res), betti_table(g))

    def test_constant_entry_across_classes(self):
        # phi_2 maps a syzygy of class (0,1,1) to the generator x2^2 of
        # class (0,2,0) by a constant, so F is not graded
        g = path(3)
        res = SchreyerResolution(
            g, F,
            diffs=[[{(0, (0, 2, 0)): F.one}], [{(0, (0, 0, 0)): F.one}]],
            picrep=[[(0, 2, 0)], [(0, 1, 1)]])
        with pytest.raises(OracleError, match="joins classes"):
            minimalize(res)

    def test_negative_count(self):
        # phi_1 and phi_2 both carry the unit 1 at the trivial class, so
        # phi_1 . phi_2 != 0 and beta_1 would be 1 - 1 - 1
        g = path(2)
        unit = {(0, (0, 0)): F.one}
        res = SchreyerResolution(g, F, diffs=[[unit], [unit]],
                                 picrep=[[(0, 0)], [(0, 0)]])
        with pytest.raises(OracleError, match="beta_1 at"):
            minimalize(res)


class TestDeltaComplex:
    def test_c4_degree_two(self):
        dc = delta_complex(c4(), (0, 2, 0, 0))
        assert dc.facets == (frozenset({0, 3}), frozenset({1}), frozenset({2}))

    def test_zero_class(self):
        dc = delta_complex(c4(), (0, 0, 0, 0))
        assert dc.facets == (frozenset(),)
        assert reduced_homology_dims(dc) == {-1: 1}

    def test_ineffective_class_is_void(self):
        dc = delta_complex(c4(), (-1, 0, 0, 0))
        assert dc.facets == ()
        assert reduced_homology_dims(dc) == {}

    def test_hollow_triangle(self):
        hollow = SimplicialComplex((frozenset({0, 1}), frozenset({1, 2}),
                                    frozenset({0, 2})))
        assert reduced_homology_dims(hollow) == {-1: 0, 0: 0, 1: 1}

    def test_prime_field_agrees(self):
        dc = delta_complex(c4(), (3, 1, 0, 0))
        assert reduced_homology_dims(dc) == reduced_homology_dims(dc, F)

    def test_projective_plane_depends_on_field(self):
        # the 6-vertex RP^2: H_1 = Z/2, so its reduced homology vanishes
        # over Q and GF(3) and is one-dimensional in degrees 1 and 2 over GF(2)
        rp2 = SimplicialComplex(tuple(frozenset(int(c) - 1 for c in f) for f in
                                      "123 134 145 156 162 235 346 452 563 624".split()))
        assert reduced_homology_dims(rp2) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_homology_dims(rp2, get_field("prime:3")) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert reduced_homology_dims(rp2, get_field("prime:2")) == {-1: 0, 0: 0, 1: 1, 2: 1}


def reference_matrix_rank(mat, field):
    """The rank by Gauss-Jordan elimination through the field's own add,
    mul and inv: the generic routine the oracle used on every field."""
    if not mat or not mat[0]:
        return 0
    a = [row[:] for row in mat]
    rows, cols = len(a), len(a[0])
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if not field.is_zero(a[r][c])), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = field.inv(a[rank][c])
        for r in range(rows):
            if r != rank and not field.is_zero(a[r][c]):
                fac = field.mul(a[r][c], inv)
                a[r] = [field.sub(x, field.mul(fac, y)) for x, y in zip(a[r], a[rank])]
        rank += 1
        if rank == rows:
            break
    return rank


class TestMatrixRank:
    @pytest.mark.parametrize("name", ["prime:2", "prime:3", "prime", "rational"])
    def test_matches_generic_elimination(self, name):
        # random matrices up to 7 x 7, many of them of low rank (a product
        # through a thinner middle) and with repeated or zero rows; entries
        # are residues mod p, or Fractions over Q
        field = get_field(name)
        rng = random.Random(f"rank:{name}")
        if name == "rational":
            def entry():
                return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        else:
            def entry():
                return rng.randrange(field.p)
        ranks = set()
        for _ in range(400):
            rows, cols = rng.randint(0, 7), rng.randint(0, 7)
            if rng.random() < 0.5:
                mid = rng.randint(0, 3)
                left = [[entry() for _ in range(mid)] for _ in range(rows)]
                right = [[entry() for _ in range(cols)] for _ in range(mid)]
                mat = [[field.add(field.zero, sum(field.mul(x, y) for x, y in zip(row, col)))
                        for col in zip(*right)] if mid else [field.zero] * cols
                       for row in left]
            else:
                mat = [[entry() for _ in range(cols)] for _ in range(rows)]
            if mat and rng.random() < 0.3:
                mat.append(list(rng.choice(mat)))
            want = reference_matrix_rank(mat, field)
            assert _matrix_rank(mat, field) == want
            ranks.add(want)
        assert ranks >= set(range(8))


class TestHochster:
    def test_trivial_class(self):
        assert hochster_betti(c4(), 0, (0, 0, 0, 0)) == 1

    def test_degree_two_count(self):
        # six generators spread over the degree-2 classes
        g = c4()
        bt = betti_table(g)
        for (i, j), c in bt.pic_graded.items():
            if i == 1:
                assert hochster_betti(g, 1, j.rep) == c

    def test_top_degree_c4(self):
        g = c4()
        assert hochster_betti(g, 3, (3, 0, 1, 0)) == 1
        assert hochster_betti(g, 3, (3, 1, 0, 0)) == 1
        assert hochster_betti(g, 3, (4, 0, 0, 0)) == 1
        assert hochster_betti(g, 3, (3, 0, 0, 1)) == 0

    def test_whole_table_k3(self):
        g = complete(3)
        bt = betti_table(g)
        for (i, j), c in bt.pic_graded.items():
            assert hochster_betti(g, i, j.rep) == c


class TestBruteForce:
    def test_c4_counts(self):
        g = c4()
        assert [brute_force_class_count(g, k) for k in (1, 2, 3, 4)] == \
            [1, 6, 8, 3]

    def test_c5_counts(self):
        g = cycle(5)
        assert [brute_force_class_count(g, k) for k in (2, 3, 4, 5)] == \
            [10, 20, 15, 4]

    def test_path_counts(self):
        g = path(4)
        assert [brute_force_class_count(g, k) for k in (2, 3, 4)] == \
            [3, 3, 1]

    def test_k_out_of_range(self):
        with pytest.raises(OracleError):
            brute_force_class_count(c4(), 0)
        with pytest.raises(OracleError):
            brute_force_class_count(c4(), 5)
