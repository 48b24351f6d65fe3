import itertools
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from conftest import per_flag_pic_table, random_connected_multigraph
from toppling.divisors import (
    burn_order,
    dhar_burn,
    is_q_reduced,
    laplacian_of,
    linearly_equivalent,
    q_reduce,
)
from toppling.fields import get_field
from toppling.flags import (
    enumerate_minimal_flags,
    merge_records,
    record_sign,
    record_theta,
)
from toppling.graphs import bfs_term_order, build_graph
from toppling.oracle import brute_force_class_count
from toppling.poly import (
    monomial_divides,
    poly_add,
    poly_division,
    poly_mul,
    poly_sub,
)
from toppling.resolution import betti_table, groebner_basis


def graph_from_seed(seed, n_max=5, m_max=8):
    rng = random.Random(seed)
    n, edges = random_connected_multigraph(rng, n_max=n_max, m_max=m_max)
    return build_graph(n, edges, rng.randrange(n))


graphs = st.integers(min_value=0, max_value=10 ** 6).map(graph_from_seed)
graphs6 = st.integers(min_value=0, max_value=10 ** 6).map(
    lambda seed: graph_from_seed(seed, n_max=6, m_max=10))
coeffs = st.integers(min_value=-6, max_value=9)


@st.composite
def graph_and_divisor(draw):
    g = draw(graphs)
    d = tuple(draw(coeffs) for _ in range(g.n))
    return g, d


@st.composite
def graph_and_firing(draw):
    g = draw(graphs)
    d = tuple(draw(coeffs) for _ in range(g.n))
    f = tuple(draw(coeffs) for _ in range(g.n))
    return g, d, f


class TestReduction:
    @given(graph_and_divisor())
    def test_result_is_reduced(self, gd):
        g, d = gd
        assert is_q_reduced(g, g.q, q_reduce(g, g.q, d))

    @given(graph_and_divisor())
    def test_idempotent(self, gd):
        g, d = gd
        r = q_reduce(g, g.q, d)
        assert q_reduce(g, g.q, r) == r

    @given(graph_and_firing())
    def test_translate_invariant(self, gdf):
        g, d, f = gdf
        shifted = tuple(a + b for a, b in zip(d, laplacian_of(g, f)))
        assert q_reduce(g, g.q, shifted) == q_reduce(g, g.q, d)

    @given(graph_and_divisor())
    def test_equivalent_to_input(self, gd):
        g, d = gd
        assert linearly_equivalent(g, d, q_reduce(g, g.q, d))


@st.composite
def graph_and_effective_off_q(draw):
    g = draw(graphs)
    d = tuple(draw(coeffs if v == g.q else st.integers(0, 9)) for v in range(g.n))
    return g, d


def largest_legal_set(g, d):
    """The fire's fixpoint: the largest set off q that can fire without
    sending a member negative (a union of such sets is one)."""
    off_q = [v for v in range(g.n) if v != g.q]
    legal = frozenset()
    for r in range(1, len(off_q) + 1):
        for s in itertools.combinations(off_q, r):
            if all(d[v] >= sum(g.mult[v][w] for w in range(g.n) if w not in s)
                   for v in s):
                legal |= frozenset(s)
    return legal


class TestDharFire:
    @given(graph_and_effective_off_q())
    def test_unburnt_is_largest_legal_set(self, gd):
        g, d = gd
        legal = largest_legal_set(g, d)
        assert dhar_burn(g, g.q, d) == legal
        order = burn_order(g, g.q, d)
        assert order[0] == g.q
        assert len(set(order)) == len(order)
        assert set(order) == set(range(g.n)) - legal

    @given(graph_and_effective_off_q())
    def test_burn_order_is_a_dhar_order(self, gd):
        # every vertex after q could catch fire from the ones listed before
        # it, and the ones never listed are exactly the legal set
        g, d = gd
        order = burn_order(g, g.q, d)
        assert order[0] == g.q
        for i in range(1, len(order)):
            v = order[i]
            assert sum(g.mult[v][w] for w in order[:i]) > d[v]
        assert set(range(g.n)) - set(order) == largest_legal_set(g, d)


def exps(draw, n, mk):
    return tuple(draw(mk) for _ in range(n))


@st.composite
def graph_and_exponents(draw, count=3):
    g = draw(graphs)
    mk = st.integers(min_value=0, max_value=4)
    return g, [exps(draw, g.n, mk) for _ in range(count)]


class TestTermOrder:
    @given(graph_and_exponents(count=2))
    def test_total(self, ge):
        g, (a, b) = ge
        order = bfs_term_order(g)
        assert (a == b) or order.greater(a, b) or order.greater(b, a)
        assert not (order.greater(a, b) and order.greater(b, a))

    @given(graph_and_exponents(count=3))
    def test_transitive(self, ge):
        g, (a, b, c) = ge
        order = bfs_term_order(g)
        if order.greater(a, b) and order.greater(b, c):
            assert order.greater(a, c)

    @given(graph_and_exponents(count=3))
    def test_multiplicative(self, ge):
        g, (a, b, c) = ge
        order = bfs_term_order(g)
        if order.greater(a, b):
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.greater(ac, bc)

    @given(graph_and_exponents(count=2))
    def test_degree_dominates(self, ge):
        g, (a, b) = ge
        order = bfs_term_order(g)
        if sum(a) > sum(b):
            assert order.greater(a, b)


class TestDivision:
    @given(graph_and_exponents(count=2), st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_standard_representation(self, ge, fseed):
        g, (a, b) = ge
        field = get_field("prime")
        order = bfs_term_order(g)
        divisors = [gen.poly(field) for gen in groebner_basis(g)]
        p = poly_sub(field, {a: field.one}, {b: field.one})
        quots, rem = poly_division(field, p, divisors, order)
        # no remainder term is divisible by any leading monomial
        leads = [max(d, key=order.monomial_key) for d in divisors]
        for e in rem:
            assert not any(monomial_divides(lm, e) for lm in leads)
        # p == sum quot_i * divisor_i + rem
        acc = dict(rem)
        for quot, d in zip(quots, divisors):
            acc = poly_add(field, acc, poly_mul(field, quot, d))
        assert not poly_sub(field, acc, p)


class TestMergeSigns:
    @given(graphs, st.integers(0, 10 ** 6))
    @settings(max_examples=30)
    def test_double_merge_cancels(self, g, pick):
        # composing two levels of signed merges annihilates every target flag
        field = get_field("prime")
        flags4 = [uc for k in range(3, g.n + 1)
                  for uc in enumerate_minimal_flags(g, k)]
        if not flags4:
            return
        uc = flags4[pick % len(flags4)]
        for reversals in (True, False):
            acc = {}
            for r1 in merge_records(g, uc):
                if not reversals and r1.from_reversal:
                    continue
                s1 = record_sign(r1)
                t1 = record_theta(g, uc, r1)
                for r2 in merge_records(g, r1.flag):
                    if not reversals and r2.from_reversal:
                        continue
                    s2 = record_sign(r2)
                    t2 = record_theta(g, r1.flag, r2)
                    coeff = field.one if s1 * s2 > 0 else field.neg(field.one)
                    term = {tuple(x + y for x, y in zip(t1, t2)): coeff}
                    acc[r2.flag] = poly_add(field,
                                            acc.get(r2.flag, {}), term)
            assert all(not p for p in acc.values())


class TestClassCounts:
    @given(graphs)
    @settings(max_examples=25)
    def test_q_independent(self, g):
        for k in range(2, g.n + 1):
            counts = {len(enumerate_minimal_flags(replace(g, q=q), k))
                      for q in range(g.n)}
            assert len(counts) == 1

    @given(graphs)
    @settings(max_examples=15)
    def test_brute_force_agrees(self, g):
        for k in range(1, g.n + 1):
            expect = 1 if k == 1 else len(enumerate_minimal_flags(g, k))
            assert brute_force_class_count(g, k) == expect


class TestBettiTable:
    @given(graphs6)
    @settings(max_examples=30, deadline=None)
    def test_pic_matches_per_flag_reduction(self, g):
        for q in range(g.n):
            h = replace(g, q=q)
            assert betti_table(h).pic_graded == per_flag_pic_table(h)
