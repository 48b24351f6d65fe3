import pytest

from conftest import (
    bfs_connected,
    c4,
    complete,
    cycle,
    digraph_is_acyclic,
    path,
    reference_boundary_divisor,
    theta,
)
from toppling.graphs import (
    BadVertex,
    Disconnected,
    EmptyGraph,
    EmptySet,
    LoopEdge,
    Overlap,
    _boundary,
    bfs_term_order,
    boundary_divisor,
    build_graph,
    induced_connected,
    total_orientations,
)


def g5():
    # 5-vertex graph: edges 1-2, 1-3, 2-4, 3-4, 3-5, 4-5
    return build_graph(5, [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 0)


class TestBuildGraph:
    def test_c4(self):
        g = c4()
        assert g.n == 4 and g.m == 4 and g.q == 0
        assert g.mult[0][1] == 1 and g.mult[0][3] == 0

    def test_theta_multiplicity(self):
        g = theta(3)
        assert g.m == 3
        assert g.mult[0][1] == 3

    def test_triple_edge_syntax(self):
        g = build_graph(2, [(0, 1, 3)], 0)
        assert g.m == 3

    def test_disconnected(self):
        with pytest.raises(Disconnected):
            build_graph(3, [(0, 1)], 0)

    def test_loop(self):
        with pytest.raises(LoopEdge):
            build_graph(2, [(0, 0), (0, 1)], 0)

    def test_bad_vertex(self):
        with pytest.raises(BadVertex):
            build_graph(2, [(0, 5)], 0)
        with pytest.raises(BadVertex):
            build_graph(2, [(0, 1)], 7)

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            build_graph(0, [], 0)


class TestConnectivity:
    def test_edge_pair(self):
        assert induced_connected(c4(), {0, 1})

    def test_nonadjacent_pair(self):
        # 2 and 3 are not adjacent in the cycle 1-2-4-3
        assert not induced_connected(c4(), {1, 2})

    def test_singleton(self):
        assert induced_connected(c4(), {2})

    def test_whole_graph(self):
        assert induced_connected(g5(), range(5))

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            induced_connected(c4(), set())

    def test_flood_fill_matches_bfs(self, graph_corpus):
        # every nonempty vertex subset of every corpus graph, asked twice so
        # the memoised answer is checked as well
        checked = 0
        for n, edges in graph_corpus:
            g = build_graph(n, edges, 0)
            for _ in range(2):
                for m in range(1, 1 << n):
                    s = {v for v in range(n) if m >> v & 1}
                    assert induced_connected(g, s) == bfs_connected(g, s), (n, edges, s)
                    checked += 1
        assert checked > 1000


class TestBoundaryDivisor:
    def test_g5_last_part(self):
        assert boundary_divisor(g5(), {4}, {0, 1, 2, 3}) == (0, 0, 0, 0, 2)

    def test_g5_first_part(self):
        assert boundary_divisor(g5(), {1}, {0}) == (0, 1, 0, 0, 0)

    def test_no_edges(self):
        assert boundary_divisor(c4(), {1}, {2}) == (0, 0, 0, 0)

    def test_overlap(self):
        with pytest.raises(Overlap):
            boundary_divisor(c4(), {0, 1}, {1, 2})

    def test_vertex_outside_graph(self):
        # named 1-based, on either side
        with pytest.raises(BadVertex, match="vertex 5 "):
            boundary_divisor(c4(), {0}, {1, 4})
        with pytest.raises(BadVertex, match="vertex 0 "):
            boundary_divisor(c4(), {-1}, {1})

    def test_symmetric_count(self):
        g = c4()
        assert sum(boundary_divisor(g, {0}, {1, 2, 3})) == 2
        assert sum(boundary_divisor(g, {1, 2, 3}, {0})) == 2

    def test_theta_count(self):
        assert sum(boundary_divisor(theta(3), {0}, {1})) == 3

    def test_masks_match_set_reference(self, graph_corpus):
        # every pair of disjoint non-empty vertex sets of K5, C6 and corpus
        # graph 0, whose doubled edges exercise the multiplicities
        doubled = build_graph(*graph_corpus[0], 0)
        assert max(max(row) for row in doubled.mult) > 1
        checked = 0
        for g in (complete(5), cycle(6), doubled):
            full = (1 << g.n) - 1
            for a in range(1, full + 1):
                rest = b = full ^ a
                while b:
                    sa = {v for v in range(g.n) if a >> v & 1}
                    sb = {v for v in range(g.n) if b >> v & 1}
                    want = reference_boundary_divisor(g, sa, sb)
                    assert _boundary(g, a, b) == boundary_divisor(g, sa, sb) == want
                    checked += 1
                    b = (b - 1) & rest
        assert checked == 3 ** 5 - 2 ** 6 + 1 + 2 * (3 ** 6 - 2 ** 7 + 1)


class TestTermOrder:
    def test_c4_priority(self):
        # distances from q: 0, 1, 1, 2
        assert bfs_term_order(c4()).priority == (0, 1, 2, 3)

    def test_path_priority(self):
        assert bfs_term_order(path(3)).priority == (0, 1, 2)

    def test_q_first(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)], 1)
        assert bfs_term_order(g).priority[0] == 1

    def test_degrevlex_on_generator_leads(self):
        # every generator's boundary-divisor side must lead
        order = bfs_term_order(c4())
        assert order.greater((0, 0, 1, 1), (1, 1, 0, 0))  # x3x4 > x1x2
        assert order.greater((0, 1, 1, 0), (2, 0, 0, 0))  # x2x3 > x1^2
        assert order.greater((0, 0, 0, 2), (0, 1, 1, 0))  # x4^2 > x2x3


class TestOrientations:
    def test_total_count(self):
        assert len(total_orientations(c4())) == 16

    def test_acyclic_count(self):
        g = c4()
        acyclic = [o for o in total_orientations(g)
                   if digraph_is_acyclic(g.n, o)]
        assert len(acyclic) == 14  # 2^4 minus the two directed cycles

    def test_parallel_edges_co_oriented(self):
        g = theta(2)
        assert len(total_orientations(g)) == 2
