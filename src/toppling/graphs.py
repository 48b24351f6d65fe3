"""Pointed multigraph core: connectivity on vertex masks, boundary divisors,
BFS variable order.

Vertices are 0-based everywhere inside the library; the CLI file formats are
1-based.  A divisor is a plain tuple of ints of length n, used both as a chip
configuration and as a monomial exponent vector.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field


class GraphError(ValueError):
    pass


class LoopEdge(GraphError):
    pass


class Disconnected(GraphError):
    pass


class BadVertex(GraphError):
    pass


class EmptyGraph(GraphError):
    pass


class EmptySet(GraphError):
    pass


class Overlap(GraphError):
    pass


@dataclass(frozen=True)
class PointedGraph:
    n: int
    mult: tuple[tuple[int, ...], ...]  # symmetric, zero diagonal
    q: int
    # computed once per object: flag bases by k, BFS orders by
    # ("bfs", start), the adjacent pairs by "pairs", neighbour masks by
    # "neighbors", neighbour lists by "adjacency", the set-firing moves of
    # linear_system by "moves", and per vertex mask its connectivity
    # ("connected") and its splits ("splits");
    # init=False: dataclasses.replace(g, q=...) starts empty, as bases and
    # splits depend on q;
    # compare=False: == and hash stay on (n, mult, q)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    @property
    def m(self) -> int:
        return sum(sum(row) for row in self.mult) // 2

    def degree(self, v: int) -> int:
        return sum(self.mult[v])

    def neighbors(self, v: int):
        return [w for w in range(self.n) if self.mult[v][w]]

    def adjacent_pairs(self):
        """Sorted (u, v) pairs with u < v and at least one edge."""
        if "pairs" not in self._cache:
            self._cache["pairs"] = tuple((u, v) for u in range(self.n)
                                         for v in range(u + 1, self.n) if self.mult[u][v])
        return self._cache["pairs"]


def build_graph(n, edges, q) -> PointedGraph:
    if n <= 0:
        raise EmptyGraph("graph must have at least one vertex")
    if not 0 <= q < n:
        raise BadVertex(f"q={q + 1} out of range for n={n}")
    mult = [[0] * n for _ in range(n)]
    for edge in edges:
        if len(edge) == 2:
            u, v = edge
            w = 1
        else:
            u, v, w = edge
        if not (0 <= u < n and 0 <= v < n):
            raise BadVertex(f"edge ({u + 1},{v + 1}) out of range for n={n}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u + 1}")
        if w < 1:
            raise GraphError(f"multiplicity {w} < 1")
        mult[u][v] += w
        mult[v][u] += w
    g = PointedGraph(n, tuple(tuple(row) for row in mult), q)
    if None in bfs_distances(g, q):
        raise Disconnected("graph is not connected")
    return g


def neighbor_masks(g: PointedGraph):
    """Entry v has bit w set iff v and w are adjacent; cached on g."""
    if "neighbors" not in g._cache:
        g._cache["neighbors"] = tuple(sum(1 << w for w in range(g.n) if row[w])
                                      for row in g.mult)
    return g._cache["neighbors"]


def neighbor_lists(g: PointedGraph):
    """Entry v holds a (w, multiplicity) pair per neighbour w of v, in
    order of w; cached on g."""
    if "adjacency" not in g._cache:
        g._cache["adjacency"] = tuple(tuple((w, m) for w, m in enumerate(row) if m)
                                      for row in g.mult)
    return g._cache["adjacency"]


def mask_connected(g: PointedGraph, m) -> bool:
    """Whether the nonzero vertex mask m induces a connected subgraph: a
    flood fill from its lowest vertex, memoised per mask on g."""
    memo = g._cache.setdefault("connected", {})
    hit = memo.get(m)
    if hit is None:
        nbr = neighbor_masks(g)
        seen = frontier = m & -m
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= nbr[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & m & ~seen
            seen |= frontier
        hit = memo[m] = seen == m
    return hit


def induced_connected(g: PointedGraph, s) -> bool:
    m = sum(1 << v for v in frozenset(s))
    if not m:
        raise EmptySet("connectivity of the empty set is undefined")
    return mask_connected(g, m)


def check_vertices(g: PointedGraph, vertices):
    """Raise BadVertex, naming the lowest, if any of `vertices` is not a
    vertex of g."""
    outside = sorted(v for v in vertices if not 0 <= v < g.n)
    if outside:
        raise BadVertex(f"vertex {outside[0] + 1} is not in the graph (vertices 1..{g.n})")


def boundary_divisor(g: PointedGraph, a, b):
    """D(a,b): for v in a, the number of edges from v into b; zero off a."""
    a, b = frozenset(a), frozenset(b)
    check_vertices(g, a | b)
    if a & b:
        raise Overlap(f"sets overlap: {sorted(a & b)}")
    return _boundary(g, sum(1 << v for v in a), sum(1 << v for v in b))


def _boundary(g: PointedGraph, a, b):
    """D(a,b) for disjoint vertex masks a and b, as a tuple."""
    nbr = neighbor_masks(g)
    d = [0] * g.n
    while a:
        v = (a & -a).bit_length() - 1
        both, row = nbr[v] & b, g.mult[v]     # the neighbours of v in b
        while both:
            d[v] += row[(both & -both).bit_length() - 1]
            both &= both - 1
        a &= a - 1
    return tuple(d)


# ---------------------------------------------------------------------------
# divisor helpers (tuples of ints)

def zero_divisor(n):
    return (0,) * n


def divisor_deg(d) -> int:
    return sum(d)


def divisor_add(d1, d2):
    return tuple(map(operator.add, d1, d2))


def divisor_sub(d1, d2):
    return tuple(a - b for a, b in zip(d1, d2))


def divisor_max(d1, d2):
    return tuple(max(a, b) for a, b in zip(d1, d2))


# ---------------------------------------------------------------------------
# term order

@dataclass(frozen=True)
class TermOrder:
    """Degrevlex with variable ranks given by `priority` (rank 0 smallest)."""

    priority: tuple[int, ...]

    def monomial_key(self, exps):
        # Degrevlex: higher total degree wins; on ties the monomial with the
        # smaller exponent at the smallest-ranked differing variable wins.
        return (sum(exps), tuple(-exps[v] for v in self.priority))

    def greater(self, e1, e2) -> bool:
        return self.monomial_key(e1) > self.monomial_key(e2)


def bfs_distances(g: PointedGraph, start: int):
    dist = [None] * g.n
    dist[start] = 0
    todo = deque([start])
    while todo:
        u = todo.popleft()
        for v in g.neighbors(u):
            if dist[v] is None:
                dist[v] = dist[u] + 1
                todo.append(v)
    return dist


def bfs_order(g: PointedGraph, start: int):
    """Vertices sorted by (BFS distance from start, index), cached on g."""
    key = ("bfs", start)
    if key not in g._cache:
        dist = bfs_distances(g, start)
        g._cache[key] = tuple(sorted(range(g.n), key=lambda v: (dist[v], v)))
    return g._cache[key]


def bfs_term_order(g: PointedGraph) -> TermOrder:
    return TermOrder(bfs_order(g, g.q))


# ---------------------------------------------------------------------------
# orientations: frozensets of (tail, head) arcs, at most one per adjacent
# pair; an adjacent pair with no arc is unoriented, and parallel edges share
# their pair's arc

def indegree_divisor(g: PointedGraph, arcs):
    d = [0] * g.n
    for tail, head in arcs:
        d[head] += g.mult[tail][head]
    return tuple(d)


def total_orientations(g: PointedGraph):
    """All total orientations.  Entry `bits` holds (u, v) for the idx-th
    adjacent pair (u, v), u < v, when bit idx of `bits` is set, else (v, u)."""
    pairs = g.adjacent_pairs()
    return [frozenset((u, v) if bits >> idx & 1 else (v, u)
                      for idx, (u, v) in enumerate(pairs))
            for bits in range(1 << len(pairs))]
