"""Divisor theory: Laplacian, linear equivalence, Pic classes, Dhar burning,
q-reduced forms, linear systems, and the orientation correspondence: the
unique-source acyclic orientations are read off the minimal n-flags S_n."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .flags import enumerate_minimal_flags, flag_orientation
from .graphs import (
    PointedGraph,
    bfs_order,
    check_vertices,
    divisor_add,
    divisor_deg,
    divisor_sub,
    indegree_divisor,
    mask_connected,
    neighbor_lists,
)


class DivisorError(ValueError):
    pass


class NegativeOffQ(DivisorError):
    pass


@dataclass(frozen=True)
class PicClass:
    """A Picard class, keyed by its unique q-reduced representative.

    Only equality/hashing is exposed; no group structure."""

    rep: tuple


def laplacian_of(g: PointedGraph, f):
    """Delta(f)(v) = sum over edges {v,w} of f(v) - f(w)."""
    _check_length(g, f)
    d = [0] * g.n
    for v in range(g.n):
        d[v] = sum(g.mult[v][w] * (f[v] - f[w]) for w in range(g.n))
    return tuple(d)


def _fire(g: PointedGraph, d, mask, times):
    """Fire the vertex mask `mask` `times` times, in place on the list d:
    each edge leaving the set moves `times` chips from its end inside to its
    end outside.  Edges inside the set cancel, so they are not touched."""
    nbrs = neighbor_lists(g)
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        for w, m in nbrs[v]:
            if not mask >> w & 1:
                d[v] -= m * times
                d[w] += m * times
        rest &= rest - 1


def fire_set(g: PointedGraph, d, members, times=1):
    """Subtract times * Delta(chi_members) from d."""
    _check_length(g, d)
    members = frozenset(members)
    check_vertices(g, members)
    d = list(d)
    _fire(g, d, sum(1 << v for v in members), times)
    return tuple(d)


def _check_length(g: PointedGraph, d):
    if len(d) != g.n:
        raise DivisorError(f"divisor has {len(d)} entries, graph has n={g.n} vertices")


def _check_input(g: PointedGraph, q, d):
    _check_length(g, d)
    if not 0 <= q < g.n:
        raise DivisorError(f"q={q} out of range for n={g.n}")


def _burn(g: PointedGraph, q, d):
    """Dhar's fire from q on d, in one worklist pass: each burning vertex
    adds its edges to the count of every unburnt neighbour, which catches
    fire once its count exceeds its chips.  Returns the burn order, a burnt
    flag per vertex and the counts; an unburnt vertex's count is its number
    of edges into the burnt set."""
    nbrs = neighbor_lists(g)
    burnt = [False] * g.n
    burnt[q] = True
    count = [0] * g.n
    order = [q]
    for v in order:             # order grows as it is walked
        for w, m in nbrs[v]:
            if not burnt[w]:
                count[w] += m
                if count[w] > d[w]:
                    burnt[w] = True
                    order.append(w)
    return order, burnt, count


def burn_order(g: PointedGraph, q, d):
    """Vertices in the order Dhar's fire from q reaches them: q first, then
    each vertex as the worklist pass finds it holding fewer chips than its
    edges to the vertices listed before it.  The vertices left out form the
    maximal unburnt set, which does not depend on the order."""
    _check_input(g, q, d)
    return _burn(g, q, d)[0]


def dhar_burn(g: PointedGraph, q, d):
    """Maximal unburnt set for the fire started at q; empty iff q-reduced."""
    _check_input(g, q, d)
    for v in range(g.n):
        if v != q and d[v] < 0:
            raise NegativeOffQ(f"d({v}) = {d[v]} < 0")
    burnt = _burn(g, q, d)[1]
    return frozenset(v for v in range(g.n) if not burnt[v])


def is_q_reduced(g: PointedGraph, q, d) -> bool:
    """Effective off q, and Dhar's fire from q burns every vertex."""
    _check_input(g, q, d)
    return (all(d[v] >= 0 for v in range(g.n) if v != q)
            and len(_burn(g, q, d)[0]) == g.n)


def q_reduce(g: PointedGraph, q, d):
    """The unique q-reduced divisor linearly equivalent to d, computed in
    place on one list."""
    _check_input(g, q, d)
    d = list(d)
    order = bfs_order(g, q)
    nbrs = neighbor_lists(g)
    # Stage 1: clear negative values off q, farthest first.  Firing the BFS
    # ball below v only adds chips at vertices processed earlier.
    ball = (1 << g.n) - 1
    for i in range(g.n - 1, 0, -1):
        v = order[i]
        ball ^= 1 << v          # the mask of order[:i]
        if d[v] >= 0:
            continue
        c = sum(m for w, m in nbrs[v] if ball >> w & 1)
        # BFS parent of v lies in the ball, so c >= 1
        _fire(g, d, ball, (-d[v] + c - 1) // c)
    # Stage 2: d is now non-negative off q.
    return _reduce_effective(g, q, d)


def _reduce_effective(g: PointedGraph, q, d):
    """Stage 2 of q_reduce, in place on the list d, which must be
    non-negative off q, returning the result as a tuple: fire the unburnt
    set until Dhar's fire consumes everything, as many times at once as
    stays legal.  One fire takes from v its count of edges into the burnt
    set, and the fire left v unburnt because it holds at least that many.
    Only those cut edges move chips."""
    nbrs = neighbor_lists(g)
    while True:
        burnt_order, burnt, count = _burn(g, q, d)
        if len(burnt_order) == g.n:
            return tuple(d)
        rim = [v for v in range(g.n) if not burnt[v] and count[v]]
        times = min(d[v] // count[v] for v in rim)
        for v in rim:
            d[v] -= count[v] * times
            for w, m in nbrs[v]:
                if burnt[w]:
                    d[w] += m * times


def linearly_equivalent(g: PointedGraph, d1, d2) -> bool:
    _check_length(g, d1)
    _check_length(g, d2)
    if divisor_deg(d1) != divisor_deg(d2):
        return False
    return q_reduce(g, g.q, d1) == q_reduce(g, g.q, d2)


def pic_class(g: PointedGraph, d) -> PicClass:
    return PicClass(q_reduce(g, g.q, d))


def spanning_tree_count(g: PointedGraph) -> int:
    """Matrix-tree: determinant of a principal minor of the Laplacian."""
    idx = [v for v in range(g.n) if v != g.q]
    mat = [[g.degree(u) if u == v else -g.mult[u][v] for v in idx] for u in idx]
    return _bareiss(mat)[1]


def _bareiss(mat):
    """Fraction-free (Bareiss) elimination of an integer matrix, given as a
    list of rows: (rank, determinant), the determinant 0 unless the matrix is
    square of full rank, and 1 for the empty matrix.  Each entry stays a
    minor of the input, so every division is exact."""
    a = [row[:] for row in mat]
    rows, cols = len(a), len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if a[r][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        for r in range(rank + 1, rows):
            for c2 in range(c + 1, cols):
                a[r][c2] = (a[r][c2] * a[rank][c] - a[r][c] * a[rank][c2]) // prev
        prev = a[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank, sign * prev if rank == rows == cols else 0


def linear_system(g: PointedGraph, d):
    """|d|, sorted: every effective divisor linearly equivalent to d.

    The class holds an effective divisor iff its q-reduced divisor r has
    r(q) >= 0.  Any two effective divisors of one class are joined by legal
    set-firings (Baker-Norine, Riemann-Roch and Abel-Jacobi theory on a
    finite graph, 2007): if e' = e - Delta(f), firing the top level set of f
    from e keeps it effective.  A set with no edge between two of its parts
    fires as those parts in turn, each firing legal alone.  So a
    breadth-first search from r over firings of connected non-empty proper
    vertex sets that stay effective finds all of |d|.  A firing is tried
    only once e holds every chip it takes, and then stays effective."""
    _check_length(g, d)
    if divisor_deg(d) < 0:
        return []
    r = q_reduce(g, g.q, d)
    if r[g.q] < 0:
        return []
    moves = _moves(g)
    members = [r]
    seen = {r}
    for e in members:           # members grows as it is walked
        for move, takes in moves:
            for v, chips in takes:
                if e[v] < chips:
                    break
            else:
                f = divisor_add(e, move)
                if f not in seen:
                    seen.add(f)
                    members.append(f)
    return sorted(members)


def _moves(g: PointedGraph):
    """(-Delta(chi_S), the (vertex, chips) pairs that firing S takes) for
    every connected non-empty proper vertex mask S, in mask order, cached
    on g."""
    if "moves" not in g._cache:
        moves = []
        for mask in range(1, (1 << g.n) - 1):
            if mask_connected(g, mask):
                move = [0] * g.n
                _fire(g, move, mask, 1)
                takes = tuple((v, -x) for v, x in enumerate(move) if x < 0)
                moves.append((tuple(move), takes))
        g._cache["moves"] = tuple(moves)
    return g._cache["moves"]


def acyclic_orientations_unique_source(g: PointedGraph):
    """Acyclic orientations with g.q the unique source: at k = n every part
    is one vertex, so these are G(U) over U in S_n, one per class
    (Benson-Chakrabarty-Tetali, G-parking functions, acyclic orientations
    and spanning trees, 2010)."""
    return [flag_orientation(g, uc) for uc in enumerate_minimal_flags(g, g.n)]


def maximal_reduced_divisors(g: PointedGraph):
    """sum_v (indeg(v) - 1)(v) over unique-source acyclic orientations.

    House convention: value -1 at g.q."""
    ones = (1,) * g.n
    return [divisor_sub(indegree_divisor(g, o), ones)
            for o in acyclic_orientations_unique_source(g)]


def effective_reduced_off_q(g: PointedGraph, q):
    """Off-q parts of effective q-reduced divisors (finite: each coordinate is
    bounded by the vertex degree)."""
    ranges = [range(g.degree(v)) if v != q else range(1) for v in range(g.n)]
    out = []
    for combo in itertools.product(*ranges):
        if is_q_reduced(g, q, combo):
            out.append(combo)
    return out


def hilbert_function(g: PointedGraph, t_max):
    """HF(d) = number of effective q-reduced divisors of degree d, d=0..t_max."""
    offq_degs = sorted(divisor_deg(c) for c in effective_reduced_off_q(g, g.q))
    return [sum(1 for s in offq_degs if s <= d) for d in range(t_max + 1)]
