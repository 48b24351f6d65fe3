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
    divisor_add,
    divisor_deg,
    divisor_sub,
    indegree_divisor,
    neighbor_lists,
    zero_divisor,
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
    d = [0] * g.n
    for v in range(g.n):
        d[v] = sum(g.mult[v][w] * (f[v] - f[w]) for w in range(g.n))
    return tuple(d)


def _fire(g: PointedGraph, d, members, times):
    """Fire the set `members` `times` times, in place on the list d: each
    edge leaving the set moves `times` chips from its end inside to its end
    outside.  Edges inside the set cancel, so they are not touched."""
    for v in members:
        for w, m in enumerate(g.mult[v]):
            if m and w not in members:
                d[v] -= m * times
                d[w] += m * times


def fire_set(g: PointedGraph, d, members, times=1):
    """Subtract times * Delta(chi_members) from d."""
    d = list(d)
    _fire(g, d, frozenset(members), times)
    return tuple(d)


def _check_input(g: PointedGraph, q, d):
    if len(d) != g.n:
        raise DivisorError(f"divisor has {len(d)} entries, graph has n={g.n} vertices")
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
    # Stage 1: clear negative values off q, farthest first.  Firing the BFS
    # ball below v only adds chips at vertices processed earlier.
    for i in range(g.n - 1, 0, -1):
        v = order[i]
        if d[v] >= 0:
            continue
        ball = frozenset(order[:i])
        c = sum(g.mult[v][w] for w in ball)
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
    if divisor_deg(d1) != divisor_deg(d2):
        return False
    return q_reduce(g, g.q, d1) == q_reduce(g, g.q, d2)


def pic_class(g: PointedGraph, d) -> PicClass:
    return PicClass(q_reduce(g, g.q, d))


def spanning_tree_count(g: PointedGraph) -> int:
    """Matrix-tree: determinant of a principal minor of the Laplacian."""
    n = g.n
    if n == 1:
        return 1
    idx = [v for v in range(n) if v != g.q]
    mat = [[g.degree(u) if u == v else -g.mult[u][v] for v in idx] for u in idx]
    return _int_det(mat)


def _int_det(mat):
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for s in range(k + 1, n):
                if a[s][k]:
                    a[k], a[s] = a[s], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def linear_system(g: PointedGraph, d):
    """|d|, sorted: every effective divisor linearly equivalent to d.

    The class holds an effective divisor iff its q-reduced divisor r has
    r(q) >= 0.  Any two effective divisors of one class are joined by legal
    set-firings (Baker-Norine, Riemann-Roch and Abel-Jacobi theory on a
    finite graph, 2007): if e' = e - Delta(f), firing the top level set of f
    from e keeps it effective.  So a breadth-first search from r over
    firings of non-empty proper vertex sets that stay effective finds all
    of |d|."""
    if divisor_deg(d) < 0:
        return []
    r = q_reduce(g, g.q, d)
    if r[g.q] < 0:
        return []
    moves = _moves(g)
    members = [r]
    seen = {r}
    for e in members:           # members grows as it is walked
        for move in moves:
            f = divisor_add(e, move)
            if min(f) >= 0 and f not in seen:
                seen.add(f)
                members.append(f)
    return sorted(members)


def _moves(g: PointedGraph):
    """-Delta(chi_S) for every non-empty proper vertex mask S, in mask
    order, cached on g.  The Laplacian is linear, so the move of S is that
    of S without its lowest vertex plus that vertex's own move."""
    if "moves" not in g._cache:
        single = []
        for v, row in enumerate(neighbor_lists(g)):
            move = [0] * g.n
            for w, m in row:
                move[v] -= m
                move[w] = m
            single.append(tuple(move))
        moves = [zero_divisor(g.n)]
        for mask in range(1, (1 << g.n) - 1):
            low = mask & -mask
            moves.append(divisor_add(moves[mask ^ low], single[low.bit_length() - 1]))
        g._cache["moves"] = tuple(moves[1:])
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
