"""Divisor theory: Laplacian, linear equivalence, Pic classes, Dhar burning,
q-reduced forms, linear systems, and the orientation correspondence."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graphs import (
    PointedGraph,
    PartialOrientation,
    bfs_order,
    divisor_add,
    divisor_deg,
    divisor_sub,
    orientation_is_acyclic,
    total_orientations,
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


def chi(n, members):
    return tuple(1 if v in members else 0 for v in range(n))


def fire_set(g: PointedGraph, d, members, times=1):
    """Subtract times * Delta(chi_members) from d."""
    return divisor_sub(d, tuple(x * times for x in laplacian_of(g, chi(g.n, members))))


def dhar_burn(g: PointedGraph, q, d):
    """Maximal unburnt set for the fire started at q; empty iff q-reduced."""
    for v in range(g.n):
        if v != q and d[v] < 0:
            raise NegativeOffQ(f"d({v}) = {d[v]} < 0")
    burnt = {q}
    progress = True
    while progress:
        progress = False
        for v in range(g.n):
            if v in burnt:
                continue
            incoming = sum(g.mult[v][w] for w in burnt)
            if incoming > d[v]:
                burnt.add(v)
                progress = True
    return frozenset(range(g.n)) - frozenset(burnt)


def is_q_reduced(g: PointedGraph, q, d) -> bool:
    if any(d[v] < 0 for v in range(g.n) if v != q):
        return False
    return not dhar_burn(g, q, d)


def q_reduce(g: PointedGraph, q, d):
    """The unique q-reduced divisor linearly equivalent to d."""
    d = list(d)
    order = bfs_order(g, q)
    # Stage 1: clear negative values off q, farthest first.  Firing the BFS
    # ball below v only adds chips at vertices processed earlier.
    for i in range(g.n - 1, 0, -1):
        v = order[i]
        if d[v] >= 0:
            continue
        ball = order[:i]
        c = sum(g.mult[v][w] for w in ball)
        # BFS parent of v lies in the ball, so c >= 1
        times = (-d[v] + c - 1) // c
        d = list(fire_set(g, tuple(d), ball, times))
    # Stage 2: fire the unburnt set until Dhar's fire consumes everything.
    d = tuple(d)
    while True:
        unburnt = dhar_burn(g, q, d)
        if not unburnt:
            return d
        d = fire_set(g, d, unburnt)


def linearly_equivalent(g: PointedGraph, d1, d2) -> bool:
    if divisor_deg(d1) != divisor_deg(d2):
        return False
    return q_reduce(g, g.q, d1) == q_reduce(g, g.q, d2)


def pic_class(g: PointedGraph, q, d) -> PicClass:
    return PicClass(q_reduce(g, q, d))


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


def linear_system(g: PointedGraph, q, d):
    """All effective divisors linearly equivalent to d."""
    deg = divisor_deg(d)
    if deg < 0:
        return []
    target = q_reduce(g, q, d)
    out = []
    for e in _compositions(deg, g.n):
        if q_reduce(g, q, e) == target:
            out.append(e)
    return sorted(out)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def acyclic_orientations_unique_source(g: PointedGraph, q=None):
    """Total orientations with no directed cycle and q the unique source."""
    if q is None:
        q = g.q
    out = []
    for o in total_orientations(g):
        if not orientation_is_acyclic(o, g.n):
            continue
        indeg = o.indegree_divisor(g)
        sources = [v for v in range(g.n) if indeg[v] == 0]
        if sources == [q]:
            out.append(o)
    return out


def maximal_reduced_divisors(g: PointedGraph, q=None):
    """sum_v (indeg(v) - 1)(v) over unique-source acyclic orientations.

    House convention: value -1 at q."""
    if q is None:
        q = g.q
    ones = (1,) * g.n
    return [divisor_sub(o.indegree_divisor(g), ones)
            for o in acyclic_orientations_unique_source(g, q)]


def effective_reduced_off_q(g: PointedGraph, q):
    """Off-q parts of effective q-reduced divisors (finite: each coordinate is
    bounded by the vertex degree)."""
    ranges = [range(g.degree(v)) if v != q else range(1) for v in range(g.n)]
    out = []
    for combo in itertools.product(*ranges):
        if is_q_reduced(g, q, combo):
            out.append(combo)
    return out


def hilbert_function(g: PointedGraph, q, t_max):
    """HF(d) = number of effective q-reduced divisors of degree d, d=0..t_max."""
    offq_degs = sorted(divisor_deg(c) for c in effective_reduced_off_q(g, q))
    return [sum(1 for s in offq_degs if s <= d) for d in range(t_max + 1)]
