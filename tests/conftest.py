import random

import pytest

from toppling.graphs import build_graph, digraph_is_acyclic, total_orientations


def c4():
    # 4-cycle with edges 1-2, 1-3, 2-4, 3-4; base vertex 1
    return build_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], 0)


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)], 0)


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], 0)


def theta(m):
    # two vertices joined by m parallel edges
    return build_graph(2, [(0, 1)] * m, 0)


def scanned_unique_source(g):
    """Acyclic orientations with g.q the unique source, by brute force: every
    total orientation, kept when acyclic and g.q is its only source."""
    return [o for o in total_orientations(g)
            if digraph_is_acyclic(g.n, o)
            and [v for v in range(g.n) if all(h != v for _, h in o)] == [g.q]]


def random_connected_multigraph(rng, n_max=6, m_max=10):
    n = rng.randint(3, n_max)
    verts = list(range(n))
    rng.shuffle(verts)
    edges = [(verts[i], rng.choice(verts[:i])) for i in range(1, n)]
    m = rng.randint(n - 1, m_max)
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return n, edges


def corpus(count=25, seed=20260823):
    """The frozen random-graph corpus used across the suite."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, edges = random_connected_multigraph(rng)
        out.append((n, tuple(edges)))
    return out


@pytest.fixture(scope="session")
def graph_corpus():
    return corpus()
