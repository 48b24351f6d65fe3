"""Seeded inputs and jobs of the four workloads.

A job is one pointed graph and every call the workload makes on it.  Its
`run` is what the round times; its `check` recomputes the answer with the
benchmark's own code (`checks.py`) and returns a message on a mismatch.

Graphs come from fixed families and from the test suite's frozen 25-graph
corpus.  The seed relabels every vertex and reorders every edge list, and it
draws the divisors.  It does not draw new graph shapes: a corpus drawn afresh
per seed changed a `betti_table` sweep from 0.7 s to 2.3 s between seeds,
which no bound could absorb.  Relabelled copies do the same work on inputs the
program has not seen before, so the spread left between runs is the host's.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import checks

CORPUS_SEED = 20260823   # the seed of the test suite's frozen corpus
SMALL_LEVELS = (10, 20, 50)
BIG_LEVEL = 10_000


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


# ---------------------------------------------------------------------------
# graph shapes: (label, n, edge list, closed form), 0-based, base vertex 0
# before relabelling; the closed form names the Betti totals a check expects

def cycle(n):
    return f"C{n}", n, [(i, (i + 1) % n) for i in range(n)], {"cycle": n}


def complete(n):
    return f"K{n}", n, [(i, j) for i in range(n) for j in range(i + 1, n)], {"complete": n}


def banana(m):
    return f"banana{m}", 2, [(0, 1)] * m, {"banana": m}


def grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return f"grid{rows}x{cols}", rows * cols, edges, {}


def frozen_corpus(count=25):
    """The test suite's corpus (tests/conftest.py `corpus()`), drawn the same way."""
    rng = random.Random(CORPUS_SEED)
    out = []
    while len(out) < count:
        n = rng.randint(3, 6)
        verts = list(range(n))
        rng.shuffle(verts)
        edges = [(verts[i], rng.choice(verts[:i])) for i in range(1, n)]
        m = rng.randint(n - 1, 10)
        while len(edges) < m:
            u, v = rng.sample(range(n), 2)
            edges.append((u, v))
        out.append(("corpus", n, edges, {}))
    return out


class Relabeller:
    """Random vertex relabelling per graph.  Two corpus graphs are isomorphic,
    so copies that come out equal are drawn again: no pointed graph may appear
    in two jobs, or the program's value-keyed caches would answer the second."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def __call__(self, shape):
        """(label, n, edges, q, closed form) with q the image of vertex 0."""
        label, n, edges, closed = shape
        for _ in range(1000):
            perm = list(range(n))
            self.rng.shuffle(perm)
            new = [(perm[u], perm[v]) if self.rng.random() < 0.5 else (perm[v], perm[u])
                   for u, v in edges]
            key = (n, tuple(sorted(tuple(sorted(e)) for e in new)))
            if key not in self.seen:
                self.seen.add(key)
                self.rng.shuffle(new)
                return label, n, new, perm[0], closed
        raise ValueError(f"no unused relabelling of {label} {edges}")


# ---------------------------------------------------------------------------
# workloads

def build(workload, seed, top, workdir):
    """The job list of one workload; `top` is the imported toppling package."""
    rng = random.Random(f"{workload}:{seed}")
    relabel = Relabeller(rng)
    corpus = [relabel(shape) for shape in frozen_corpus()]
    return BUILDERS[workload](rng, relabel, corpus, top, workdir)


def _betti_job(top, label, n, edges, q, closed, seen_totals=None):
    g = top.build_graph(n, edges, q)
    simple = checks.simple_edges(edges)
    return Job(label, lambda: top.betti_table(g),
               lambda bt: checks.check_betti_table(
                   n, edges, q, simple, bt.z_graded, bt.pic_graded, closed, seen_totals))


def _betti_sweep(rng, relabel, corpus, top, workdir):
    jobs = []
    for label, n, edges, _, closed in corpus:
        seen_totals = {}    # shared by the graph's base vertices
        jobs += [_betti_job(top, label, n, edges, q, closed, seen_totals) for q in range(n)]
    shapes = [cycle(6), cycle(7), cycle(8), complete(5), complete(6), complete(7),
              banana(7), grid(2, 3)]
    jobs += [_betti_job(top, *relabel(shape)) for shape in shapes]
    return jobs


def _resolution(rng, relabel, corpus, top, workdir):
    shapes = [cycle(6), cycle(7), complete(5), complete(6), grid(2, 3)]
    jobs = []
    for label, n, edges, q, closed in corpus + [relabel(shape) for shape in shapes]:
        g = top.build_graph(n, edges, q)
        simple = checks.simple_edges(edges)

        def run(g=g):
            return top.format_resolution(top.build_resolution(g))

        def check(text, n=n, edges=edges, q=q, simple=simple, closed=closed):
            return checks.check_resolution_text(n, edges, q, simple, text, closed)

        jobs.append(Job(label, run, check))
    return jobs


def _random_divisor(rng, n, q, level):
    """About `level` chips on every vertex off q, within 10 %; any value at q."""
    spread = max(1, level // 10)
    return tuple(rng.randint(-level, level) if v == q
                 else level + rng.randint(-spread, spread) for v in range(n))


def _divisors(rng, relabel, corpus, top, workdir):
    # Many small jobs around the median and a few large reductions that
    # take most of the time.
    graphs = [(label, n, edges, q, SMALL_LEVELS[(idx + q) % len(SMALL_LEVELS)])
              for idx, (label, n, edges, _, _) in enumerate(corpus) for q in range(n)]
    for shape, level in ((cycle(5), 1000), (complete(4), BIG_LEVEL), (complete(5), BIG_LEVEL)):
        label, n, edges, q, _ = relabel(shape)
        graphs.append((label, n, edges, q, level))
    jobs = []
    for label, n, edges, q, level in graphs:
        g = top.build_graph(n, edges, q)
        d = _random_divisor(rng, n, q, level)
        # d2 = d minus the Laplacian of a small firing script: equivalent to d
        script = [rng.randint(-3, 3) for _ in range(n)]
        d2 = tuple(a - b for a, b in zip(d, checks.laplacian(n, edges, script)))
        a, b = rng.sample(range(n), 2)
        d3 = tuple(c + (v == a) - (v == b) for v, c in enumerate(d2))

        def run(g=g, q=q, d=d, d2=d2, d3=d3):
            return (top.q_reduce(g, q, d), top.linearly_equivalent(g, d, d2),
                    top.linearly_equivalent(g, d2, d3))

        def check(out, n=n, edges=edges, q=q, d=d, d2=d2, d3=d3):
            return checks.check_divisor_job(n, edges, q, d, d2, d3, out)

        jobs.append(Job(f"{label}-{level}", run, check))
    return jobs


def _verify(rng, relabel, corpus, top, workdir):
    # Corpus graphs with six vertices are left out: their Hochster and
    # Schreyer oracles take 0.2-2.3 s each, the six of them 5.7 s together.
    graphs = [shape for shape in corpus if shape[1] <= 5]
    graphs += [relabel(shape) for shape in (cycle(5), cycle(6), complete(4), complete(5))]
    jobs = []
    for idx, (label, n, edges, q, _) in enumerate(graphs):
        path = os.path.join(workdir, f"graph{idx}.txt")
        with open(path, "w") as fh:
            fh.write(f"v {n}\nq {q + 1}\n")
            fh.writelines(f"e {u + 1} {v + 1}\n" for u, v in edges)

        def run(path=path):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = top.cli.main(["verify", "--graph", path])
            return code, out.getvalue(), err.getvalue()

        jobs.append(Job(label, run, checks.check_verify_output))
    return jobs


BUILDERS = {
    "betti-sweep": _betti_sweep,
    "resolution": _resolution,
    "divisors": _divisors,
    "verify": _verify,
}
