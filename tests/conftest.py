import random
from collections import Counter, deque

import pytest

from toppling.divisors import PicClass, dhar_burn, fire_set, pic_class, q_reduce
from toppling.flags import (
    LengthMismatch,
    _front_sign,
    _merge_target,
    _oriented,
    _part_graph,
    enumerate_minimal_flags,
    flag_divisor,
    merge_records,
    record_sign,
    record_theta,
)
from toppling.graphs import (
    Overlap,
    _boundary,
    bfs_order,
    bfs_term_order,
    build_graph,
    divisor_add,
    divisor_max,
    divisor_sub,
    total_orientations,
    zero_divisor,
)
from toppling.oracle import NotGroebner, OracleError, SchreyerResolution
from toppling.poly import (
    add_into,
    division_normal_form,
    lift,
    monomial_divides,
    poly_sub,
    ring_module_order,
)
from toppling.resolution import generator_poly


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


def grid_2x3(q=0):
    return build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)], q)


def wide_triangle(q=0):
    # edge multiplicities 2^21, 3 and 2^21 + 5: exponents above 2^21
    return build_graph(3, [(0, 1, 2**21), (1, 2, 3), (0, 2, 2**21 + 5)], q)


def reference_boundary_divisor(g, a, b):
    """D(a,b) on vertex sets: for v in a, the number of edges from v into b;
    zero off a."""
    a, b = frozenset(a), frozenset(b)
    if a & b:
        raise Overlap(f"sets overlap: {sorted(a & b)}")
    d = [0] * g.n
    for v in a:
        d[v] = sum(g.mult[v][w] for w in b)
    return tuple(d)


def subset_key(s):
    """Total order on vertex sets: larger cardinality first, then lex."""
    return (-len(s), tuple(sorted(s)))


def flag_sort_key(uc):
    """<_k as a sort key: it compares at the largest level where the chains
    differ; the top level is always V(G), so scan levels k-2 .. 0."""
    return tuple(subset_key(uc.chain[i]) for i in range(uc.k - 2, -1, -1))


def flag_less(u, v):
    """u <_k v, by its definition on frozenset chains."""
    if u.k != v.k:
        raise LengthMismatch(f"{u.k} != {v.k}")
    return flag_sort_key(u) < flag_sort_key(v)


def digraph_is_acyclic(node_count, arcs):
    """Kahn's test: every node is removed as a source in turn."""
    out = [[] for _ in range(node_count)]
    indeg = [0] * node_count
    for t, h in arcs:
        out[t].append(h)
        indeg[h] += 1
    todo = deque(v for v in range(node_count) if indeg[v] == 0)
    seen = 0
    while todo:
        u = todo.popleft()
        seen += 1
        for v in out[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                todo.append(v)
    return seen == node_count


def bfs_connected(g, s):
    """Whether the nonempty vertex set s induces a connected subgraph, by a
    breadth-first search from one of its vertices."""
    start = min(s)
    seen = {start}
    todo = deque([start])
    while todo:
        u = todo.popleft()
        for v in s:
            if g.mult[u][v] and v not in seen:
                seen.add(v)
                todo.append(v)
    return seen == set(s)


def scanned_unique_source(g):
    """Acyclic orientations with g.q the unique source, by brute force: every
    total orientation, kept when acyclic and g.q is its only source."""
    return [o for o in total_orientations(g)
            if digraph_is_acyclic(g.n, o)
            and [v for v in range(g.n) if all(h != v for _, h in o)] == [g.q]]


def reference_q_reduce(g, q, d):
    """q-reduction one firing per round: clear negative values off q by
    firing BFS balls, farthest vertex first, then fire Dhar's unburnt set
    once per round until the fire burns every vertex."""
    order = bfs_order(g, q)
    for i in range(g.n - 1, 0, -1):
        v = order[i]
        if d[v] < 0:
            ball = order[:i]
            c = sum(g.mult[v][w] for w in ball)
            d = fire_set(g, d, ball, (-d[v] + c - 1) // c)
    while unburnt := dhar_burn(g, q, d):
        d = fire_set(g, d, unburnt)
    return tuple(d)


def per_flag_pic_table(g):
    """The Pic-graded Betti numbers counted flag by flag: beta_0 = 1 at the
    class of 0, and each U in S_k adds one at (k - 1, the class of D(U)),
    with D(U) built and reduced afresh for every flag."""
    table = Counter({(0, PicClass(zero_divisor(g.n))): 1})
    for k in range(2, g.n + 1):
        table.update((k - 1, pic_class(g, flag_divisor(g, uc)))
                     for uc in enumerate_minimal_flags(g, k))
    return dict(table)


def reference_merge_differentials(g, field, bases, variants):
    """phi_1, phi_2, ... of each variant from the public merge records: each
    record's row, record_theta and record_sign, added into the column of
    every variant for a merge inside G(U), and of the binomial one only for
    a merge inside some o_j(U).  out[i][t-1] is phi_t of variants[i]."""
    one, minus = field.one, field.neg(field.one)
    out = [[] for _ in variants]
    for t in range(1, len(bases)):
        for diffs in out:
            diffs.append([])
        for uc in bases[t]:
            cols = [{} for _ in variants]
            for diffs, col in zip(out, cols):
                diffs[-1].append(col)
            into = (cols, [col for v, col in zip(variants, cols) if v == "binomial"])
            for rec in merge_records(g, uc):
                term = {(rec.row, record_theta(g, uc, rec)):
                        one if record_sign(rec) > 0 else minus}
                for col in into[rec.from_reversal]:
                    add_into(field, col, term)
    return out


def reference_merge_terms(g, uc):
    """`flags._merge_terms` with every kept merge searched: each one fused,
    realigned and peeled by `_merge_target`, including the merges of two
    consecutive parts inside G(U) that drop a chain level."""
    parts, up, down, anc, adjacent = _part_graph(g, uc)
    basis = enumerate_minimal_flags(g, uc.k - 1)
    keys = [(p.bit_count() << g.n) - (p & -p) for p in parts]
    climb = [0] * uc.k
    for a, b in reversed(adjacent):
        climb[a] |= climb[b] | up[b] | down[b]
    for a, b in adjacent:
        if not up[a] & anc[b]:
            row, parity = _merge_target(parts, keys, up, down, a, b, basis)
            yield (a, b, row, _boundary(g, parts[b], parts[a]),
                   _front_sign(a + 1, b + 1) * parity, False)
    for b, a in adjacent:
        if not (up[a] | down[a] | climb[a]) & anc[b] and not climb[a] >> b & 1:
            row, parity = _merge_target(parts, keys, *_oriented(up, down, b + 1), a, b, basis)
            yield (a, b, row, _boundary(g, parts[b], parts[a]),
                   _front_sign(a + 1, b + 1) * parity, True)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def scanned_linear_system(g, d):
    """|d| by brute force: every effective divisor of degree deg d whose
    q-reduced form is that of d."""
    if sum(d) < 0:
        return []
    target = reference_q_reduce(g, g.q, d)
    return sorted(e for e in _compositions(sum(d), g.n)
                  if reference_q_reduce(g, g.q, e) == target)


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


def reference_linear_system(g, d):
    """|d| by the breadth-first search over connected set-firings, each move
    added to every member and kept when the sum is effective."""
    if sum(d) < 0:
        return []
    r = q_reduce(g, g.q, d)
    if r[g.q] < 0:
        return []
    subsets = ([v for v in range(g.n) if mask >> v & 1] for mask in range(1, (1 << g.n) - 1))
    moves = [fire_set(g, zero_divisor(g.n), s) for s in subsets if bfs_connected(g, s)]
    members, seen = [r], {r}
    for e in members:
        for move in moves:
            f = divisor_add(e, move)
            if min(f) >= 0 and f not in seen:
                seen.add(f)
                members.append(f)
    return sorted(members)


# ---------------------------------------------------------------------------
# the Schreyer oracle with the order compared as tuples and division by a
# scan of the whole working element and of every basis lead

def reference_module_key(morder, term):
    """The Schreyer order as a tuple key: degrevlex on the shifted exponent,
    then the chain negated, so earlier positions win ties."""
    idx, e = term
    return (morder.order.monomial_key(divisor_add(e, morder.shifts[idx])),
            tuple(-p for p in morder.chains[idx]))


def reference_leading_term(morder, elem):
    return max(elem, key=lambda term: reference_module_key(morder, term))


def module_term_mul(field, elem, exps, scalar):
    """Multiply a free-module element by scalar * x^exps."""
    return {(i, divisor_add(e, exps)): field.mul(c, scalar)
            for (i, e), c in elem.items()}


def reference_buchberger_check(gens, order, field):
    """Buchberger's criterion by whole S-polynomials: each pair's two
    elements, led under the TermOrder's own key, shifted to gamma, scaled to
    monic leads and subtracted, then divided by the list."""
    morder = ring_module_order(order)
    basis = [lift(generator_poly(field, p)) for p in gens]
    leads = [max(b, key=lambda term: order.monomial_key(term[1])) for b in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            gm = divisor_max(leads[i][1], leads[j][1])
            spoly = poly_sub(field, module_term_mul(field, basis[i], divisor_sub(gm, leads[i][1]),
                                                    field.inv(basis[i][leads[i]])),
                             module_term_mul(field, basis[j], divisor_sub(gm, leads[j][1]),
                                             field.inv(basis[j][leads[j]])))
            _, rem = division_normal_form(field, spoly, basis, morder, leads)
            if rem:
                return False
    return True


def reference_division_normal_form(field, elem, basis, morder, leads):
    """elem = sum quotient_g * g + remainder, each step taking the largest
    term of the working element and the lowest-index basis lead dividing it."""
    quotients = [{} for _ in basis]
    remainder = {}
    work = dict(elem)
    while work:
        lt = reference_leading_term(morder, work)
        lc = work[lt]
        idx, e = lt
        for b_pos, (bidx, be) in enumerate(leads):
            if bidx == idx and monomial_divides(be, e):
                shift = divisor_sub(e, be)
                factor = field.mul(lc, field.inv(basis[b_pos][leads[b_pos]]))
                quotients[b_pos][shift] = factor
                add_into(field, work, module_term_mul(field, basis[b_pos], shift,
                                                      field.neg(factor)))
                break
        else:
            remainder[lt] = lc
            del work[lt]
    return quotients, remainder


def reference_schreyer_step(field, basis, morder):
    """S-pair syzygies pruned by the chain criterion, over all pairs."""
    leads = [reference_leading_term(morder, b) for b in basis]
    m = len(basis)
    pairs = [(f, h) for f in range(m) for h in range(f + 1, m)
             if leads[f][0] == leads[h][0]]

    def gamma(f, h):
        return divisor_max(leads[f][1], leads[h][1])

    kept = []
    for f, h in pairs:
        drop = False
        for mid in range(f + 1, m):
            if mid == h or leads[mid][0] != leads[f][0]:
                continue
            if not monomial_divides(leads[mid][1], gamma(f, h)):
                continue
            if gamma(f, mid) != gamma(f, h) or mid < h:
                drop = True
                break
        if not drop:
            kept.append((f, h))

    new_order = morder.pulled_back(leads)
    syzygies = []
    for f, h in kept:
        gm = gamma(f, h)
        sf = divisor_sub(gm, leads[f][1])
        sh = divisor_sub(gm, leads[h][1])
        cf = field.inv(basis[f][leads[f]])
        ch = field.inv(basis[h][leads[h]])
        spair = poly_sub(field, module_term_mul(field, basis[f], sf, cf),
                         module_term_mul(field, basis[h], sh, ch))
        quotients, rem = reference_division_normal_form(field, spair, basis, morder, leads)
        if rem:
            raise NotGroebner(f"S-pair ({f},{h}) has remainder")
        syz = poly_sub(field, {(f, sf): cf, (h, sh): field.neg(ch)},
                       {(g_pos, e): c for g_pos, quot in enumerate(quotients)
                        for e, c in quot.items()})
        if reference_leading_term(new_order, syz) != (f, sf):
            raise OracleError(f"syzygy of S-pair ({f},{h}) does not lead with {(f, sf)}")
        syzygies.append(syz)
    return syzygies, new_order


def reference_schreyer_resolution(g, gens, field):
    """schreyer_resolution's loop over reference_schreyer_step."""
    basis = [lift(generator_poly(field, p)) for p in gens]
    morder = ring_module_order(bfs_term_order(g))
    diffs = [basis]
    picrep = [[q_reduce(g, g.q, reference_leading_term(morder, b)[1]) for b in basis]]
    while basis and len(diffs) <= g.n + 1:
        basis, morder = reference_schreyer_step(field, basis, morder)
        if not basis:
            break
        picrep.append([q_reduce(g, g.q, divisor_add(e, picrep[-1][r]))
                       for r, e in (reference_leading_term(morder, b) for b in basis)])
        diffs.append(basis)
    return SchreyerResolution(g, field, diffs, picrep)
