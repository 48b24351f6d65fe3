"""Independent checks of every job's output, in the standard library only.

Nothing here calls toppling or compares against stored output.  Each check
recomputes a property of the answer from the input graph:

* Betti tables: beta_{n-1} is |linear coefficient| of the chromatic
  polynomial (deletion-contraction; Greene-Zaslavsky), the alternating
  Z-graded sum K(t) is divisible by (1-t)^(n-1) with quotient at t = 1 equal
  to the spanning-tree count (exact Fraction determinant), max(j - i) is the
  genus m - n + 1, the closed forms of cycles, complete and banana graphs,
  and every Pic class representative is q-reduced (own Dhar burning).
* Resolutions: the printed matrices compose to zero mod 32003 under our own
  polynomial product, have no constant entries, are homogeneous, and the
  graded ranks they imply pass the Betti-table checks.
* Divisors: degree kept, reduced form non-negative off q and burnt whole,
  input minus output in the Laplacian lattice (exact Fraction solve), and
  every equivalence verdict agrees with that solve.
* verify: exit code 0 and one `ok` line per oracle.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

PRIME = 32003
ORACLES = ("complex", "hilbert", "schreyer", "hochster", "flags")


# ---------------------------------------------------------------------------
# graph helpers

def simple_edges(edges):
    return sorted({(min(u, v), max(u, v)) for u, v in edges})


def multiplicities(n, edges):
    mult = [[0] * n for _ in range(n)]
    for u, v in edges:
        mult[u][v] += 1
        mult[v][u] += 1
    return mult


def laplacian(n, edges, f):
    out = [0] * n
    for u, v in edges:
        out[u] += f[u] - f[v]
        out[v] += f[v] - f[u]
    return out


def reduced_laplacian(n, edges, q):
    mult = multiplicities(n, edges)
    idx = [v for v in range(n) if v != q]
    return [[sum(mult[u]) if u == v else -mult[u][v] for v in idx] for u in idx]


def fraction_det(mat):
    a = [[Fraction(x) for x in row] for row in mat]
    size = len(a)
    det = Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, size):
            fac = a[r][c] / a[c][c]
            if fac:
                a[r] = [x - fac * y for x, y in zip(a[r], a[c])]
    return det


def fraction_solve(mat, rhs):
    """x with mat x = rhs, mat square and invertible."""
    size = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(mat, rhs)]
    for c in range(size):
        piv = next(r for r in range(c, size) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        for r in range(size):
            if r != c and a[r][c]:
                fac = a[r][c] / a[c][c]
                a[r] = [x - fac * y for x, y in zip(a[r], a[c])]
    return [a[r][size] / a[r][r] for r in range(size)]


def spanning_trees(n, edges):
    if n == 1:
        return 1
    return int(fraction_det(reduced_laplacian(n, edges, 0)))


def equivalent(n, edges, q, d1, d2):
    """d1 ~ d2 iff equal degree and L_q x = (d1 - d2) off q has an integer x."""
    if sum(d1) != sum(d2):
        return False
    if n == 1:
        return True
    diff = [a - b for v, (a, b) in enumerate(zip(d1, d2)) if v != q]
    x = fraction_solve(reduced_laplacian(n, edges, q), diff)
    return all(c.denominator == 1 for c in x)


def burns_whole(n, mult, q, d):
    """Dhar's fire from q burns every vertex: no non-empty set avoiding q can
    fire without sending a vertex negative."""
    burnt = {q}
    grew = True
    while grew:
        grew = False
        for v in range(n):
            if v not in burnt and sum(mult[v][w] for w in burnt) > d[v]:
                burnt.add(v)
                grew = True
    return len(burnt) == n


def is_reduced(n, mult, q, d):
    return all(d[v] >= 0 for v in range(n) if v != q) and burns_whole(n, mult, q, d)


def chromatic_linear_coefficient(n, simple):
    """a_1 of the chromatic polynomial P(G, k) = sum a_i k^i, by
    deletion-contraction: a_1(G) = a_1(G - e) - a_1(G / e)."""
    memo = {}

    def a1(verts, edges):
        if not edges:
            return 1 if verts == 1 else 0
        key = (verts, edges)
        if key not in memo:
            u, v = min(edges)
            deleted = edges - {(u, v)}

            def img(x):           # contract v into u, then close the gap at v
                x = u if x == v else x
                return x - 1 if x > v else x

            contracted = frozenset((min(a, b), max(a, b)) for a, b in
                                   ((img(x), img(y)) for x, y in deleted) if a != b)
            memo[key] = a1(verts, deleted) - a1(verts - 1, contracted)
        return memo[key]

    return a1(n, frozenset(simple))


def stirling2(n, k):
    """Set partitions of n elements into k blocks."""
    alternating = sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1))
    return alternating // math.factorial(k)


# ---------------------------------------------------------------------------
# Betti tables

def betti_totals(z_graded):
    out = {}
    for (i, _), c in z_graded.items():
        out[i] = out.get(i, 0) + c
    return out


def check_z_table(n, edges, simple, z, closed):
    m = len(edges)
    totals = betti_totals(z)
    if z.get((0, 0)) != 1 or any(c <= 0 for c in z.values()):
        return f"bad beta_0 or non-positive entry: {sorted(z.items())}"
    top = totals.get(n - 1, 0)
    a1 = abs(chromatic_linear_coefficient(n, simple))
    if n > 1 and top != a1:
        return f"beta_{n - 1} = {top}, chromatic linear coefficient {a1}"
    if max(j - i for i, j in z) != m - n + 1:
        return f"max(j - i) = {max(j - i for i, j in z)}, genus {m - n + 1}"
    # K(t) = sum (-1)^i beta_ij t^j; divide by (1 - t) n - 1 times
    coeffs = [0] * (max(j for _, j in z) + 1)
    for (i, j), c in z.items():
        coeffs[j] += -c if i % 2 else c
    for _ in range(n - 1):
        if sum(coeffs) != 0:
            return "K(t) is not divisible by (1 - t)^(n - 1)"
        # p(t) = (1 - t) s(t)  =>  s_j = sum_{l <= j} p_l
        acc, quot = 0, []
        for c in coeffs[:-1]:
            acc += c
            quot.append(acc)
        coeffs = quot
    trees = spanning_trees(n, edges)
    if sum(coeffs) != trees:
        return f"K(t)/(1-t)^(n-1) at 1 is {sum(coeffs)}, spanning trees {trees}"
    if "banana" in closed and z != {(0, 0): 1, (1, closed["banana"]): 1}:
        return f"banana table {sorted(z.items())}"
    want = None
    if "cycle" in closed:
        want = {i: i * math.comb(n, i + 1) for i in range(1, n)}
    elif "complete" in closed:
        want = {i: math.factorial(i) * stirling2(n, i + 1) for i in range(1, n)}
    got = {i: c for i, c in totals.items() if i >= 1}
    if want is not None and got != want:
        return f"closed form {want} != {got}"
    return None


def check_betti_table(n, edges, q, simple, z, pic, closed, seen_totals=None):
    """`seen_totals` is shared by one graph's jobs at its base vertices."""
    bad = check_z_table(n, edges, simple, z, closed)
    if bad:
        return bad
    mult = multiplicities(n, edges)
    by_degree = {}
    for (i, cls), c in pic.items():
        rep = cls.rep
        if not is_reduced(n, mult, q, rep):
            return f"Pic class {rep} at i={i} is not q-reduced"
        key = (i, sum(rep))
        by_degree[key] = by_degree.get(key, 0) + c
    if by_degree != z:
        return "Pic-graded table does not sum to the Z-graded one"
    if seen_totals is not None:
        totals = betti_totals(z)
        first = seen_totals.setdefault("totals", totals)
        if first != totals:
            return f"totals {totals} differ from {first} at another base vertex"
    return None


# ---------------------------------------------------------------------------
# resolutions

_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?$")


def parse_poly(text, n):
    """Inverse of the printed form `c*x1^2*x3 - x2 + ...`, coefficients mod p."""
    poly = {}
    sign = 1
    for tok in text.split(" "):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff, exps = 1, [0] * n
        for factor in tok.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            hit = _FACTOR.match(factor)
            if hit is None:
                raise ValueError(f"bad factor {factor!r}")
            exps[int(hit.group(1)) - 1] += int(hit.group(2) or 1)
        key = tuple(exps)
        poly[key] = (poly.get(key, 0) + sign * coeff) % PRIME
        sign = 1
    return {e: c for e, c in poly.items() if c}


def poly_product(p1, p2):
    out = {}
    for e1, c1 in p1.items():
        for e2, c2 in p2.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % PRIME
    return {e: c for e, c in out.items() if c}


def parse_resolution(text, n):
    """[(rows, cols, {(r, c): poly})] per differential."""
    mats = []
    for line in text.splitlines():
        head, rest = line.split(" ", 1)
        if head == "phi":
            _, rows, cols = (int(x) for x in rest.split())
            mats.append((rows, cols, {}))
        else:
            c, poly = rest.split(" ", 1)
            mats[-1][2][(int(head), int(c))] = parse_poly(poly, n)
    return mats


def _homogeneous_degree(poly):
    degs = {sum(e) for e in poly}
    return degs.pop() if len(degs) == 1 else None


def check_resolution_text(n, edges, q, simple, text, closed):
    mats = parse_resolution(text, n)
    if not mats or mats[0][0] != 1:
        return "phi_0 must have one row"
    col_deg = []                     # col_deg[t][c]: Z-degree of basis element c of F_t
    for t, (rows, cols, entries) in enumerate(mats):
        if t and rows != mats[t - 1][1]:
            return f"phi_{t} has {rows} rows, F_{t - 1} has rank {mats[t - 1][1]}"
        row_deg = [0] if t == 0 else col_deg[t - 1]
        degs = [None] * cols
        for (r, c), poly in entries.items():
            d = _homogeneous_degree(poly)
            if d is None or d == 0:
                return f"phi_{t} entry ({r},{c}) is constant or not homogeneous"
            if degs[c] not in (None, d + row_deg[r]):
                return f"phi_{t} column {c} is not homogeneous"
            degs[c] = d + row_deg[r]
        if None in degs:
            return f"phi_{t} has a zero column"
        col_deg.append(degs)
    for t in range(1, len(mats)):
        lower = mats[t - 1][2]
        by_col = {}
        for (r, c), poly in mats[t][2].items():
            by_col.setdefault(c, []).append((r, poly))
        lower_by_row = {}
        for (r2, r), poly in lower.items():
            lower_by_row.setdefault(r, []).append((r2, poly))
        for c, col in by_col.items():
            acc = {}
            for r, poly in col:
                for r2, low in lower_by_row.get(r, ()):
                    prod = poly_product(low, poly)
                    cur = acc.setdefault(r2, {})
                    for e, x in prod.items():
                        cur[e] = (cur.get(e, 0) + x) % PRIME
            if any(any(cur.values()) for cur in acc.values()):
                return f"phi_{t - 1} . phi_{t} is nonzero at column {c}"
    z = {(0, 0): 1}
    for t, degs in enumerate(col_deg):
        for d in degs:
            z[(t + 1, d)] = z.get((t + 1, d), 0) + 1
    return check_z_table(n, edges, simple, z, closed)


# ---------------------------------------------------------------------------
# divisors

def check_divisor_job(n, edges, q, d, d2, d3, out):
    red, eq12, eq23 = out
    mult = multiplicities(n, edges)
    if sum(red) != sum(d):
        return f"q_reduce changed the degree: {d} -> {red}"
    if not is_reduced(n, mult, q, red):
        return f"q_reduce output {red} is not q-reduced"
    if not equivalent(n, edges, q, d, red):
        return f"{d} - {red} is not in the Laplacian lattice"
    for name, got, a, b in (("d ~ d2", eq12, d, d2), ("d2 ~ d3", eq23, d2, d3)):
        if got != equivalent(n, edges, q, a, b):
            return f"linearly_equivalent says {got} for {name}"
    return None


# ---------------------------------------------------------------------------
# verify

def check_verify_output(out):
    code, stdout, stderr = out
    if code != 0:
        return f"exit code {code}: {stderr.strip()}"
    lines = stdout.split("\n")
    want = [f"{name} ok" for name in ORACLES] + [""]
    if lines != want:
        return f"output {lines} != {want}"
    return None
