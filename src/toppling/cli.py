"""Command-line front door: parse graphs, dispatch computations, emit tables,
matrices, and DOT figures.

Exit codes: 0 success, 1 validation/parse failure, 2 internal verification
failure.  Every self-check raises a `resolution.ResolutionError` or an
`oracle.OracleError` with its first failure, a merge of the closed form that
misses S_{k-1} raises a `flags.MergeError`, and `main` maps those three base
classes, and only those, to exit 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .divisors import (
    acyclic_orientations_unique_source,
    linear_system,
    linearly_equivalent,
    q_reduce,
)
from .fields import get_field
from .flags import (
    MergeError,
    enumerate_minimal_flags,
    flag_orientation,
    validate_flag,
)
from .graphs import PointedGraph, bfs_term_order, build_graph
from .oracle import (
    OracleError,
    brute_force_class_count,
    hochster_betti,
    minimalize,
    schreyer_resolution,
)
from .resolution import (
    IdentityViolation,
    VARIANTS,
    ResolutionError,
    betti_table,
    build_resolution,
    build_resolutions,
    format_resolution,
    groebner_basis,
    hilbert_check,
    verify_resolution,
)
from .poly import format_poly


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# input parsing

def parse_graph_file(path) -> PointedGraph:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


def parse_graph_json(text) -> PointedGraph:
    data = json.loads(text)
    try:
        n, q = data["n"], data["q"]
        edges = [(*e, 1) if len(e) == 2 else tuple(e) for e in data["edges"]]
        # bool is an int subclass, and JSON true is not a vertex or multiplicity
        bad = [x for x in (n, q, *(x for e in edges for x in e)) if type(x) is not int]
        if bad:
            raise ParseError(f"{bad[0]!r} is not an integer")
        edges = [(u - 1, v - 1, w) for u, v, w in edges]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph JSON: {exc}") from exc
    return build_graph(n, edges, q - 1)


def parse_graph_text(text) -> PointedGraph:
    n = None
    q = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "v" and len(fields) == 2:
                n = int(fields[1])
            elif fields[0] == "q" and len(fields) == 2:
                q = int(fields[1]) - 1
            elif fields[0] == "e" and len(fields) in (3, 4):
                u, v = int(fields[1]) - 1, int(fields[2]) - 1
                edges.append((u, v, int(fields[3]) if len(fields) == 4 else 1))
            else:
                raise ValueError("unrecognized directive")
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise ParseError("missing `v n` line")
    if q is None:
        raise ParseError("missing `q vertex` line")
    return build_graph(n, edges, q)


def parse_flag_literal(g: PointedGraph, text):
    """`{1}<{1,2}<{1,2,3,4}` -> validated ConnectedFlag (1-based input)."""
    chain = []
    for piece in text.split("<"):
        piece = piece.strip()
        if not (piece.startswith("{") and piece.endswith("}")):
            raise ParseError(f"bad set literal {piece!r}")
        body = piece[1:-1].strip()
        try:
            members = [int(x) - 1 for x in body.split(",")] if body else []
        except ValueError as exc:
            raise ParseError(f"bad set literal {piece!r}") from exc
        chain.append(frozenset(members))
    return validate_flag(g, chain)


def parse_divisor(g: PointedGraph, text):
    # space-separated integers in vertex order; commas tolerated
    try:
        vals = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError as exc:
        raise ParseError(f"bad divisor {text!r}") from exc
    if len(vals) != g.n:
        raise ParseError(f"divisor has {len(vals)} entries, graph has {g.n}")
    return vals


def format_divisor(d):
    return " ".join(str(x) for x in d)


# ---------------------------------------------------------------------------
# emission helpers

def emit_betti(bt, grading):
    lines = []
    if grading == "Z":
        for (i, j), c in sorted(bt.z_graded.items()):
            lines.append(f"{i}\t{j}\t{c}")
    else:
        for (i, j), c in sorted(bt.pic_graded.items(),
                                key=lambda kv: (kv[0][0], kv[0][1].rep)):
            lines.append(f"{i}\t{format_divisor(j.rep)}\t{c}")
    return "\n".join(lines) + "\n"


def emit_dot(g: PointedGraph, arcs):
    lines = ["digraph G {"]
    for u, v in g.adjacent_pairs():
        if (u, v) in arcs:
            line = f"  {u + 1} -> {v + 1}"
        elif (v, u) in arcs:
            line = f"  {v + 1} -> {u + 1}"
        else:
            line = f"  {u + 1} -> {v + 1} [dir=none]"
        lines += [line] * g.mult[u][v]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verbs

def _cmd_betti(g, args):
    return emit_betti(betti_table(g), args.grading)


def _cmd_resolution(g, args):
    field = get_field(args.field)
    res = build_resolution(g, variant=args.variant, field=field)
    return format_resolution(res)


def _cmd_groebner(g, args):
    # generators are +-1 binomials; print them with integer signs no matter
    # which field the heavy computations use
    field = get_field("rational")
    order = bfs_term_order(g)
    lines = [format_poly(b.poly(field), order, g.n) for b in groebner_basis(g)]
    return "\n".join(lines) + "\n"


def _cmd_flags(g, args):
    basis = enumerate_minimal_flags(g, args.k)
    return "\n".join(uc.literal() for uc in basis) + "\n"


def _cmd_reduce(g, args):
    d = parse_divisor(g, args.divisor)
    return format_divisor(q_reduce(g, g.q, d)) + "\n"


def _cmd_equiv(g, args):
    d1 = parse_divisor(g, args.divisor)
    d2 = parse_divisor(g, args.divisor2)
    return ("equivalent" if linearly_equivalent(g, d1, d2)
            else "inequivalent") + "\n"


def _cmd_linsys(g, args):
    d = parse_divisor(g, args.divisor)
    members = linear_system(g, d)
    return "\n".join(format_divisor(e) for e in members) + "\n"


def _cmd_orientations(g, args):
    out = []
    for o in acyclic_orientations_unique_source(g):
        arcs = sorted((u + 1, v + 1) for u, v in o)
        out.append(" ".join(f"{u}->{v}" for u, v in arcs))
    return "\n".join(sorted(out)) + "\n"


def _cmd_export_dot(g, args):
    uc = parse_flag_literal(g, args.flag)
    return emit_dot(g, flag_orientation(g, uc))


def _cmd_verify(g, args):
    field = get_field(args.field)
    which = args.oracle
    lines = []

    def want(name):
        return which in ("all", name)

    if want("complex"):
        verify_resolution(*build_resolutions(g, field=field))
        lines.append("complex ok")
    if want("hilbert") or want("schreyer") or want("hochster"):
        bt = betti_table(g)
    if want("hilbert"):
        hilbert_check(g, bt)
        lines.append("hilbert ok")
    if want("schreyer"):
        # the first Schreyer step raises NotGroebner if an S-pair of the
        # basis has a remainder
        sres = schreyer_resolution(g, groebner_basis(g), field=field)
        if minimalize(sres).pic_graded != bt.pic_graded:
            raise IdentityViolation("Schreyer oracle disagrees with flag count")
        lines.append("schreyer ok")
    if want("hochster"):
        top = g.n - 1
        for (i, j), c in bt.pic_graded.items():
            if i == top and hochster_betti(g, i, j.rep, field) != c:
                raise IdentityViolation(f"Hochster mismatch at {j}")
        lines.append("hochster ok")
    if want("flags"):
        for k in range(1, g.n + 1):
            got = brute_force_class_count(g, k)
            expect = 1 if k == 1 else len(enumerate_minimal_flags(g, k))
            if got != expect:
                raise IdentityViolation(f"flag-class count mismatch at k={k}")
        lines.append("flags ok")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument wiring

class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 1) instead of exiting with 2,
    the code kept for verification failures."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(prog="toppling")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--graph", required=True)
        p.add_argument("--q", type=int, default=None,
                       help="1-based override of the base vertex")
        p.add_argument("--output", default=None)

    p = sub.add_parser("betti")
    common(p)
    p.add_argument("--grading", choices=("Z", "Pic"), default="Z")

    p = sub.add_parser("resolution")
    common(p)
    p.add_argument("--field", default="prime")
    p.add_argument("--variant", choices=VARIANTS, default="binomial")

    p = sub.add_parser("groebner")
    common(p)

    p = sub.add_parser("flags")
    common(p)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("reduce")
    common(p)
    p.add_argument("--divisor", required=True)

    p = sub.add_parser("equiv")
    common(p)
    p.add_argument("--divisor", required=True)
    p.add_argument("--divisor2", required=True)

    p = sub.add_parser("linsys")
    common(p)
    p.add_argument("--divisor", required=True)

    p = sub.add_parser("orientations")
    common(p)

    p = sub.add_parser("verify")
    common(p)
    p.add_argument("--field", default="prime")
    p.add_argument("--oracle", default="all",
                   choices=("all", "complex", "hilbert", "schreyer",
                            "hochster", "flags"))

    p = sub.add_parser("export-dot")
    common(p)
    p.add_argument("--flag", required=True)
    return parser


@functools.cache
def _parser():
    """One parser per process, built at the first `main` call: parse_args
    keeps no state between calls, and the tree of ten verbs costs about as
    much to build as a small verb takes to run."""
    return build_parser()


_DISPATCH = {
    "betti": _cmd_betti,
    "resolution": _cmd_resolution,
    "groebner": _cmd_groebner,
    "flags": _cmd_flags,
    "reduce": _cmd_reduce,
    "equiv": _cmd_equiv,
    "linsys": _cmd_linsys,
    "orientations": _cmd_orientations,
    "verify": _cmd_verify,
    "export-dot": _cmd_export_dot,
}


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        g = parse_graph_file(args.graph)
        if args.q is not None:
            g = PointedGraph(g.n, g.mult, args.q - 1)
            if not 0 <= g.q < g.n:
                raise ParseError(f"q={args.q} out of range")
        text = _DISPATCH[args.verb](g, args)
        # written in one shot so partial output never lands on disk
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ResolutionError, OracleError, MergeError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
