import contextlib
import copy
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete, cycle, reference_linear_system
from toppling import cli, flags, oracle, resolution
from toppling.cli import (
    ParseError,
    format_divisor,
    main,
    parse_divisor,
    parse_flag_literal,
    parse_graph_file,
)
from toppling.flags import MissingQ, NotIncreasing
from toppling.graphs import TermOrder, bfs_order, build_graph
from toppling.poly import add_into, poly_add
from toppling.resolution import CompositionNonzero, IdentityViolation, betti_table

C4_TEXT = """\
# 4-cycle with edges 1-2, 1-3, 2-4, 3-4
v 4
q 1
e 1 2
e 1 3
e 2 4
e 3 4
"""

C4_JSON = {"n": 4, "q": 1, "edges": [[1, 2], [1, 3], [2, 4], [3, 4]]}

BETTI_GOLDEN = "0\t0\t1\n1\t2\t6\n2\t3\t8\n3\t4\t3\n"

# base vertex 2; edge 1-2 doubled, and 1-3 inside the part {1,3} of the
# flag {2} < {2,4} < {1,2,3,4}
MULTI_TEXT = "v 4\nq 2\ne 1 2 2\ne 1 3\ne 3 4\ne 2 4\n"


@pytest.fixture
def c4_file(tmp_path):
    p = tmp_path / "c4.txt"
    p.write_text(C4_TEXT)
    return str(p)


@pytest.fixture
def c4_json_file(tmp_path):
    p = tmp_path / "c4.json"
    p.write_text(json.dumps(C4_JSON))
    return str(p)


class TestParsing:
    def test_text_and_json_agree(self, c4_file, c4_json_file):
        g1 = parse_graph_file(c4_file)
        g2 = parse_graph_file(c4_json_file)
        assert g1.mult == g2.mult and g1.q == g2.q

    def test_multiplicity_column(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("v 2\nq 1\ne 1 2 3\n")
        assert parse_graph_file(str(p)).m == 3

    def test_line_number_in_error(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("v 4\nq 1\nz 9\n")
        with pytest.raises(ParseError, match="line 3"):
            parse_graph_file(str(p))

    def test_missing_q_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("v 2\ne 1 2\n")
        with pytest.raises(ParseError, match="q"):
            parse_graph_file(str(p))

    def test_flag_literal(self, c4_file):
        g = parse_graph_file(c4_file)
        uc = parse_flag_literal(g, "{1}<{1,2}<{1,2,3}<{1,2,3,4}")
        assert uc.k == 4

    def test_flag_literal_missing_q(self, c4_file):
        g = parse_graph_file(c4_file)
        with pytest.raises(MissingQ):
            parse_flag_literal(g, "{2}<{1,2,3,4}")

    def test_flag_literal_not_increasing(self, c4_file):
        g = parse_graph_file(c4_file)
        with pytest.raises(NotIncreasing):
            parse_flag_literal(g, "{1}<{1}<{1,2,3,4}")

    def test_flag_literal_garbage(self, c4_file):
        g = parse_graph_file(c4_file)
        with pytest.raises(ParseError):
            parse_flag_literal(g, "1,2<{1,2,3,4}")

    def test_divisor_round_trip(self, c4_file):
        g = parse_graph_file(c4_file)
        d = (0, -2, 3, 1)
        assert parse_divisor(g, format_divisor(d)) == d

    def test_divisor_commas_tolerated(self, c4_file):
        g = parse_graph_file(c4_file)
        assert parse_divisor(g, "0, 2, 0, 0") == (0, 2, 0, 0)

    def test_divisor_length_mismatch(self, c4_file):
        g = parse_graph_file(c4_file)
        with pytest.raises(ParseError):
            parse_divisor(g, "1 2 3")


class TestVerbs:
    def test_betti_golden(self, c4_file, capsys):
        assert main(["betti", "--graph", c4_file]) == 0
        assert capsys.readouterr().out == BETTI_GOLDEN

    def test_betti_pic_rows(self, c4_file, capsys):
        assert main(["betti", "--graph", c4_file, "--grading", "Pic"]) == 0
        out = capsys.readouterr().out
        assert "3\t4 0 0 0\t1" in out
        assert "1\t1 0 0 1\t2" in out

    def test_groebner(self, c4_file, capsys):
        assert main(["groebner", "--graph", c4_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "x4^2 - x2*x3" in lines
        assert "x2*x3 - x1^2" in lines
        assert len(lines) == 6

    def test_flags(self, c4_file, capsys):
        assert main(["flags", "--graph", c4_file, "--k", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            "{1} < {1,2} < {1,2,3} < {1,2,3,4}",
            "{1} < {1,2} < {1,2,4} < {1,2,3,4}",
            "{1} < {1,3} < {1,3,4} < {1,2,3,4}",
        ]

    def test_reduce(self, c4_file, capsys):
        assert main(["reduce", "--graph", c4_file, "--divisor", "0 2 0 0"]) == 0
        assert capsys.readouterr().out == "1 0 0 1\n"

    def test_equiv(self, c4_file, capsys):
        assert main(["equiv", "--graph", c4_file, "--divisor", "0 2 0 0",
                     "--divisor2", "1 0 0 1"]) == 0
        assert capsys.readouterr().out == "equivalent\n"
        assert main(["equiv", "--graph", c4_file, "--divisor", "0 1 0 0",
                     "--divisor2", "0 0 1 0"]) == 0
        assert capsys.readouterr().out == "inequivalent\n"

    def test_linsys(self, c4_file, capsys):
        assert main(["linsys", "--graph", c4_file, "--divisor", "0 2 0 0"]) == 0
        assert capsys.readouterr().out == "0 0 2 0\n0 2 0 0\n1 0 0 1\n"

    def test_orientations(self, c4_file, capsys):
        assert main(["orientations", "--graph", c4_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert "1->2 1->3 2->4 3->4" in lines

    def test_resolution_header(self, c4_file, capsys):
        assert main(["resolution", "--graph", c4_file]) == 0
        out = capsys.readouterr().out
        assert "phi 0 1 6" in out and "phi 2 8 3" in out

    def test_export_dot(self, c4_file, capsys):
        assert main(["export-dot", "--graph", c4_file,
                     "--flag", "{1}<{1,2}<{1,2,3}<{1,2,3,4}"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph G {")
        assert "  1 -> 2" in out and "  3 -> 4" in out

    def test_orientations_golden(self, c4_file, capsys):
        assert main(["orientations", "--graph", c4_file]) == 0
        assert capsys.readouterr().out == (
            "1->2 1->3 2->4 3->4\n1->2 1->3 2->4 4->3\n1->2 1->3 3->4 4->2\n")

    def test_export_dot_golden(self, tmp_path, capsys):
        p = tmp_path / "multi.txt"
        p.write_text(MULTI_TEXT)
        assert main(["export-dot", "--graph", str(p),
                     "--flag", "{2}<{2,4}<{1,2,3,4}"]) == 0
        assert capsys.readouterr().out == (
            "digraph G {\n"
            "  2 -> 1\n"
            "  2 -> 1\n"
            "  1 -> 3 [dir=none]\n"
            "  2 -> 4\n"
            "  4 -> 3\n"
            "}\n")

    def test_export_dot_needs_flag(self, c4_file, capsys):
        assert main(["export-dot", "--graph", c4_file]) == 1

    def test_output_file(self, c4_file, tmp_path, capsys):
        dest = tmp_path / "out.tsv"
        assert main(["betti", "--graph", c4_file, "--output", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        assert dest.read_text() == BETTI_GOLDEN

    def test_q_override(self, c4_file, capsys):
        # Betti numbers do not depend on the base vertex
        assert main(["betti", "--graph", c4_file, "--q", "3"]) == 0
        assert capsys.readouterr().out == BETTI_GOLDEN

    def test_q_override_out_of_range(self, c4_file, capsys):
        assert main(["betti", "--graph", c4_file, "--q", "9"]) == 1


def graph_text(g):
    """g in the text format: every edge with its multiplicity, and q."""
    edges = [f"e {u + 1} {v + 1} {g.mult[u][v]}\n"
             for u in range(g.n) for v in range(u + 1, g.n) if g.mult[u][v]]
    return f"v {g.n}\nq {g.q + 1}\n" + "".join(edges)


class TestLinsysAgainstReference:
    def test_byte_identical(self, graph_corpus, tmp_path, capsys):
        # seeded divisors on the corpus at every base vertex, and the
        # top-row classes of K5 and C6
        rng = random.Random(15)
        cases = []
        for n, edges in graph_corpus:
            for q in range(n):
                g = build_graph(n, edges, q)
                cases += [(g, tuple(rng.randint(-2, 4) for _ in range(n))) for _ in range(2)]
        for g in (complete(5), cycle(6)):
            cases += [(g, cls.rep) for i, cls in betti_table(g).pic_graded if i == g.n - 1]
        path = tmp_path / "g.txt"
        for g, d in cases:
            path.write_text(graph_text(g))
            assert main(["linsys", "--graph", str(path), "--divisor", format_divisor(d)]) == 0
            want = "".join(format_divisor(e) + "\n" for e in reference_linear_system(g, d))
            assert capsys.readouterr().out == (want or "\n")


class TestVerify:
    def test_all_oracles(self, c4_file, capsys):
        assert main(["verify", "--graph", c4_file]) == 0
        out = capsys.readouterr().out
        for name in ("complex", "hilbert", "schreyer", "hochster", "flags"):
            assert f"{name} ok" in out

    def test_single_oracle(self, c4_file, capsys):
        assert main(["verify", "--graph", c4_file, "--oracle", "hilbert"]) == 0
        assert capsys.readouterr().out == "hilbert ok\n"

    def test_rational_field(self, c4_file, capsys):
        assert main(["verify", "--graph", c4_file, "--field", "rational",
                     "--oracle", "schreyer"]) == 0

    @pytest.mark.parametrize("p", ["2", "3"])
    def test_small_characteristic(self, c4_file, capsys, p):
        # the Betti numbers do not depend on the characteristic
        assert main(["verify", "--graph", c4_file, "--field", f"prime:{p}"]) == 0
        assert capsys.readouterr().out == \
            "complex ok\nhilbert ok\nschreyer ok\nhochster ok\nflags ok\n"

    def test_hochster_takes_the_field(self, c4_file, monkeypatch):
        real = oracle.reduced_homology_dims
        fields = []

        def spy(c, field=None):
            fields.append(field)
            return real(c, field)

        monkeypatch.setattr(oracle, "reduced_homology_dims", spy)
        assert main(["verify", "--graph", c4_file, "--oracle", "hochster",
                     "--field", "prime:2"]) == 0
        assert fields and all(repr(f) == "GF(2)" for f in fields)

    def test_one_betti_table(self, c4_file, capsys, monkeypatch):
        # the Hilbert, Schreyer and Hochster oracles share one table, and no
        # check builds its own inside `resolution`
        calls = []
        real = resolution.betti_table

        def counted(g):
            calls.append(g)
            return real(g)
        monkeypatch.setattr(cli, "betti_table", counted)
        monkeypatch.setattr(resolution, "betti_table", counted)
        assert main(["verify", "--graph", c4_file, "--oracle", "all"]) == 0
        assert len(calls) == 1

    def test_internal_failure_exit_code(self, c4_file, capsys, monkeypatch):
        def boom(g, bt):
            raise IdentityViolation("forced")
        monkeypatch.setattr(cli, "hilbert_check", boom)
        assert main(["verify", "--graph", c4_file, "--oracle", "hilbert"]) == 2
        assert "verification failure" in capsys.readouterr().err

    def test_schreyer_lead_failure_exit_code(self, c4_file, capsys, monkeypatch):
        # a quotient term above the S-pair's lead breaks the Schreyer lead check
        real = oracle.Division.reduce

        def skewed(division, seeds):
            quotients, rem = real(division, seeds)
            skew = {(0, (9, 9, 9, 9)): division.field.one}
            return poly_add(division.field, quotients, skew), rem
        monkeypatch.setattr(oracle.Division, "reduce", skewed)
        assert main(["verify", "--graph", c4_file, "--oracle", "schreyer"]) == 2
        assert "leads with" in capsys.readouterr().err

    def test_schreyer_rejects_non_groebner_basis(self, c4_file, capsys, monkeypatch):
        # without its first element the basis leaves an S-pair remainder,
        # which the first Schreyer step reports
        real = cli.groebner_basis
        monkeypatch.setattr(cli, "groebner_basis", lambda g: real(g)[1:])
        assert main(["verify", "--graph", c4_file, "--oracle", "schreyer"]) == 2
        assert "verification failure" in capsys.readouterr().err

    @pytest.mark.parametrize("which, name", [
        ("complex", "verify_resolution"),
        ("schreyer", "minimalize"),
        ("hochster", "hochster_betti"),
        ("flags", "brute_force_class_count"),
    ])
    def test_oracle_disagreement_exit_code(self, c4_file, capsys, monkeypatch,
                                           which, name):
        real = getattr(cli, name)

        def higher_lead(*resolutions):
            # x^(9,9,9,9) at row 0 outranks the lead of column 0 of phi_1 in
            # the last resolution (the monomial one), the others left intact
            bad = copy.deepcopy(resolutions[-1])
            add_into(bad.field, bad.diffs[1][0], {(0, (9, 9, 9, 9)): bad.field.one})
            return real(*resolutions[:-1], bad)

        def one_extra(sres):
            bt = real(sres)
            bt.pic_graded[next(iter(bt.pic_graded))] += 1
            return bt

        wrong = {
            "verify_resolution": higher_lead,
            "minimalize": one_extra,
            "hochster_betti": lambda g, i, d, field: -1,
            "brute_force_class_count": lambda g, k: -1,
        }
        monkeypatch.setattr(cli, name, wrong[name])
        assert main(["verify", "--graph", c4_file, "--oracle", which]) == 2
        assert "verification failure" in capsys.readouterr().err

    def test_composition_failure_exit_code(self, c4_file, capsys, monkeypatch):
        # one merge with the wrong sign breaks phi_0 . phi_1 = 0, which
        # build_resolution itself must catch: verify_resolution does not recheck it
        real = resolution._merge_terms

        def flip_first_sign():
            calls = itertools.count()

            def flipped(g, uc):
                for a, b, row, theta, sign, from_reversal in real(g, uc):
                    yield a, b, row, theta, -sign if next(calls) == 0 else sign, from_reversal
            monkeypatch.setattr(resolution, "_merge_terms", flipped)

        flip_first_sign()
        with pytest.raises(CompositionNonzero):
            resolution.build_resolution(parse_graph_file(c4_file))
        flip_first_sign()
        assert main(["verify", "--graph", c4_file, "--oracle", "complex"]) == 2
        assert "phi_0 . phi_1 nonzero" in capsys.readouterr().err


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_calls_match_first_calls(self, c4_file, capsys):
        # each call in one process prints and exits as it does as the first
        # call of a fresh process: no state leaks through the shared parser
        calls = [
            ["betti", "--graph", c4_file, "--grading", "Pic"],
            ["betti", "--graph", c4_file],
            ["betti", "--graph", c4_file, "--grading", "Q"],
            ["verify", "--graph", c4_file],
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        first = [subprocess.run([sys.executable, "-m", "toppling.cli", *argv],
                                capture_output=True, text=True, env=env, timeout=60)
                 for argv in calls]
        assert [p.returncode for p in first] == [0, 0, 1, 0]
        for argv, fresh in zip(calls, first):
            code = main(argv)
            out, err = capsys.readouterr()
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestExitCodes:
    def test_merge_off_basis_exit_code(self, c4_file, capsys, monkeypatch):
        # a merged flag outside S_{k-1} is a failure of the closed form, not
        # bad input
        real = flags._peel

        def off_basis(parts, succ, rank):
            chain, order = real(parts, succ, rank)
            return chain[::-1], order
        monkeypatch.setattr(flags, "_peel", off_basis)
        assert main(["resolution", "--graph", c4_file]) == 2
        assert "has no class representative" in capsys.readouterr().err

    def test_groebner_lead_flip_exit_code(self, c4_file, capsys, monkeypatch):
        # under the reversed BFS priority x2x3 outranks x4^2, so the basis
        # check that the lead side leads fails: an internal failure, not bad input
        monkeypatch.setattr(resolution, "bfs_term_order",
                            lambda g: TermOrder(tuple(reversed(bfs_order(g, g.q)))))
        assert main(["groebner", "--graph", c4_file]) == 2
        err = capsys.readouterr().err
        assert err == "verification failure: (0, 0, 0, 2) vs (0, 1, 1, 0)\n"

    def test_bad_divisor_length(self, c4_file, capsys):
        assert main(["reduce", "--graph", c4_file, "--divisor", "0 2 0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["betti", "--graph", "no-such-file.txt"]) == 1

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{"n": 4}')
        assert main(["betti", "--graph", str(p)]) == 1

    @pytest.mark.parametrize("name, body, named", [
        ("n.json", '{"n": "4", "q": 1, "edges": [[1, 2], [1, 3], [2, 4], [3, 4]]}',
         "'4'"),
        ("f.json", '{"n": 4, "q": 1, "edges": [[1.5, 2], [1, 3], [2, 4], [3, 4]]}',
         "1.5"),
        ("b.json", '{"n": 4, "q": 1, "edges": [[1, 2, true], [1, 3], [2, 4], [3, 4]]}',
         "True"),
        ("z.json", '{"n": 4, "q": 1, "edges": [[1, 2, 0], [1, 3], [2, 4], [3, 4]]}',
         "multiplicity 0"),
        ("z.txt", "v 4\nq 1\ne 1 2 0\ne 1 3\ne 2 4\ne 3 4\n", "multiplicity 0"),
        # vertices are named 1-based, as in the input
        ("loop.txt", "v 3\nq 1\ne 1 2\ne 1 1\ne 2 3\n", "error: loop at vertex 1\n"),
        ("edge.txt", "v 3\nq 1\ne 1 2\ne 1 9\ne 2 3\n",
         "error: edge (1,9) out of range for n=3\n"),
        ("q.txt", "v 3\nq 5\ne 1 2\ne 2 3\n", "error: q=5 out of range for n=3\n"),
        ("q.json", '{"n": 3, "q": 0, "edges": [[1, 2], [2, 3]]}',
         "error: q=0 out of range for n=3\n"),
    ])
    def test_bad_graph_values(self, tmp_path, capsys, name, body, named):
        p = tmp_path / name
        p.write_text(body)
        assert main(["betti", "--graph", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_unwritable_output(self, c4_file, tmp_path, capsys):
        dest = tmp_path / "no-such-dir" / "x"
        assert main(["betti", "--graph", c4_file, "--output", str(dest)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not dest.exists()

    def test_flag_vertex_outside_graph(self, c4_file, capsys):
        assert main(["export-dot", "--graph", c4_file,
                     "--flag", "{1,9}<{1,2,3,4}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "vertex 9" in err

    def test_flag_missing_q_is_1_based(self, c4_file, capsys):
        assert main(["export-dot", "--graph", c4_file,
                     "--flag", "{2}<{1,2,3,4}"]) == 1
        assert capsys.readouterr().err == "error: q=1 not in the first set\n"

    def test_usage_errors_exit_1(self, c4_file, capsys):
        # argparse would exit with 2, the code kept for verification failures
        for argv in (["flags", "--graph", c4_file],
                     ["flags", "--graph", c4_file, "--k", "two"],
                     ["betti", "--graph", c4_file, "--variant", "monomial"],
                     ["betti", "--graph", c4_file, "--field", "rational"],
                     ["no-such-verb"]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith("error: toppling")

    @pytest.mark.parametrize("p", ["0", "1", "4", "-7"])
    def test_field_not_prime(self, c4_file, capsys, p):
        for verb in ("resolution", "verify"):
            assert main([verb, "--graph", c4_file, "--field", f"prime:{p}"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_unknown_field_name(self, c4_file, capsys):
        assert main(["resolution", "--graph", c4_file, "--field", "foo"]) == 1
        assert "unknown field 'foo'" in capsys.readouterr().err

    def test_errors_name_the_problem(self, c4_file, capsys):
        assert main(["flags", "--graph", c4_file, "--k", "0"]) == 1
        assert "k=0" in capsys.readouterr().err
        assert main(["export-dot", "--graph", c4_file,
                     "--flag", "{1,4}<{1,2,3,4}"]) == 1
        assert "U_1 = {1,4}" in capsys.readouterr().err


# graph-file fuzzing: connected graphs on at most 6 vertices (build_graph
# allocates an n x n matrix), with up to two values made out of range, of the
# wrong sign or type, or lines dropped or added
junk = st.sampled_from(["", "x", "1.5", "-", "{", "e", "v", "q", "0x3", "#"])
wrong = (st.integers(-2, 6) | st.floats(allow_nan=False, allow_infinity=False)
         | st.booleans() | st.none() | junk | st.lists(st.integers(-2, 6), max_size=4))
wrong_token = st.integers(-2, 6).map(str) | junk


@st.composite
def graph_parts(draw):
    """(n, q, edges), 1-based; an added edge may be a loop."""
    n = draw(st.integers(1, 6))
    edges = [[v, draw(st.integers(1, v - 1))] for v in range(2, n + 1)]
    edges += draw(st.lists(st.lists(st.integers(1, n), min_size=2, max_size=2),
                           max_size=3))
    for e in edges:
        if draw(st.booleans()):
            e.append(draw(st.integers(1, 3)))
    return n, draw(st.integers(1, n)), draw(st.permutations(edges))


@st.composite
def text_graph(draw):
    n, q, edges = draw(graph_parts())
    lines = [["v", str(n)], ["q", str(q)]] + [["e", *map(str, e)] for e in edges]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))     # two edits leave a line
        how = draw(st.sampled_from(["token", "drop", "add"]))
        if how == "add":
            lines.insert(i, draw(st.lists(wrong_token, max_size=4)))
        elif how == "drop":
            del lines[i]
        elif lines[i]:
            lines[i][draw(st.integers(0, len(lines[i]) - 1))] = draw(wrong_token)
    return "".join(" ".join(line) + "\n" for line in lines)


@st.composite
def json_graph(draw):
    n, q, edges = draw(graph_parts())
    data = {"n": n, "q": q, "edges": edges}
    for _ in range(draw(st.integers(0, 2))):
        how = draw(st.sampled_from(["n", "q", "edges", "edge", "drop"]))
        if how == "drop":
            data.pop(draw(st.sampled_from(["n", "q", "edges"])), None)
        elif how != "edge":
            data[how] = draw(wrong)
        elif isinstance(data.get("edges"), list) and data["edges"]:
            data["edges"][draw(st.integers(0, len(data["edges"]) - 1))] = draw(wrong)
    return json.dumps(data)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g"


class TestContractFuzz:
    """Any graph file ends in exit 0 or 1, never a traceback."""

    def run_verbs(self, path, body):
        path.write_text(body)
        for verb in ("betti", "groebner", "orientations"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([verb, "--graph", str(path)])
            assert code in (0, 1), (verb, body, err.getvalue())
            assert "Traceback" not in err.getvalue()

    @settings(max_examples=150, deadline=None)
    @given(body=text_graph())
    def test_text(self, fuzz_path, body):
        self.run_verbs(fuzz_path, body)

    @settings(max_examples=150, deadline=None)
    @given(body=json_graph())
    def test_json(self, fuzz_path, body):
        self.run_verbs(fuzz_path, body)


class TestOneVertex:
    @pytest.fixture
    def k1_file(self, tmp_path):
        p = tmp_path / "k1.txt"
        p.write_text("v 1\nq 1\n")
        return str(p)

    @pytest.mark.parametrize("argv, out", [
        (["resolution"], "phi 0 1 0\n"),
        (["groebner"], "\n"),
        (["betti"], "0\t0\t1\n"),
        (["flags", "--k", "2"], "\n"),
    ])
    def test_verbs(self, k1_file, capsys, argv, out):
        assert main(argv + ["--graph", k1_file]) == 0
        assert capsys.readouterr().out == out

    def test_verify(self, k1_file, capsys):
        assert main(["verify", "--graph", k1_file]) == 0
        assert capsys.readouterr().out == \
            "complex ok\nhilbert ok\nschreyer ok\nhochster ok\nflags ok\n"
