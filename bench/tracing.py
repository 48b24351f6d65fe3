"""Traced mode: wrappers around the layer boundaries of toppling.

Each wrapped function is replaced at every name a toppling module binds it
to, so calls from one module into another are caught as well as calls from
the benchmark.  A span wrapper keeps (name, start, end, parent span, job) in
flat arrays; a counter wrapper only counts, so that functions called hundreds
of thousands of times per round cost the run little.  `fields` is not
wrapped: it is called once per coefficient.

Self time is a span's duration minus the time its direct child spans cover.
Times include the wrappers' own overhead; counts are exact.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array

# module -> functions timed as spans
SPANS = {
    "flags": ("enumerate_minimal_flags", "enumerate_all_connected_flags",
              "merge_records", "record_sign", "record_theta"),
    "divisors": ("acyclic_orientations_unique_source", "q_reduce", "linear_system"),
    "resolution": ("build_resolution", "format_resolution", "betti_table",
                   "buchberger_check", "hilbert_check", "verify_resolution"),
    "poly": ("poly_mul", "poly_division"),
    "oracle": ("schreyer_resolution", "minimalize", "hochster_betti",
               "brute_force_class_count"),
    "cli": ("parse_graph_file", "main"),
}

# metric -> (module, function, innermost span it must be called from or None,
#            whether to add len(result) instead of 1)
COUNTERS = {
    "graphs.connected.calls": ("graphs", "induced_connected", None, False),
    "graphs.orientations.generated": ("graphs", "total_orientations", None, True),
    "divisors.reduce.rounds": ("divisors", "dhar_burn", "q_reduce", False),
    "divisors.fire.calls": ("divisors", "fire_set", "q_reduce", False),
    "oracle.schreyer.steps": ("oracle", "schreyer_step", None, False),
}

NAMES = [name for names in SPANS.values() for name in names]
NAME_ID = {name: i for i, name in enumerate(NAMES)}


def _result_len(args, kwargs, result):
    return len(result)


class Tracer:
    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.size = array("l")
        self.stack = []
        self.job_id = -1
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.basis_keys = set()

    # -- installation -------------------------------------------------------

    def install(self, modules):
        """Wrap at every binding in `modules` (the package and its submodules)."""
        by_short = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        sizes = {
            "enumerate_all_connected_flags": _result_len,
            "enumerate_minimal_flags": self._new_basis_len,
            "merge_records": _result_len,
        }
        wrappers = {}
        for mod, names in SPANS.items():
            for name in names:
                fn = getattr(by_short[mod], name)
                wrappers[id(fn)] = (fn, self._span(NAME_ID[name], fn, sizes.get(name)))
        for metric, (mod, name, under, by_len) in COUNTERS.items():
            fn = getattr(by_short[mod], name)
            wrappers[id(fn)] = (fn, self._counter(metric, fn, under, by_len))
        for m in modules:
            for attr, value in list(vars(m).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, attr, hit[1])

    def _new_basis_len(self, args, kwargs, result):
        # The basis of one (graph, q, k) is counted once per round: the
        # program asks for it again from merges and the Groebner basis.
        key = args + tuple(sorted(kwargs.items()))
        if key in self.basis_keys:
            return 0
        self.basis_keys.add(key)
        return len(result)

    def _span(self, name_id, fn, size):
        name, start, end = self.name, self.start, self.end
        parent, job, sizes, stack = self.parent, self.job, self.size, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            end.append(0.0)
            sizes.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size is not None:
                sizes[idx] = size(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, metric, fn, under, by_len):
        counts, name, stack = self.counts, self.name, self.stack
        under_id = None if under is None else NAME_ID[under]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if under_id is None or (stack and name[stack[-1]] == under_id):
                counts[metric] += len(result) if by_len else 1
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Every per-layer metric as {name: (value, unit)}."""
        n = len(self.name)
        names, parent = self.name, self.parent
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += dur[i]
        check_roots = {NAME_ID["build_resolution"], NAME_ID["verify_resolution"]}
        merge_id = NAME_ID["merge_records"]
        under_check = bytearray(n)
        under_merge = bytearray(n)
        calls = [0] * len(NAMES)
        incl = [0.0] * len(NAMES)
        self_s = [0.0] * len(NAMES)
        size = [0] * len(NAMES)
        check_calls = realign_calls = linsys_reduces = 0
        check_s = realign_s = 0.0
        poly_mul, scan = NAME_ID["poly_mul"], NAME_ID["acyclic_orientations_unique_source"]
        q_reduce, linsys = NAME_ID["q_reduce"], NAME_ID["linear_system"]
        for i in range(n):
            k, p = names[i], parent[i]
            # spans are stored in start order, so a parent precedes its children
            under_check[i] = k in check_roots or (p >= 0 and under_check[p])
            under_merge[i] = k == merge_id or (p >= 0 and under_merge[p])
            calls[k] += 1
            incl[k] += dur[i]
            self_s[k] += dur[i] - covered[i]
            size[k] += self.size[i]
            if k == poly_mul and under_check[i]:
                check_calls += 1
                check_s += dur[i]
            elif k == scan and under_merge[i]:
                realign_calls += 1
                realign_s += dur[i]
            elif k == q_reduce and p >= 0 and names[p] == linsys:
                linsys_reduces += 1

        def s(fn, kind=incl):
            return (kind[NAME_ID[fn]], "s")

        def c(value):
            return (value, "count")

        flags_n = size[NAME_ID["enumerate_all_connected_flags"]]
        classes = size[NAME_ID["enumerate_minimal_flags"]]
        out = {
            "flags.enum.flags": c(flags_n),
            "flags.enum.classes": c(classes),
            "flags.enum.self_s": (self_s[NAME_ID["enumerate_minimal_flags"]]
                                  + self_s[NAME_ID["enumerate_all_connected_flags"]], "s"),
            "graphs.connected.calls": c(self.counts["graphs.connected.calls"]),
            "flags.merge.calls": c(calls[merge_id]),
            "flags.merge.records": c(size[merge_id]),
            "flags.merge.self_s": s("merge_records", self_s),
            "flags.realign.scans": c(realign_calls),
            "flags.realign.s": (realign_s, "s"),
            "graphs.orientations.generated": c(self.counts["graphs.orientations.generated"]),
            "flags.sign.self_s": (self_s[NAME_ID["record_sign"]]
                                  + self_s[NAME_ID["record_theta"]], "s"),
            "resolution.build.self_s": s("build_resolution", self_s),
            "resolution.check.poly_mul_calls": c(check_calls),
            "resolution.check.s": (check_s, "s"),
            "resolution.format.s": s("format_resolution"),
            "resolution.betti.self_s": s("betti_table", self_s),
            "divisors.reduce.calls": c(calls[q_reduce]),
            "divisors.reduce.self_s": s("q_reduce", self_s),
            "divisors.reduce.rounds": c(self.counts["divisors.reduce.rounds"]),
            "divisors.fire.calls": c(self.counts["divisors.fire.calls"]),
            "divisors.linsys.calls": c(calls[linsys]),
            "divisors.linsys.reduce_calls": c(linsys_reduces),
            "divisors.linsys.self_s": s("linear_system", self_s),
            "poly.division.calls": c(calls[NAME_ID["poly_division"]]),
            "poly.division.s": s("poly_division"),
            "resolution.buchberger.s": s("buchberger_check"),
            "resolution.hilbert.s": s("hilbert_check"),
            "resolution.verify.s": s("verify_resolution"),
            "oracle.schreyer.s": s("schreyer_resolution"),
            "oracle.schreyer.steps": c(self.counts["oracle.schreyer.steps"]),
            "oracle.minimalize.s": s("minimalize"),
            "oracle.hochster.s": s("hochster_betti"),
            "oracle.flags.s": s("brute_force_class_count"),
            "cli.parse.s": s("parse_graph_file"),
            "cli.main.self_s": s("main", self_s),
        }
        # a ratio is given with its base (flags.enum.flags); with no flags
        # enumerated there is no ratio, and it is left out rather than read as 0
        if flags_n:
            out["flags.enum.kept_ratio"] = (classes / flags_n, "ratio")
        return out

    def write_spans(self, path):
        """All spans as gzip'd CSV: name,start,end,parent,job (times in s)."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,job\n")
            for i in range(len(self.name)):
                fh.write(f"{NAMES[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.job[i]}\n")
