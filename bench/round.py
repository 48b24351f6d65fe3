"""One round of one workload in a fresh Python process.

    python3 bench/round.py WORKLOAD SEED TRACE SPANS_PATH CPU

Pins itself to CPU, imports toppling from the checkout's `src`, builds every
input (set-up), runs the jobs back to back (the timed phase), then checks
each output with the benchmark's own code.  Prints one JSON object on its
last line.  Only `sys`, `time` and `os` are loaded before the set-up clock
starts, so the import of toppling and the stdlib modules it needs count as
set-up.
"""

import os
import sys
import time

if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[5])})
T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import toppling  # noqa: E402
import toppling.cli  # noqa: E402

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("graphs", "divisors", "flags", "resolution", "oracle", "poly", "cli")


def main(workload, seed, traced, spans_path):
    if not os.path.abspath(toppling.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"toppling imported from {toppling.__file__}, not {SRC}")
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install([toppling] + [getattr(toppling, m) for m in MODULES])
    workdir = os.path.join(HERE, "out", f"inputs-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = workloads.build(workload, seed, toppling, workdir)
        setup_s = time.perf_counter() - T0
        outputs, times = [], []
        clock = time.perf_counter
        phase_start = clock()
        for idx, job in enumerate(jobs):
            if tracer is not None:
                tracer.job_id = idx
            t = clock()
            try:
                outputs.append((True, job.run()))
            except Exception:
                outputs.append((False, traceback.format_exc()))
            times.append(clock() - t)
        wall_s = clock() - phase_start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir)

    failed, correct, errors, confirmed = 0, True, [], []
    for job, (ok, out) in zip(jobs, outputs):
        if not ok:
            failed += 1
            errors.append(f"{job.label}: raised\n{out}")
            continue
        try:
            bad = job.check(out)
        except Exception:
            bad = "check raised\n" + traceback.format_exc()
        if bad:
            failed += 1
            correct = False
            errors.append(f"{job.label}: {bad}")
        else:
            confirmed.append(out)

    result = {
        "setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb,
        "jobs": [[job.label, t] for job, t in zip(jobs, times)],
        "attempted": len(jobs), "failed": failed, "correct": correct, "errors": errors,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        result["layers"] = {name: value for name, (value, _) in layers.items()}
        result["units"] = {name: unit for name, (_, unit) in layers.items()}
        if workload == "betti-sweep":
            # every class the tracer counted must be a Betti number of a
            # table the checks confirmed: sum over jobs of sum_{i>=1} beta_i
            betti_sum = sum(c for bt in confirmed
                            for i, c in checks.betti_totals(bt.z_graded).items() if i >= 1)
            if betti_sum != layers["flags.enum.classes"][0]:
                result["correct"] = False
                errors.append(f"flags.enum.classes {layers['flags.enum.classes'][0]}"
                              f" != confirmed Betti sum {betti_sum}")
        tracer.write_spans(spans_path)
    for line in errors:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4])
