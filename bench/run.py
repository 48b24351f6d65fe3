"""Benchmark of the toppling engine: one workload, as many whole rounds as fit.

    python3 bench/run.py --workload betti-sweep --seed 1 --seconds 28 --trace 0

Each round runs in a fresh Python process (`round.py`), so the program's
value-keyed caches start empty and set-up is paid every round.  Rounds run
in waves of one round per CPU (at most WIDTH), each pinned to its CPU; a new
wave starts while the mean wave so far still fits in `--seconds`.  The last
line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, each the median over
rounds (`job_p50_s`: over all jobs of all rounds).  With `--trace 1` every
round is traced and the metrics are the per-layer ones, each the median over
rounds.  The whole run, with every job time and every traced round's spans,
is written under `bench/out/`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("betti-sweep", "resolution", "divisors", "verify")
ROUND_TIMEOUT_S = 100     # a run must end within 180 s
WIDTH = 2             # rounds run at once, one per CPU


def start_round(args, index, cpu):
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}-{os.getpid()}-{index}.csv.gz")
    cmd = [sys.executable, os.path.join(HERE, "round.py"), args.workload,
           str(args.seed), str(args.trace), spans, str(cpu)]
    return subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def run_wave(args, first, cpus):
    """One round per CPU at the same time; every round's result, in order."""
    procs = [start_round(args, first + i, cpu) for i, cpu in enumerate(cpus)]
    results = []
    try:
        for index, proc in enumerate(procs, start=first):
            try:
                out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.exit(f"round {index} of {args.workload} ran over {ROUND_TIMEOUT_S} s")
            sys.stderr.write(err)
            if proc.returncode != 0:
                sys.exit(f"round {index} of {args.workload} exited with {proc.returncode}")
            results.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def summarize(args, rounds):
    metrics = {}
    if args.trace:
        units = rounds[0]["units"]
        for name, unit in units.items():
            values = [r["layers"][name] for r in rounds if name in r["layers"]]
            if len(values) == len(rounds):
                metrics[name] = {"value": statistics.median(values), "unit": unit}
    else:
        jobs = [t for r in rounds for _, t in r["jobs"]]
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "job_p50_s": {"value": statistics.median(jobs), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    return {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.makedirs(OUT, exist_ok=True)

    cpus = sorted(os.sched_getaffinity(0))[:WIDTH]
    rounds = []
    waves = 0
    start = time.monotonic()
    while True:
        rounds += run_wave(args, len(rounds), cpus)
        waves += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / waves > args.seconds:
            break

    result = summarize(args, rounds)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0],
              "result": result, "rounds": rounds}
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
