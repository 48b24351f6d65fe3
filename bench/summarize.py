"""Reference figures from saved runs, as quoted in README.md.

    python3 bench/summarize.py bench/out/run-*.json

Per workload: each end-to-end metric's median and quartiles over the untraced
runs given, the tracing overhead (median traced minus median untraced
`wall_s`, per round), and job-time tails per label over all rounds (p90 only
where a round has at least 100 jobs).
"""

import json
import statistics
import sys
from collections import defaultdict


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(paths):
    runs = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            run = json.load(fh)
        runs[(run["workload"], run["trace"])].append(run)
    for workload in sorted({w for w, _ in runs}):
        plain, traced = runs.get((workload, 0), []), runs.get((workload, 1), [])
        print(f"== {workload}: {len(plain)} untraced runs, {len(traced)} traced")
        if plain:
            for name in plain[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in plain]
                q1, med, q3 = quartiles(values)
                print(f"  {name:12s} median {med:.4g}  q1 {q1:.4g}  q3 {q3:.4g}"
                      f"  (q3-q1)/median {(q3 - q1) / med:.3f}")
        if plain and traced:
            walls = [rd["wall_s"] for r in plain for rd in r["rounds"]]
            twalls = [rd["wall_s"] for r in traced for rd in r["rounds"]]
            over = statistics.median(twalls) - statistics.median(walls)
            print(f"  tracing overhead {over:+.3f} s per round"
                  f" ({over / statistics.median(walls):+.1%} of wall_s)")
        labels = defaultdict(list)
        for r in plain:
            for rd in r["rounds"]:
                for label, t in rd["jobs"]:
                    labels[label].append(t)
        per_round = len(plain[0]["rounds"][0]["jobs"]) if plain else 0
        if per_round >= 100:
            every = sorted(t for times in labels.values() for t in times)
            print(f"  all jobs: {per_round} per round, p90 "
                  f"{statistics.quantiles(every, n=10)[-1]:.4f} s")
        for label, times in sorted(labels.items()):
            times.sort()
            line = f"  {label:16s} jobs {len(times):5d}  p50 {statistics.median(times):.4f} s"
            if per_round >= 100 and len(times) >= 10:
                line += f"  p90 {statistics.quantiles(times, n=10)[-1]:.4f} s"
            print(line + f"  max {times[-1]:.4f} s")


if __name__ == "__main__":
    main(sys.argv[1:])
