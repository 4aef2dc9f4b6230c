#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workload W ...] [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]
                                [--save MEDIANS.json] [--against MEDIANS.json]

For each workload it runs perfbench/run.py once per seed (seeds first-seed,
first-seed+1, ...) and prints, per metric, the median of the runs, the
quartiles as statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.  A metric
is "steady" when its spread is below a third of its bound.  --save writes
the medians to a file; --against compares this set's medians with a saved
set and flags a metric whose median got worse by more than its bound.
Exits 1 if a run fails, reports a wrong verdict, a spread exceeds its
bound, or a median moved past its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
    medians = {}
    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            res = run_once(w, args.first_seed + i, args.seconds, args.trace)
            if not res["correct"] or res["failed"] != 0:
                print("%s seed %d: correct=%s failed=%d" % (w, args.first_seed + i, res["correct"],
                                                            res["failed"]))
                ok = False
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s: %d runs, seeds %d..%d, %d s each" % (w, args.runs, args.first_seed,
                                                         args.first_seed + args.runs - 1,
                                                         args.seconds))
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            medians.setdefault(w, {})[name] = med
            bound = bounds.get(name)
            if bound is None:
                verdict = "-"
            elif spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print("  %-24s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  bound %s  %s"
                  % (name, med, q1, q3, spread, "-" if bound is None else bound, verdict))
            print("    runs in seed order: " + " ".join("%.4g" % v for v in vs))
            old = before.get(w, {}).get(name)
            if old and bound is not None:
                worse = (med - old) / old if better[name] == "lower" else (old - med) / old
                moved = worse > bound
                ok = ok and not moved
                print("    median vs saved set: %.6g -> %.6g, %+.3f worse%s"
                      % (old, med, worse, "  MOVED PAST BOUND" if moved else ""))
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
