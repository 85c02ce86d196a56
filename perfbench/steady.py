#!/usr/bin/env python3
"""Steadiness check: run each workload N times and report the spread.

    python3 perfbench/steady.py --runs 10 [--workloads table3 mesh128] \
        [--seconds 20] [--traced]

For every end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles(n=4)), the spread (Q3 - Q1) / median
and the metric's bound from BENCHMARK.json, and whether the spread is
below a third of the bound; setup_s is checked like the rest.  The
unscaled compile and simulation times are shown beside the
host-speed-scaled ones, with no bound.  It also checks that the share
of failed operations is the same in every run.  With --traced it adds
one traced run per workload and compares the compile and simulation
times it derives from its spans with the untraced medians (the
tracing overhead).  Each run i
uses seed i + 1.  The output is what BENCHMARK.json's bounds are set
from.
"""

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Span-derived layer times of the traced run must agree with the
# untraced compile_s / sim_s within this share (two independent
# measurements of the same work).
TRACE_TOLERANCE = 0.15
# Shown beside the gated metrics, with no bound.
UNSCALED = ("unscaled.compile_s", "unscaled.sim_s")


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", default=None,
                    help="default: the workloads BENCHMARK.json lists")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    s = spec()
    seconds = args.seconds or s["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in s["workloads"]]
    bdir = run.build()
    bad = 0
    for w in workloads:
        values = {n: [] for n in list(bounds) + list(UNSCALED)}
        shares = set()
        walls = []
        for i in range(args.runs):
            t0 = time.monotonic()
            code, res, other = run.run_workload(bdir, w, i + 1, seconds,
                                                False)
            walls.append(time.monotonic() - t0)
            if res is None or code != 0 or not res["correct"]:
                print("%s seed %d: run failed (exit %d)" % (w, i + 1, code))
                bad += 1
                continue
            shares.add((res["failed"], res["attempted"]))
            for n in values:
                m = res["metrics"].get(n) or other.get(n)
                if m is not None:
                    values[n].append(m["value"])
        print("\n== %s: %d runs of %g s (wall %.1f..%.1f s)"
              % (w, args.runs, seconds, min(walls), max(walls)))
        print("%-24s %14s %14s %14s %8s %6s  %s"
              % ("metric", "median", "q1", "q3", "spread", "bound", "ok"))
        medians = {}
        for n, v in values.items():
            if len(v) < 2:
                continue
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            medians[n] = med
            if n in bounds:
                ok = spread < bounds[n] / 3
                bad += not ok
                print("%-24s %14.6g %14.6g %14.6g %8.4f %6.3g  %s"
                      % (n, med, q1, q3, spread, bounds[n],
                         "ok" if ok else "WIDE"))
            else:
                print("%-24s %14.6g %14.6g %14.6g %8.4f %6s  %s"
                      % (n, med, q1, q3, spread, "-", "(not gated)"))
        fails = {f / a for f, a in shares}
        print("failed share: %s" % sorted(fails))
        bad += len(fails) > 1
        if args.traced and medians:
            code, res, _ = run.run_workload(bdir, w, 1, seconds, True)
            if res is None or code != 0 or not res["correct"]:
                print("traced run failed (exit %d)" % code)
                bad += 1
                continue
            m = res["metrics"]
            for traced, untraced in (("trace.compile_s", "compile_s"),
                                     ("trace.sim_s", "sim_s")):
                t = m[traced]["value"]
                u = medians[untraced]
                diff = (t - u) / u
                ok = abs(diff) <= TRACE_TOLERANCE
                bad += not ok
                print("%-16s traced spans %.4g s, untraced median %.4g s, "
                      "overhead %+.1f%% (tolerance %d%%) %s"
                      % (untraced, t, u, 100 * diff, 100 * TRACE_TOLERANCE,
                         "ok" if ok else "OFF"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
