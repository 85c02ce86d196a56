#!/usr/bin/env python3
"""RawCC benchmark entry point.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke       # one point per workload, all checks
    python3 perfbench/run.py --selftest    # the checker rejects corrupted output

Builds the driver and RawCC from the checkout's sources on first use
(into $CARGO_TARGET_DIR, default .bench_build, under the checkout),
runs one workload and prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 1 the
metrics are the per-layer ones and the Chrome trace the run wrote is
validated with the repository's trace_check.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table3", "mesh128", "serve_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then bring the three targets up to date."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no RawCC sources in %s; nothing to benchmark" % ROOT)
        sys.exit(2)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
                    "--target", "perfbench", "rawcc", "trace_check"],
                   stdout=sys.stderr, check=True)
    return bdir


def binaries(bdir):
    return (os.path.join(bdir, "perfbench"),
            os.path.join(bdir, "rawcc", "tools", "rawcc"),
            os.path.join(bdir, "rawcc", "tools", "trace_check"))


def metric_names(trace):
    """The metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(bdir, workload, seed, seconds, trace, smoke=False,
                 timeout=RUN_TIMEOUT_S):
    """Run the driver once.

    Returns (exit code, result dict or None, other metrics): the result
    holds only the metrics BENCHMARK.json names for this kind of run;
    the rest the driver printed are returned apart.
    """
    perfbench, rawcc, trace_check = binaries(bdir)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [perfbench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--rawcc", rawcc, "--out", out_dir]
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: %s run exceeded %d s" % (workload, timeout))
        return 1, None, {}
    lines = p.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines = lines[:-1]
        except ValueError:
            result = None
    for line in lines:
        log(line)
    if result is None:
        log("perfbench: %s produced no result (exit %d)" % (workload,
                                                           p.returncode))
        return p.returncode or 1, None, {}
    code = p.returncode
    if trace:
        tpath = os.path.join(out_dir, "trace_%s.json" % workload)
        tc = subprocess.run([trace_check, tpath], stdout=sys.stderr)
        if tc.returncode != 0:
            log("perfbench: trace_check rejected %s" % tpath)
            result["correct"] = False
            code = code or 1
    names = metric_names(trace)
    extra = {}
    if names is not None:
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            log("perfbench: missing metrics %s" % ", ".join(missing))
            result["correct"] = False
            code = code or 1
        extra = {k: v for k, v in result["metrics"].items() if k not in names}
        if extra:
            log("other metrics: " + json.dumps(extra, sort_keys=True))
        result["metrics"] = {n: result["metrics"][n] for n in names
                             if n in result["metrics"]}
    return code, result, extra


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one point per workload with every check armed")
    ap.add_argument("--selftest", action="store_true",
                    help="feed the checker corrupted output words")
    args = ap.parse_args()
    start = time.monotonic()
    bdir = build()

    if args.selftest:
        return subprocess.run([binaries(bdir)[0], "--selftest"]).returncode

    if args.smoke:
        bad = 0
        for w in WORKLOADS:
            for trace in (False, True):
                code, res, _ = run_workload(bdir, w, args.seed, 1, trace,
                                            smoke=True)
                ok = (code == 0 and res is not None and res["correct"]
                      and res["failed"] == 0)
                log("smoke %s trace=%d: %s" % (w, trace,
                                               "ok" if ok else "FAILED"))
                bad += not ok
        print(json.dumps({"smoke_failures": bad}))
        return 1 if bad else 0

    if args.workload is None:
        ap.error("--workload is required")
    left = RUN_TIMEOUT_S - (time.monotonic() - start)
    code, res, _ = run_workload(bdir, args.workload, args.seed,
                                args.seconds, bool(args.trace),
                                timeout=max(left, 60))
    if res is None:
        return code or 1
    print(json.dumps(res))
    return code


if __name__ == "__main__":
    sys.exit(main())
