#!/usr/bin/env python3
"""Build and run the simulator benchmark from the root of a checkout.

One workload per call, in its own single-threaded process:

    python3 simbench/run.py --workload incast_pktbuf --seed 1 \
        --seconds 25 --trace 0

builds simbench/ (and the src/ libraries it links) into .bench_build/,
runs the harness, and prints its report. The last stdout line is the
result object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones; the traced
run also leaves its span log and count snapshot in .bench_build/simbench/out.

Steadiness self-check (runs every workload N times, with seeds 1..N, and
prints the median, quartiles and spread of each end-to-end metric against
the bounds in BENCHMARK.json):

    python3 simbench/run.py --steady [--runs 10] [--seconds 25]
        [--workloads a,b]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "simbench")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "simbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("simbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; compiler output to stderr."""
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "src", "CMakeLists.txt")):
        fail("no simulator sources (src/) next to the benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "simbench"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def run_harness(workload, seed, seconds, trace, echo=True):
    """Run one workload; returns the parsed result object.

    The harness runs in OUT_DIR, where a traced run writes its files."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.abspath(BINARY), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=OUT_DIR)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if echo:
        print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("harness printed no result line")
    if set(result) != RESULT_KEYS or result["attempted"] < 1:
        fail("malformed result line: " + lines[-1])
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(args):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = {}
    for name in names:
        samples = {}
        for i in range(args.runs):
            seed = 1 + i
            result = run_harness(name, seed, args.seconds, 0, echo=False)
            if not result["correct"] or result["failed"]:
                fail("%s seed %d: incorrect result %s" % (name, seed, result))
            for metric, value in result["metrics"].items():
                samples.setdefault(metric, []).append(value["value"])
            print("%s seed %d: %s" % (name, seed, " ".join(
                "%s=%.6g" % (m, v["value"])
                for m, v in sorted(result["metrics"].items()))), flush=True)
        for metric in sorted(samples):
            q1, med, q3 = quartiles(samples[metric])
            spread = (q3 - q1) / med
            bound = bounds[metric]
            worst[metric] = max(worst.get(metric, 0), spread)
            print("  %-18s %-20s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f (bound %.2f, %s)" % (
                      name, metric, med, q1, q3, spread, bound,
                      "ok" if spread < bound / 3 else "WIDE"), flush=True)
    print("worst spread per metric: " + json.dumps(worst))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads")
    args = parser.parse_args()
    build()
    if args.steady:
        steady(args)
        return
    if not args.workload:
        fail("--workload is required")
    result = run_harness(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
