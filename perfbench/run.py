#!/usr/bin/env python3
"""Build and run one perfbench workload; print its metrics and a JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload kv_abd --seed 1 --seconds 25 --trace 0

The benchmark binary is built from source on first use (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset. --trace 0 prints the end-to-end metrics listed in
BENCHMARK.json, --trace 1 the per-layer metrics; the traced run also writes
its spans to <build dir>/traces/<workload>.spans.csv.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit status is 0 only when every correctness check
passed and the metrics match BENCHMARK.json by name and unit.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# A run must end within 180 s; leave room to report.
DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build(build_dir):
    """Configure (once) and build the perfbench binary; output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True, env=env)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
        stdout=sys.stderr, stderr=sys.stderr, check=True, env=env)
    return os.path.join(build_dir, "perfbench")


def validate(result, expected):
    """Problems with a result line, given {name: unit} of the expected metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append("metrics missing %s, unexpected %s" % (missing, extra))
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append("%s has unit %r, expected %r"
                            % (name, m.get("unit"), expected[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s is not a finite number" % name)
    return problems


def check_layer_map(expected):
    """layer_map.json must map exactly the per-layer metrics of BENCHMARK.json."""
    with open(os.path.join(BENCH_DIR, "layer_map.json"), encoding="utf-8") as f:
        mapped = set(json.load(f)["layers"])
    if mapped == set(expected):
        return []
    return ["layer_map.json lists %s, BENCHMARK.json per_layer lists %s"
            % (sorted(mapped - set(expected)), sorted(set(expected) - mapped))]


def main():
    start = time.monotonic()
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    remaining = DEADLINE_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining), cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish in time" % args.workload)
        return 3
    lines = proc.stdout.splitlines()
    if not lines:
        log("perfbench: no output (exit %d)" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log("perfbench: last line is not JSON: %r" % lines[-1])
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    problems = validate(result, expected)
    if args.trace:
        problems += check_layer_map(expected)
    else:
        # End-to-end metrics are never 0: a zero means nothing was measured.
        problems += ["%s is 0" % n for n, m in result.get("metrics", {}).items()
                     if m.get("value") == 0]
    for p in problems:
        log("perfbench: bad result: %s" % p)
    if problems:
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    ok = proc.returncode == 0 and result["correct"] and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
