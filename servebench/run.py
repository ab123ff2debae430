#!/usr/bin/env python3
"""Build servebench from source and run one workload.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

Run from the repository root. The benchmark is configured and built
under $CARGO_TARGET_DIR/servebench (default .bench_build/servebench),
then the servebench binary serves the workload. Each workload's SLO
limits are read from its "why" line in BENCHMARK.json
("tpot<=X ms", "ttft<=Y ms"), so that file is the one place they are
fixed. The binary's tables go to stdout; the last stdout line is the
result record {"correct", "attempted", "failed", "metrics"}, checked
here against the metric names and units BENCHMARK.json declares. A
copy with the provenance record is kept under results/ in the build
directory.

Exit status: 0 on a correct run, 1 on wrong or incomplete output,
2 when run outside the repository, 3 when PADE_QK_KERNEL is set,
4 on a build failure, 5 on a timeout.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(code)


def slo_limits(why):
    """The (tpot_ms, ttft_ms) limits stated in a workload's why line."""
    def grab(key):
        m = re.search(key + r"<=([0-9]+(?:\.[0-9]+)?)ms", why)
        return float(m.group(1)) if m else None
    return grab("tpot"), grab("ttft")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "servebench")


def build(directory, extra_cmake_args, target):
    os.makedirs(directory, exist_ok=True)
    log_path = os.path.join(directory, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [["cmake", "--build", directory, "-j", jobs] +
             (["--target", target] if target else [])]
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", directory] +
                     extra_cmake_args)
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(4, "build failed: " + " ".join(cmd))


def run_checked(cmd):
    """Runs cmd, killing it on timeout; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(5, f"timed out after {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def validate(result, declared, trace):
    """Problems with the result record, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are " + ", ".join(sorted(result))]
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] != 0:
        problems.append(f"failed requests: {result['failed']}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        missing = sorted(set(want) - set(metrics))
        extra = sorted(set(metrics) - set(want))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')} != {unit}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{name}: value {v} is not a finite number")
        elif trace == 0 and v <= 0:
            problems.append(f"{name}: end-to-end value {v} is not > 0")
    return problems


def selftest():
    directory = build_dir() + "-tests"
    build(directory, ["-DSERVEBENCH_TESTS=ON"], None)
    return subprocess.run(["ctest", "--output-on-failure", "-j", "2"],
                          cwd=directory).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for needed in ("CMakeLists.txt",
                   os.path.join("src", "serving", "continuous_batcher.h"),
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(2, f"{needed} not found: run inside the PADE repository")
    if os.environ.get("PADE_QK_KERNEL") is not None:
        fail(3, "PADE_QK_KERNEL is set; refusing to measure an "
                "overridden kernel")
    if args.selftest:
        sys.exit(selftest())
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    with open(spec_path) as f:
        spec = json.load(f)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        fail(2, f"unknown workload {args.workload}")
    tpot, ttft = slo_limits(whys[args.workload])
    if tpot is None:
        fail(2, f"no tpot<=...ms limit in the why of {args.workload}")

    directory = build_dir()
    build(directory, [], "servebench")
    traces = os.path.join(directory, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(directory, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tpot-limit-ms", repr(tpot), "--trace-dir", traces]
    if ttft is not None:
        cmd += ["--ttft-limit-ms", repr(ttft)]
    code, out = run_checked(cmd)
    lines = out.rstrip("\n").split("\n")
    if len(lines) < 2:
        fail(1, f"servebench exited {code} without a result")
    try:
        provenance = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(1, f"unparsable result record: {e}")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    problems = validate(result, declared, args.trace)
    if code != 0:
        problems.append(f"servebench exited {code}")
    for p in problems:
        print(f"servebench: {p}", file=sys.stderr)
    if problems:
        result["correct"] = False
    print("\n".join(lines[:-1]))

    results = os.path.join(directory, "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({**provenance, "result": result}, f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
