#!/usr/bin/env python3
"""Campaign benchmark of record: build the benchmark, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
library and the benchmark into the build directory ($CARGO_TARGET_DIR,
default .bench_build); later calls rebuild incrementally. Build output goes
to standard error. The benchmark's standard output is passed through: its
last line is the JSON result. The exit code is the benchmark's: 0 when every
merged result matched its reference.

--self-test runs a shrunken variant of every workload, untraced and traced,
checks that every metric BENCHMARK.json names is reported, and checks that
a perturbed reference makes the benchmark fail.
"""

import argparse
import glob
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fleet-mixed", "sweep-tiny", "sweep-durable", "sweep-fabric"]
# A run must end within 180 s; the first one in a checkout also builds.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures (once) and builds; returns the benchmark executable."""
    if not os.path.isfile(os.path.join(ROOT, "src", "testbed", "campaign.hpp")):
        raise RuntimeError(f"library sources not found under {ROOT}/src")
    deadline = time.monotonic() + BUILD_LIMIT_S

    def step(command):
        remaining = max(1.0, deadline - time.monotonic())
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=remaining).returncode

    configure = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        if step(configure) != 0:
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    build_step = ["cmake", "--build", bdir, "-j", jobs]
    if step(build_step) != 0:
        # A cache left by another source tree: configure afresh once.
        shutil.rmtree(bdir, ignore_errors=True)
        if step(configure) != 0 or step(build_step) != 0:
            raise RuntimeError("build failed")
    executable = os.path.join(bdir, "perfbench_campaign")
    if not os.access(executable, os.X_OK):
        raise RuntimeError("build produced no perfbench_campaign")
    return executable


def remove_stale_tmpdirs(bdir):
    for path in glob.glob(os.path.join(bdir, "perfbench-*")):
        shutil.rmtree(path, ignore_errors=True)


def run_benchmark(executable, bdir, arguments, limit_s):
    """Runs the benchmark in its own process group; returns (code, stdout).

    On timeout the whole group (forked fabric workers included) is killed
    and reaped.
    """
    command = [executable, "--tmp-base", bdir] + arguments
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=limit_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        remove_stale_tmpdirs(bdir)
        raise RuntimeError(f"benchmark exceeded {limit_s:.0f} s")
    return process.returncode, stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test(executable, bdir):
    """Shrunken end-to-end run of every workload plus the negative check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, stdout = run_benchmark(
                executable, bdir,
                ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--shrink"], RUN_LIMIT_S)
            result = last_json(stdout)
            label = f"{workload} trace={trace}"
            ok = code == 0 and result and result["correct"]
            if not ok or result["failed"]:
                problems.append(f"{label}: failed (exit {code})")
                continue
            for metric in expected[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{label}: {metric['name']} missing")
                elif (got["unit"] != metric["unit"]
                      or not math.isfinite(got["value"])):
                    problems.append(f"{label}: {metric['name']} is {got}")
            names = {m["name"] for m in expected[trace]}
            extra = set(result["metrics"]) - names
            if extra:
                problems.append(f"{label}: unlisted metrics {sorted(extra)}")
            log(f"{label}: ok")
        # The fingerprint check must catch a one-bit change of the reference.
        code, stdout = run_benchmark(
            executable, bdir,
            ["--workload", workload, "--seed", "7", "--seconds", "1",
             "--trace", "0", "--shrink", "--perturb-reference"], RUN_LIMIT_S)
        result = last_json(stdout)
        if code == 0 or not result or result["correct"] or \
                result["failed"] != result["attempted"]:
            problems.append(f"{workload}: perturbed reference was not caught")
        else:
            log(f"{workload} perturbed reference: caught")
    for problem in problems:
        log(problem)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    bdir = build_dir()
    try:
        executable = build(bdir)
        remove_stale_tmpdirs(bdir)
        if args.self_test:
            return self_test(executable, bdir)
        trace_out = os.path.join(
            bdir, f"trace-{args.workload}-seed{args.seed}.json")
        code, stdout = run_benchmark(
            executable, bdir,
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
             "--trace-out", trace_out],
            RUN_LIMIT_S)
    except (OSError, RuntimeError, subprocess.SubprocessError) as error:
        log(str(error))
        return 3
    sys.stdout.write(stdout)
    sys.stdout.flush()
    log(f"done in {time.monotonic() - started:.1f} s (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
