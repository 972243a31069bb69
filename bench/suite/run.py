#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result as JSON.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repo root. Builds bench/suite (the src/ libraries and the
updlrm_bench driver) into $CARGO_TARGET_DIR/suite, or .bench_build/suite
when unset; later runs only relink what changed. Then runs the driver on
min(4, cores) host threads and prints, as the last line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1, which also writes a Chrome trace per
workload under the build directory). Build logs and the driver's own
lines go to stderr. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

from suite_metrics import (REPO_ROOT, SUITE_DIR, load_benchmark,
                           parse_driver_output)

RUN_TIMEOUT_S = 170  # the whole run, build excluded, must end in 180 s


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, jobs):
    if not (REPO_ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ tree under {REPO_ROOT}: nothing to build")
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(SUITE_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(jobs),
                    "--target", "updlrm_bench"],
                   stdout=sys.stderr, check=True)
    return build_dir / "updlrm_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    benchmark = load_benchmark()
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = REPO_ROOT / target
    build_dir = target / "suite"
    threads = min(4, os.cpu_count() or 1)
    try:
        driver = build(build_dir, threads)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")

    command = [str(driver), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--threads={threads}",
               f"--seconds={args.seconds}"]
    if args.trace:
        command.append(f"--traced={build_dir / 'traces'}")
    start = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stdout)
    if run.returncode not in (0, 1):  # 1 = a correctness gate failed
        fail(f"updlrm_bench exited {run.returncode}")
    values = parse_driver_output(run.stdout)

    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            fail(f"updlrm_bench printed no {name}")
        value, unit = values[name]
        if unit != metric["unit"]:
            fail(f"{name} is in {unit}, BENCHMARK.json says {metric['unit']}")
        metrics[name] = {"value": value, "unit": unit}
    correct = run.returncode == 0 and values.get("correct", (0,))[0] == 1
    print(f"# {args.workload}: {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(values["attempted"][0]),
        "failed": int(values["failed"][0]),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
