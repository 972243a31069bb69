#!/usr/bin/env python3
"""Checks that two sets of runs of one workload agree.

    python3 bench/suite/agree.py A1 A2 ... -- B1 B2 ...

Each file is the stdout of one run: run.py's (the last line is its JSON
result) or updlrm_bench's (one "<workload> <name> <value> <unit>" line
per value, sim_digest included). For every metric both sides' median and
quartiles are printed. Exits 1 when a simulated metric or sim_digest
differs between the sides (compared as multisets, so run both sides on
the same seeds), or when a host metric's median is worse on side B by
more than its BENCHMARK.json bound; 2 on bad input.
"""

import json
import statistics
import sys

from suite_metrics import (HOST_METRICS, NOT_METRICS, driver_lines,
                           load_benchmark, parse_driver_output)


def read_run(path):
    """({name: value}, {name: unit}, workload or None) of one run file."""
    with open(path) as f:
        text = f.read()
    lines = [line for line in text.splitlines() if line.strip()]
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        return ({k: v["value"] for k, v in metrics.items()},
                {k: v["unit"] for k, v in metrics.items()}, None)
    parsed = parse_driver_output(text)
    workloads = {workload for workload, _, _, _ in driver_lines(text)}
    values = {k: v for k, (v, _) in parsed.items()
              if k not in NOT_METRICS or k == "sim_digest"}
    units = {k: u for k, (_, u) in parsed.items()}
    return values, units, workloads.pop() if len(workloads) == 1 else None


def summary(values):
    if isinstance(values[0], str):
        return ",".join(sorted(set(values)))
    if len(values) == 1:
        return f"{values[0]:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv):
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    sides = (argv[:split], argv[split + 1:])
    if not sides[0] or not sides[1]:
        print("agree.py: both sides need at least one run", file=sys.stderr)
        return 2
    runs = [[read_run(path) for path in side] for side in sides]
    workloads = {w for side in runs for _, _, w in side if w is not None}
    if len(workloads) > 1:
        print(f"agree.py: runs of several workloads: {sorted(workloads)}",
              file=sys.stderr)
        return 2

    benchmark = load_benchmark()
    bounds = {m["name"]: m for m in benchmark["end_to_end"]}
    names = sorted({name for side in runs for values, _, _ in side
                    for name in values})
    failed = False
    print(f"{'metric':32} {'unit':7} {'A median [q1, q3]':36} "
          f"{'B median [q1, q3]':36} verdict")
    for name in names:
        a = [values[name] for values, _, _ in runs[0] if name in values]
        b = [values[name] for values, _, _ in runs[1] if name in values]
        unit = next(u[name] for side in runs for _, u, _ in side if name in u)
        if len(a) != len(runs[0]) or len(b) != len(runs[1]):
            verdict, bad = "MISSING in some runs", True
        elif name not in HOST_METRICS:
            bad = sorted(a) != sorted(b)
            verdict = "DIFFERS" if bad else "identical"
        elif name in bounds:
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma
            if bounds[name]["better"] == "higher":
                worse = -worse
            bad = worse > bounds[name]["bound"]
            verdict = (f"{'WORSE' if bad else 'ok'} {worse:+.1%} "
                       f"(bound {bounds[name]['bound']:.0%})")
        else:
            verdict, bad = "host, no bound", False
        failed = failed or bad
        print(f"{name:32} {unit:7} {summary(a):36} {summary(b):36} {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
