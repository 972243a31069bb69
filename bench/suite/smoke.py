#!/usr/bin/env python3
"""bench_suite_smoke: every workload at --scale=smoke, at 1 and 4 host
threads (4 capped at the core count), with tracing off and on.

    python3 bench/suite/smoke.py path/to/updlrm_bench OUTDIR

Every run must pass its own correctness gates (exit 0); traced runs
also validate their Chrome trace and require the suite's layer spans in
it. Across the four runs of a workload, every simulated metric and the
sim_digest must be identical: threads and tracing may change host time
only.
"""

import os
import subprocess
import sys

from suite_metrics import HOST_METRICS, NOT_METRICS, parse_driver_output

WORKLOADS = ("read-ca-poisson", "clo-u-bursty", "clo-nu-e2e",
             "read-ca-shard4")


def run(driver, workload, threads, traced_dir):
    command = [driver, f"--workload={workload}", "--seed=7",
               f"--threads={threads}", "--seconds=0.05", "--scale=smoke"]
    if traced_dir:
        command.append(f"--traced={traced_dir}")
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            timeout=300)
    if result.returncode != 0:
        raise SystemExit(f"FAIL {' '.join(command)} exited "
                         f"{result.returncode}:\n{result.stdout}")
    values = parse_driver_output(result.stdout)
    return {name: value for name, (value, _) in values.items()
            if name not in HOST_METRICS
            and (name not in NOT_METRICS or name == "sim_digest")}


def main(driver, outdir):
    wide = min(4, os.cpu_count() or 1)
    for workload in WORKLOADS:
        runs = {}
        for threads in sorted({1, wide}):
            for traced in (False, True):
                traced_dir = (os.path.join(outdir, f"t{threads}")
                              if traced else "")
                runs[(threads, traced)] = run(driver, workload, threads,
                                              traced_dir)
        (base_key, base), *others = runs.items()
        for key, sim in others:
            for name in sorted(base.keys() & sim.keys()):
                if base[name] != sim[name]:
                    raise SystemExit(
                        f"FAIL {workload} {name}: {base[name]} at "
                        f"{base_key} but {sim[name]} at {key}")
        print(f"ok {workload}: {len(base)} simulated values identical "
              f"across {len(runs)} runs")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
