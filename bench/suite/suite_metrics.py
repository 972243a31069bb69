"""Shared helpers of the repo benchmark's scripts (run.py, agree.py,
smoke.py): the metric lists in BENCHMARK.json and the driver's output.

updlrm_bench prints one line per value, "<workload> <name> <value>
<unit>". Metrics are simulated unless named in HOST_METRICS: simulated
values are a pure function of the seed and must repeat exactly; host
values are wall-clock or memory measurements of this process.
"""

import json
import pathlib

SUITE_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent

HOST_METRICS = frozenset({
    "setup_s",
    "host_us_per_req",
    "rss_mb",
    "peak_rss_mb",
    "trace.profile_s",
    "updlrm.create_s",
    "cache.mine_s",
    "cache.mine_rss_mb",
    "pipeline.tune_s",
    "scaleout.create_s",
    "updlrm.run_batch_us",
    "serve.self_us_per_req",
    "telemetry.trace_overhead_frac",
})

# Driver lines that are not metrics.
NOT_METRICS = frozenset({"gen_s", "sim_digest", "attempted", "failed",
                         "correct"})


def load_benchmark():
    """BENCHMARK.json at the repo root."""
    with open(REPO_ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def driver_lines(text):
    """(workload, name, value, unit) for each value line of updlrm_bench
    stdout; other lines (build logs, comments) are skipped. sim_digest
    keeps its hex string as the value."""
    for line in text.splitlines():
        fields = line.split()
        if len(fields) != 4 or line.startswith("#"):
            continue
        workload, name, value, unit = fields
        if unit != "hex":
            try:
                value = float(value)
            except ValueError:
                continue
        yield workload, name, value, unit


def parse_driver_output(text):
    """{name: (value, unit)} from updlrm_bench stdout."""
    return {name: (value, unit)
            for _, name, value, unit in driver_lines(text)}
