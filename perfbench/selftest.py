"""Self-test of the benchmark at a tiny degree cap.

    python3 perfbench/selftest.py

Runs every workload at L=4 for one second, untraced and traced.  Each
result must have the four keys, consistent failure counts, and exactly
the metrics BENCHMARK.json names, each a finite number with its unit.
At L=4 some counterexample reports fail, so only the accounting is
checked, not the outcome.  A traced run must reach the layers its
workload exercises.  Last, one real counterexample report is checked
against a wrong reference value and must be counted as failed.  Exits 0
when all of this holds.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run
import workloads
from worker import THREAD_VARS
from workloads import CHECKS, SIZES, Tally, configs

SMOKE_L = 4
# layers each workload must reach; a wrapper missing from an importing
# module would leave these at 0
REACHED = {
    "scan_l24": ("functional.assemble_pencil", "functional.min_pencil_eigenvalue", "models.h_family"),
    "gform_l24": ("gform.minimize_G", "gform.g_quadratic"),
    "cex_l48": ("models.negative_direction", "functional.eval_F", "gform.optimal_eta2"),
}


def check_result(spec: dict, name: str, trace: bool, result: dict) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    correct, attempted, failed = result["correct"], result["attempted"], result["failed"]
    if not (attempted >= 1 and 0 <= failed <= attempted and correct is (failed == 0)):
        problems.append(f"accounting correct={correct}, attempted={attempted}, failed={failed}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"metrics differ: {sorted(set(got) ^ set(wanted))}")
    for key, entry in got.items():
        value = entry["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{key} = {value!r}")
        if entry["unit"] != wanted.get(key):
            problems.append(f"{key} unit {entry['unit']!r}")
    if trace:
        for layer in REACHED[name] + ("harmonics.build_basis", "cli.run"):
            if not got.get(f"{layer}.calls", {}).get("value"):
                problems.append(f"{layer} was not traced")
    return [f"{name} trace={int(trace)}: {p}" for p in problems]


def check_wrong_reference() -> list[str]:
    """A report compared with a wrong reference must count as failed."""
    import jsonschema

    from wy_stability.cli import run as run_report

    schema = json.loads((run.ROOT / "src" / "wy_stability" / "report_schema.json").read_text())
    validator = jsonschema.Draft7Validator(schema)
    config = configs("cex_l48", SMOKE_L, 1, str(run.OUT))[1]  # bbar=0.02, r=1e-2
    text = run_report(config)[1]
    os.remove(config.witness)

    right = Tally(CHECKS["cex_l48"], validator)
    right.add(text)
    wrong = Tally(CHECKS["cex_l48"], validator)
    true_target = workloads.target_min_g
    workloads.target_min_g = lambda bbar: 1.5 * true_target(bbar)
    try:
        wrong.add(text)
    finally:
        workloads.target_min_g = true_target
    problems = []
    if (right.attempted, right.failed_reports) != (1, 0):
        problems.append(f"true reference: {right.failed_reports} of {right.attempted} failed")
    if (wrong.attempted, wrong.failed_reports, wrong.failed_ops) != (1, 1, 0):
        problems.append(
            f"wrong reference: {wrong.failed_reports} of {wrong.attempted} failed, "
            f"{wrong.failed_ops} failed operations"
        )
    return problems


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.ROOT / "src"))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    problems = []
    for name in SIZES:
        for trace in (False, True):
            _, result = run.run_workload(name, seed=1, seconds=1, trace=trace, L=SMOKE_L)
            problems += check_result(spec, name, trace, result)
    problems += check_wrong_reference()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
