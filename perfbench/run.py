"""Benchmark of wy_stability: one workload, driven by one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
that checkout's src/ and nothing is installed.  Workloads (BENCHMARK.json
gives the reason for each):

    scan_l24   one `scan` report at L=24 on a 25x50 grid
    gform_l24  one `gform` report at L=24 with 8 directions
    cex_l48    8 `counterexample` reports at L=48 on a 49x98 grid

One pass is one workload's list of reports, sent one at a time through
``wy_stability.cli.run``.  Passes repeat until S seconds have elapsed.
BLAS is pinned to one thread.  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it measures the per-layer metrics,
tracing every second pass, and writes the spans under perfbench/out/.

wall_s and setup_s are scaled times: each raw time is divided by the
machine's slowdown, measured by a fixed numpy kernel right after it
(calibrate.py).  The raw times are printed beside them.

Standard output names every metric with its unit, the reference check
of each report in the first pass, and a stamp of the machine and
libraries.  The last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import SIZES, grid_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# a run gives up after --seconds plus this much: start-up, the last pass
# and the remaining set-up probes all fit well inside it
GRACE_S = 120.0


def _worker(args: list, timeout: float) -> dict:
    """Run worker.py and parse its last line.

    The worker starts set-up probes of its own, so it runs in a new
    process group, and a timeout kills the whole group.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), *map(str, args)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return json.loads(out.splitlines()[-1])


def _spread(values: list) -> str:
    if len(values) < 2:
        return "1 sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, q1 {q1:.4f}, q3 {q3:.4f}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, L: int | None = None):
    """Measure one workload; returns (report lines, result object).

    ``L`` overrides the workload's degree cap; only the self-test uses it.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    L = SIZES[name] if L is None else L
    OUT.mkdir(exist_ok=True)
    w = _worker(["measure", name, L, seed, seconds, int(trace), OUT], seconds + GRACE_S)

    attempted, failed_reports = w["attempted"], w["failed_reports"]
    n_theta, n_phi = grid_for(L)
    lines = [
        "env " + json.dumps(w["env"], sort_keys=True),
        f"workload {name}: L={L}, grid {n_theta}x{n_phi}, seed {seed}, {seconds:g} s, "
        f"closed loop with 1 client, {attempted} reports attempted",
    ]
    lines += [f"check {c}" for c in w["checks"]]
    notes: dict = {}
    if trace:
        layers = w["layers"]
        values = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
        values["trace.overhead_s"] = statistics.median(w["traced_pass_s"]) - statistics.median(
            w["pass_s"]
        )
        metrics = spec["per_layer"]
        lines.append(
            f"per-layer values are per pass, median of {len(layers)} traced passes; "
            f"spans written to {Path(w['spans_file']).relative_to(ROOT)}"
        )
    else:
        fail_frac = failed_reports / attempted
        wall = [t / f for t, f in zip(w["pass_s"], w["pass_slowdown"])]
        setup = [t / f for t, f in zip(w["setup_s"], w["setup_slowdown"])]
        values = {
            "wall_s": statistics.median(wall),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": w["peak_rss_mb"],
            "pass_frac": 1.0 - fail_frac,
        }
        metrics = spec["end_to_end"]
        notes = {
            "wall_s": "scaled, per pass, " + _spread(wall),
            "setup_s": "scaled, fresh processes, " + _spread(setup),
            "peak_rss_mb": "worker process",
            "pass_frac": f"{attempted - failed_reports} of {attempted} reports pass",
        }
    for m in metrics:
        note = notes.get(m["name"])
        lines.append(
            f"{m['name']:<46} {values[m['name']]:<22.10g} {m['unit']:<14} "
            f"{m['better']} is better" + (f"; {note}" if note else "")
        )
    if not trace:
        for what, note in (("pass", "per pass"), ("setup", "fresh processes")):
            raw, slow = w[f"{what}_s"], w[f"{what}_slowdown"]
            lines.append(
                f"{f'raw_{what}_s':<46} {statistics.median(raw):<22.10g} {'s':<14} "
                f"unscaled {note}, {_spread(raw)}"
            )
            lines.append(
                f"{f'slowdown_{what}':<46} {statistics.median(slow):<22.10g} "
                f"{'ratio':<14} reference kernel time / REF_S, {_spread(slow)}"
            )
        digits = w["ref_digits_min"]
        lines.append(
            f"{'fail_frac':<46} {fail_frac:<22.10g} {'ratio':<14} lower is better; "
            f"{failed_reports} of {attempted} reports failed"
        )
        lines.append(
            f"{'ref_digits_min':<46} {'none' if digits is None else f'{digits:.10g}':<22} "
            f"{'digits':<14} higher is better; fewest correct digits against the closed form"
        )

    result = {
        "correct": w["failed_ops"] == 0,
        "attempted": attempted,
        "failed": w["failed_ops"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wy_stability" / "cli.py").is_file():
        print(f"error: no wy_stability sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
