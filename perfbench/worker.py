"""Worker process of the benchmark; run.py starts it, one fresh process per use.

    python3 perfbench/worker.py setup WORKLOAD L
        Import wy_stability, then build the grid and basis at degree cap L,
        and print the seconds taken, with the machine's slowdown measured
        by WORKLOAD's reference kernel right after.  numpy is imported
        first, untimed.

    python3 perfbench/worker.py measure WORKLOAD L SEED SECONDS TRACE OUT_DIR
        Run passes of WORKLOAD through wy_stability.cli.run, one report at
        a time, until SECONDS have elapsed, and print one JSON object.
        With TRACE=0 the reference kernel of calibrate.py is timed right
        after every pass, in a child process, and the set-up probes above
        run between passes, spread over the run, so that they see the same
        machine load as the passes.  With TRACE=1 every second pass is
        traced, and the spans are written to OUT_DIR.

    python3 perfbench/worker.py calibrate WORKLOAD L
        For each line read, time WORKLOAD's reference kernel once and
        print the machine's slowdown.

BLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibrate import slowdown
from tracer import Tracer
from workloads import CHECKS, Tally, configs, grid_for

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up is timed in this many fresh processes per untraced run
SETUP_PROBES = 9


def _import_package():
    """Import wy_stability from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import wy_stability.cli

    origin = Path(wy_stability.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"wy_stability imported from {origin}, not from {SRC}")
    return wy_stability.cli


def time_setup(L: int) -> float:
    import numpy  # noqa: F401  imported before the clock starts

    start = time.perf_counter()
    _import_package()
    from wy_stability.harmonics import build_basis
    from wy_stability.quad import build_grid

    build_basis(build_grid(*grid_for(L)), L)
    return time.perf_counter() - start


def probe_setup(name: str, L: int) -> dict:
    """time_setup and the slowdown in a fresh process; this process waits for it."""
    proc = subprocess.run(
        [sys.executable, __file__, "setup", name, str(L)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@contextlib.contextmanager
def calibrator(name: str, L: int):
    """Yield a function that measures the machine's slowdown once.

    The reference kernel runs in a child process, one timing per line
    sent to it, so that it adds nothing to this process's peak RSS.
    """
    cmd = [sys.executable, __file__, "calibrate", name, str(L)]
    with subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:

        def measure() -> float:
            proc.stdin.write("\n")
            proc.stdin.flush()
            return float(proc.stdout.readline())

        yield measure


def environment(name: str, L: int) -> dict:
    """Machine, library and source stamp of this run."""
    import hashlib
    from importlib import metadata

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": name,
        "L": L,
        "grid": "{}x{}".format(*grid_for(L)),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def measure(name: str, L: int, seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    import resource

    import jsonschema

    cli = _import_package()
    schema = json.loads((SRC / "wy_stability" / "report_schema.json").read_text())
    tally = Tally(CHECKS[name], jsonschema.Draft7Validator(schema))
    tracer = Tracer() if trace else None
    probes = 0 if trace else SETUP_PROBES
    pass_s, pass_slowdown, traced_s, layers, checks, setup = [], [], [], [], [], []

    with tempfile.TemporaryDirectory(dir=out_dir) as witness_dir, (
        contextlib.nullcontext() if trace else calibrator(name, L)
    ) as machine:
        run_configs = configs(name, L, seed, witness_dir)
        min_passes = 2 if trace else 1
        start = time.perf_counter()
        n = 0
        while n < min_passes or time.perf_counter() - start < seconds:
            traced = tracer is not None and n % 2 == 1
            if traced:
                first_span = len(tracer.spans)
                tracer.install()
            texts = []
            t0 = time.perf_counter()
            for config in run_configs:
                try:
                    texts.append(cli.run(config)[1])
                except Exception:  # a failed report is counted, not fatal
                    traceback.print_exc()
                    texts.append(None)
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.remove()
                traced_s.append(elapsed)
                layers.append(tracer.summarize(first_span))
            else:
                pass_s.append(elapsed)
                if machine is not None:
                    pass_slowdown.append(machine())
            outcomes = [tally.add(text) for text in texts]
            if n == 0:
                checks = [f"{'ok  ' if c.ok else 'MISS'} {c.detail}" for c in outcomes]
            n += 1
            share = min(1.0, (time.perf_counter() - start) / seconds)
            while len(setup) < probes * share:
                setup.append(probe_setup(name, L))
    while len(setup) < probes:
        setup.append(probe_setup(name, L))

    spans_file = None
    if tracer is not None:
        spans_file = str(Path(out_dir) / f"spans-{name}-seed{seed}.jsonl")
        tracer.dump(spans_file)
    return {
        "env": environment(name, L),
        "pass_s": pass_s,
        "pass_slowdown": pass_slowdown,
        "setup_s": [p["setup_s"] for p in setup],
        "setup_slowdown": [p["slowdown"] for p in setup],
        "traced_pass_s": traced_s,
        "layers": layers,
        "attempted": tally.attempted,
        "failed_ops": tally.failed_ops,
        "failed_reports": tally.failed_reports,
        "ref_digits_min": tally.digits_min,
        "checks": checks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "spans_file": spans_file,
    }


def main(argv: list[str]) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    mode, *rest = argv
    if mode == "setup":
        name, L = rest[0], int(rest[1])
        setup_s = time_setup(L)
        print(json.dumps({"setup_s": setup_s, "slowdown": slowdown(name, L)()}))
    elif mode == "calibrate":
        measure_slowdown = slowdown(rest[0], int(rest[1]))
        for _ in sys.stdin:
            print(measure_slowdown(), flush=True)
    elif mode == "measure":
        name, L, seed, seconds, trace, out_dir = rest
        result = measure(name, int(L), int(seed), float(seconds), trace == "1", out_dir)
        print(json.dumps(result))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
