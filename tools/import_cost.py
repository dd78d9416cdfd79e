"""Print the median set-up cost of the package over fresh interpreters.

Usage::

    python tools/import_cost.py [-n N] [--ltrunc L]

Each of N fresh interpreters imports numpy first, untimed, then times
``import wy_stability.cli`` from this checkout's ``src/`` and the first
``build_grid`` plus ``build_basis`` at degree cap L on the minimal grid
(L+1) x (2L+2), as the benchmark's set-up probe does.  Three lines give
the medians, in ms:

* ``import_uncached``: the package compiled from source, every other
  module read from bytecode, as a run that writes no bytecode sees it;
* ``import_cached``: the package read from bytecode;
* ``build_grid_basis``: the grid and basis, in the cached runs.

Bytecode goes to a temporary ``PYTHONPYCACHEPREFIX``, which one untimed
run fills first, so the tool writes nothing into the checkout.  BLAS is
pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, sys, time
import numpy
sys.path.insert(0, sys.argv[1])
L = int(sys.argv[2])
start = time.perf_counter()
import wy_stability.cli
imported = time.perf_counter()
from wy_stability.harmonics import build_basis
from wy_stability.quad import build_grid
build_basis(build_grid(L + 1, 2 * L + 2), L)
print(json.dumps([imported - start, time.perf_counter() - imported]))
"""


def probe(prefix: str, L: int, write: bool) -> list[float]:
    """(import seconds, grid and basis seconds) in one fresh interpreter."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": prefix, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(SRC), str(L)], env=env, stdout=subprocess.PIPE, text=True, check=True
    )
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=21, help="fresh interpreters per timing (default 21)")
    parser.add_argument("--ltrunc", type=int, default=24, help="degree cap of the grid and basis (default 24)")
    args = parser.parse_args(argv)
    if args.n < 1 or args.ltrunc < 1:
        parser.error("-n and --ltrunc must be >= 1")
    with tempfile.TemporaryDirectory() as prefix:
        probe(prefix, args.ltrunc, write=True)  # every module's bytecode, the package's too
        cached = [probe(prefix, args.ltrunc, write=False) for _ in range(args.n)]
        packages = list(Path(prefix).rglob("wy_stability"))
        if not packages:
            raise SystemExit(f"no bytecode of wy_stability under {prefix}")
        for package in packages:
            shutil.rmtree(package)
        uncached = [probe(prefix, args.ltrunc, write=False) for _ in range(args.n)]
    rows = {
        "import_uncached": [t for t, _ in uncached],
        "import_cached": [t for t, _ in cached],
        "build_grid_basis": [t for _, t in cached],
    }
    for name, times in rows.items():
        print(f"{name:18s} {1e3 * statistics.median(times):8.2f} ms  median of {len(times)}, L = {args.ltrunc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
