"""The set-up cost tool: median import and grid-and-basis times over fresh interpreters."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "import_cost.py"
ROOT = TOOL.parents[1]


def test_import_cost_prints_three_medians_and_writes_nothing_into_the_checkout():
    before = sorted(ROOT.glob("[!.]*/**/*"))
    done = subprocess.run(
        [sys.executable, str(TOOL), "-n", "1", "--ltrunc", "4"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0 and done.stderr == ""
    rows = [re.fullmatch(r"(\w+) +(\d+\.\d\d) ms  median of 1, L = 4", line) for line in done.stdout.splitlines()]
    assert [row[1] for row in rows] == ["import_uncached", "import_cached", "build_grid_basis"]
    assert all(float(row[2]) > 0 for row in rows)
    assert sorted(ROOT.glob("[!.]*/**/*")) == before
