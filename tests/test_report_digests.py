"""The byte-identity tool: one digest line per report and per witness."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


def run_tool(*labels):
    return subprocess.run([sys.executable, str(TOOL), *labels], capture_output=True, text=True, timeout=300)


def test_report_digests_print_one_line_per_file():
    # two 13x26, L = 12 reports, run twice: the counterexample's witness
    # gets a line of its own, and a second run repeats every digest
    labels = ["scan-13x26-l12-lam2", "counterexample-13x26-l12"]
    done = run_tool(*labels, *labels)
    assert done.returncode == 0 and done.stderr == ""
    lines = done.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert [line[66:] for line in lines[:3]] == [*labels, labels[1] + ".witness"]
    assert lines[:3] == lines[3:]
    assert len({line[:64] for line in lines}) == 3


def test_report_digests_refuse_an_unknown_label():
    done = run_tool("scan", "no-such-report")
    assert done.returncode == 2 and done.stdout == "" and "no-such-report" in done.stderr
