"""The line-count tool: wc -l and code lines per module of the package."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
SRC = TOOL.parents[1] / "src" / "wy_stability"

# 18 lines; code lines are 4, 9, 12, 13, 15 and 18: a string that is not
# the first statement of its body is code, a comment after code is code
FIXTURE = '''"""Module docstring,
two lines."""

import os  # a comment after code


# a comment-only line

class A:
    """Class docstring."""

    x = """not a docstring:
    an assigned string"""

    async def f(self):
        """Function
        docstring."""
        return os.sep
'''


def run_tool(*paths):
    done = subprocess.run([sys.executable, str(TOOL), *map(str, paths)], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    return [line.split() for line in done.stdout.splitlines()]


def test_src_lines_counts_a_fixture_file(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert run_tool(path) == [["18", "6", "fixture.py"], ["18", "6", "total"]]


def test_src_lines_sums_every_module_of_the_package():
    rows = run_tool()
    modules = sorted(SRC.glob("*.py"))
    assert [name for *_, name in rows] == [p.name for p in modules] + ["total"]
    assert [int(wc) for wc, _, _ in rows[:-1]] == [p.read_text().count("\n") for p in modules]
    assert rows[-1][:2] == [str(sum(int(row[i]) for row in rows[:-1])) for i in (0, 1)]
