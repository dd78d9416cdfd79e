"""Print the line counts of the package's modules: all lines, and code lines.

Usage::

    python tools/src_lines.py [FILE ...]

With no files it counts ``src/wy_stability/*.py``.  Each file gets one
line ``<wc -l count>  <code lines>  <path>``, and a last line gives the
totals.  A code line is a non-blank line that is neither comment-only
nor inside the docstring of a module, class or function.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wy_stability"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(text: str) -> tuple[int, int]:
    """(newline count as ``wc -l`` gives it, code line count) of a module's text."""
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1
        for n, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.strip().startswith("#") and n not in skip
    )
    return text.count("\n"), code


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(SRC.glob("*.py"))
    total_lines = total_code = 0
    for path in paths:
        lines, code = counts(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.name}")
    print(f"{total_lines:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
