"""Count the code lines of ``src/crnsign/*.py``, per module and in total.

A line counts unless it is blank, holds only a comment, or lies inside a
module, class or function docstring.  Standard library only::

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Set

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crnsign"


def _docstring_lines(tree: ast.Module) -> Set[int]:
    """Line numbers covered by the docstring of the module and of every
    class and function in it."""
    lines: Set[int] = set()
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


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    skipped = _docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skipped and line.strip() and not line.lstrip().startswith("#")
    )


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
