"""Print the code lines and the physical lines of each module of the package.

A code line is a line that is not blank, not a comment and not part of a
docstring (the string statement that opens a module, class or function).
The physical count is what ``wc -l`` prints.

Usage, from anywhere: ``python tools/code_lines.py`` (counts ``src/germcalc``).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and functions."""
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


def count(path: Path) -> tuple[int, int]:
    """(code lines, physical lines) of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docs
    )
    return code, text.count("\n")


def main() -> int:
    package = ROOT / "src" / "germcalc"
    rows = [(path.name, *count(path)) for path in sorted(package.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module'.ljust(width)}  {'code':>6}  {'wc -l':>6}")
    for name, code, physical in rows:
        print(f"{name.ljust(width)}  {code:>6}  {physical:>6}")
    total_code = sum(code for _, code, _ in rows)
    total_physical = sum(physical for _, _, physical in rows)
    print(f"{'total'.ljust(width)}  {total_code:>6}  {total_physical:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
