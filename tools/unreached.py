"""List the lines of ``src/germcalc`` that the Tier-1 suite never runs.

Runs the Tier-1 command (``pytest`` with ``tier1_gate.TIER1_ARGS``, from
the repository root with ``src`` first on the path) in this process under
a ``sys.settrace`` line tracer that traces only frames whose code lies in
``src/germcalc``; every other frame runs untraced.  An executable line is one that the
compiled module attributes an instruction to.  Each executable line that
no test ran is printed as ``module:line`` with its source, and every
``raise`` among them is marked: a guard no test fires is a guard no test
shows can fire.  Lines run only in a subprocess (``python -m germcalc``)
count as unreached.

This is a report, not a gate: it exits 0 whatever it lists, and 1 only
when pytest itself could not run (an exit code other than 0 or 1).  The
traced suite takes 2.5 to 3.5 times as long as the untraced one.  The
standard library is enough (``coverage`` is not a dependency).

Usage, from anywhere: ``python tools/unreached.py``.
"""

from __future__ import annotations

import os
import sys
from types import CodeType

import pytest
from tier1_gate import ROOT, TIER1_ARGS

PACKAGE = ROOT / "src" / "germcalc"


def executable_lines(code: CodeType) -> set[int]:
    """The lines of ``code`` and of the code objects nested in it that hold an instruction."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def traced_run() -> tuple[int, set[tuple[str, int]]]:
    """Pytest's exit code and the (file, line) pairs run in the package."""
    prefix = str(PACKAGE) + os.sep
    ours: dict[str, bool] = {}
    hits: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(prefix)
        return local if ours[name] else None

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    sys.settrace(call)
    try:
        code = pytest.main(TIER1_ARGS)
    finally:
        sys.settrace(None)
    return int(code), {(os.path.realpath(name), line) for name, line in hits}


def main() -> int:
    code, hits = traced_run()
    if code not in (0, 1):
        print(f"unreached: pytest stopped with exit code {code}", file=sys.stderr)
        return 1
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        text = source.splitlines()
        for line in sorted(lines - {line for name, line in hits if name == str(path)}):
            unreached.append((f"{path.name}:{line}", text[line - 1].strip()))
    raises = [where for where, text in unreached if text == "raise" or text.startswith("raise ")]
    print(f"\nunreached lines of src/germcalc under Tier-1: {len(unreached)}, {len(raises)} raise")
    for where, text in unreached:
        print(f"{where:<20} {'raise' if where in raises else '':<6} {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
