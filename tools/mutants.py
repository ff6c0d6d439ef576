"""Replay a register of mutants: each must fail the tests named beside it.

A mutant is one exact text substitution in one file of the repository,
with the test files (or test ids) expected to kill it.  The register
holds mutants that an earlier change checked by hand, so a later change
to a test or a helper that lets one survive shows up here.

The working tree is never touched: the repository (without ``.git`` and
caches) is copied once into a temporary directory, and each mutant is
applied there, its tests run with ``pytest -x`` from the copy's root with
``src`` first on the path, and the file restored.  One pytest process
runs at a time.  Each mutant prints one line: ``killed`` (a test
failed), ``survived`` (every test passed), ``timeout`` (stopped after
``TIMEOUT_S`` seconds), ``error`` (pytest did not run the tests) or
``stale`` (the old text is not in the file exactly once, so the register
needs mending).

This is a report, not a gate: it exits 0 when every mutant ran, killed or
survived, and 1 when one is stale or its tests could not run.  A mutant
that survives is a gap in the tests.

Usage, from anywhere: ``python tools/mutants.py [name ...]`` (all mutants
when no name is given).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out", "*.pyc"
)


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "closure-multiplies-by-x-only",
        "src/germcalc/singularity.py",
        "_shifted_residue(milnor, h, u or zero)",
        "_shifted_residue(milnor, h, units[0] if u else zero)",
        ("tests/test_tjurina_from_milnor.py",),
    ),
    Mutant(
        "tangent-row-raise-off",
        "src/germcalc/modular.py",
        'raise ValueError("not tangent: sum a_i df/dx_i differs from cofactor * f")',
        "pass",
        ("tests/test_modular.py",),
    ),
    Mutant(
        "check-syzygies-raise-off",
        "src/germcalc/groebner.py",
        'raise RuntimeError("syzygy verification failed")',
        "pass",
        ("tests/test_groebner.py",),
    ),
    Mutant(
        "content-left-out-of-den",
        "src/germcalc/groebner.py",
        "den *= _remove_content(h, remainder)",
        "_remove_content(h, remainder)",
        ("tests/test_pair_walk.py", "tests/test_fraction_free.py", "tests/test_relation_outputs.py"),
    ),
    Mutant(
        "cofactor-slot-not-negated",
        "src/germcalc/modular.py",
        "-c if s == last else c for (s, e), c in row.items()",
        "c for (s, e), c in row.items()",
        ("tests/test_modular.py",),
    ),
)


def replay(mutant: Mutant, copy: Path) -> str:
    """Apply one mutant in ``copy``, run its tests and restore the file; return the verdict."""
    path = copy / mutant.file
    source = path.read_text()
    if source.count(mutant.old) != 1:
        return "stale"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
    path.write_text(source.replace(mutant.old, mutant.new))
    try:
        run = subprocess.run(
            command, cwd=copy, env=env, stdout=subprocess.DEVNULL, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        path.write_text(source)
    return {0: "survived", 1: "killed"}.get(run.returncode, "error")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"mutants: unknown mutant {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    verdicts = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        for mutant in chosen:
            start = time.perf_counter()
            verdict = replay(mutant, copy)
            verdicts.append(verdict)
            print(f"{verdict:<9} {mutant.name:<32} {time.perf_counter() - start:6.1f} s", flush=True)
    print(f"\nmutants: {verdicts.count('killed')} killed, {verdicts.count('survived')} survived")
    return 0 if set(verdicts) <= {"killed", "survived"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
