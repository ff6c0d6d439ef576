"""Run the Tier-1 suite; pass only when exactly the two by-design failures fail.

Criteria 6 and 7 of the acceptance gate (``tests/test_acceptance.py``)
assert two of the paper's statements as written, and the engine disproves
both (see README), so they fail by design.  The gate runs the Tier-1
command with ``--junitxml`` and exits 0 only when the set of failing tests
(failures and errors, collection errors included) is exactly those two.
Any other failure fails the gate, and so does either of the two starting
to pass: a statement that starts to hold needs a look.

Usage, from anywhere: ``python tools/tier1_gate.py [extra pytest arguments]``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1_ARGS = ["-q", "--continue-on-collection-errors"]  # run from ROOT with src on the path
EXPECTED = {
    "tests.test_acceptance::test_criterion_6_milnor_jump_as_stated",
    "tests.test_acceptance::test_criterion_7_icis_as_stated",
}


def failing_tests(junit: Path) -> tuple[set[str], int]:
    """Ids of the test cases with a failure or an error, and the number of cases."""
    cases = list(ET.parse(junit).getroot().iter("testcase"))
    failed = {
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    }
    return failed, len(cases)


def main(argv: list[str]) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        junit = Path(tmp) / "tier1.xml"
        command = [sys.executable, "-m", "pytest", *TIER1_ARGS, f"--junitxml={junit}", *argv]
        code = subprocess.run(command, cwd=ROOT, env=env).returncode
        if code not in (0, 1) or not junit.exists():
            print(f"tier1 gate: pytest stopped with exit code {code}", file=sys.stderr)
            return 1
        failed, total = failing_tests(junit)
    unexpected, passing = sorted(failed - EXPECTED), sorted(EXPECTED - failed)
    for name in unexpected:
        print(f"tier1 gate: unexpected failure {name}", file=sys.stderr)
    for name in passing:
        print(f"tier1 gate: by-design failure now passes or did not run: {name}", file=sys.stderr)
    if unexpected or passing:
        return 1
    print(f"tier1 gate: {total - len(failed)} passed; only the by-design failures failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
