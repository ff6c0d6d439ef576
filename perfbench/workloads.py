"""Workload ladders, their expected values and the seeded input generator.

Every germ is drawn from a fixed ladder.  A seed and a pass index pick a
diagonal rescaling x_i -> a_i*x_i and a factor f -> c*f per equation.
These keep mu, tau, the ICIS Tjurina number, the modular dimension, the
support and whether weights exist, so the expected values below do not
depend on the seed.  The factors are signs, a_i, c in {1, -1}: factors of
other sizes change the cost of the mu = 35 rung by up to 25% (7.7 s to
12.3 s for 2, 1/2, 3/2, -2/3 on one coordinate or on f), signs by under 2%,
and a run-to-run spread that large would hide the changes the benchmark is
meant to show.  Each pass of a run takes a different sign pattern of each
rung while distinct ones remain, so inputs repeat within a run only on
rungs with fewer distinct patterns than the run has passes, and then in
another interpreter.

Each expected row records where its values come from:

* ``tpqr``: T_{p,q,r} with 1/p+1/q+1/r < 1 has mu = p+q+r-1, tau = p+q+r-2;
* ``milnor-orlik``: a weighted homogeneous isolated germ has
  mu = prod(d/w_i - 1), and Saito's theorem gives tau = mu;
* ``exact``: the exact value computed by germcalc at the commit that
  introduced the benchmark (no closed formula applies).
"""

from __future__ import annotations

import ast
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from germcalc import parse_poly

ROOT = Path(__file__).resolve().parent.parent
V3 = ("x", "y", "z")
V4 = ("x", "y", "z", "w")


@dataclass(frozen=True)
class Rung:
    label: str
    equations: tuple[str, ...]
    ring: tuple[str, ...]
    expected: dict  # invariant name -> value
    provenance: str


WORKLOADS: dict[str, tuple[Rung, ...]] = {
    # one job = milnor_number + tjurina_number of one germ
    "std-ideal": (
        Rung("mu35", ("x^7+y^5+z^4+x^2*y*z+x*y^3*z^2",), V3, {"mu": 35, "tau": 32}, "exact"),
        Rung("mu34", ("x^6+y^5+z^4+x^2*y*z+x*y^2*z^2",), V3, {"mu": 34, "tau": 31}, "exact"),
        Rung("mu33", ("x^5+y^5+z^4+x*y^2*z+x^2*y*z^2",), V3, {"mu": 33, "tau": 30}, "exact"),
        Rung("t864", ("x^8+y^6+z^4+x*y*z",), V3, {"mu": 17, "tau": 16}, "tpqr"),
        Rung("quintic4", ("x^5+y^5+z^5+w^5+x*y*z*w",), V4, {"mu": 131, "tau": 107}, "exact"),
        Rung("quartic4", ("x^4+y^4+z^4+w^4+x^2*y*z",), V4, {"mu": 81, "tau": 81}, "milnor-orlik"),
        Rung("curve33", ("x^9+y^7+x^3*y^3+x^5*y^2",), ("x", "y"), {"mu": 33, "tau": 29}, "exact"),
    ),
    # one job = icis_tjurina of one pair (module standard basis)
    "std-module": (
        Rung("icis17a", ("x^5+y^5+z^3+x*y*z", "x*y+z^3+y^2"), V3, {"tau": 17}, "exact"),
        Rung("icis13", ("x^3+y^4+z^3+x*y*z", "x*y+z^3+y^2"), V3, {"tau": 13}, "exact"),
        Rung("icis15", ("x^4+y^4+z^3+x*y*z", "x*y+z^3+y^2"), V3, {"tau": 15}, "exact"),
        Rung("icis17b", ("x^4+y^5+z^3", "x*y+z^3+y^2"), V3, {"tau": 17}, "exact"),
        Rung("icis19", ("x^4+y^5+z^3+x*y*z", "x*y+z^3"), V3, {"tau": 19}, "exact"),
        Rung("icis32", ("x^5+y^4+z^3+x*y*z", "x*y+z^2"), V3, {"tau": 32}, "exact"),
        Rung("icis52", ("x^5+y^4+z^4+x*y*z", "x*z+y^3"), V3, {"tau": 52}, "exact"),
    ),
    # one job = cli.invariants_report + json.dumps of one germ
    "modular": (
        Rung("t543", ("x^5+y^4+z^3+x*y*z",), V3, {"mu": 11, "tau": 10, "modular": 3}, "tpqr; modular exact"),
        Rung("quartic-t", ("x^4+y^4+z^4+x^2*y^2+x*y*z",), V3, {"mu": 11, "tau": 10, "modular": 3}, "exact"),
        Rung("t555", ("x^5+y^5+z^5+x*y*z",), V3, {"mu": 14, "tau": 13, "modular": 3}, "tpqr; modular exact"),
        Rung("y642-fiber", ("x^6+y^4+z^2+x*y*z+8*y^3",), V3, {"mu": 10, "tau": 10, "modular": 1}, "exact"),
        Rung("mu34-qh", ("x^6+y^5+z^4+x^2*y*z",), V3, {"mu": 34, "tau": 31, "modular": 6}, "exact"),
        Rung("quintic3", ("x^5+y^5+z^5+x^2*y^2*z",), V3, {"mu": 64, "tau": 64, "modular": 12}, "milnor-orlik; modular exact"),
    ),
}

# Families scanned by the cli-scan workload: family, extra CLI arguments,
# swept parameter, number of drawn values, the planted special value and the
# modal Tjurina number of generic rows.
SCANS = (
    ("tpqr:3,3,3", (), "lambda", 9, "-3", 8),
    ("tpqr:3,3,4", (), "lambda", 8, "0", 8),
    ("tpqr:4,4,4", (), "lambda", 5, "0", 10),
    ("example6", (), "r", 9, "-1/27", 8),
    ("example7-martin", ("--zero", "s1..s6"), "t", 9, "1/4", 9),
    ("example8-icis", (), "s", 9, "1", 9),
)
# Magnitudes of the drawn values.  With either sign they avoid every special
# value of the families above: lambda = -3 (T_{3,3,3} non-isolated),
# lambda = 0, r = 0 and r = -1/27 (example6), t = 0 and t = 1/4 (example7),
# s = 1 and s = -1 (example8 non-isolated).
MAGNITUDES = tuple(Fraction(v) for v in ("1/2", "2/3", "3/4", "4/3", "3/2", "2", "5/2", "5/4", "4"))

CLI_TEST = ROOT / "tests" / "test_cli.py"
GOLDEN = ROOT / "tests" / "golden"


def golden_commands() -> tuple[dict[str, list[str]], dict[str, int]]:
    """GOLDEN_COMMANDS and EXPECTED_EXIT as written in tests/test_cli.py.

    Read as literals, so the benchmark runs exactly the commands the tests
    pin without importing pytest.
    """
    tree = ast.parse(CLI_TEST.read_text())
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("GOLDEN_COMMANDS", "EXPECTED_EXIT"):
                found[node.targets[0].id] = ast.literal_eval(node.value)
    return found["GOLDEN_COMMANDS"], found["EXPECTED_EXIT"]


@dataclass(frozen=True)
class Job:
    label: str
    kind: str  # "ideal", "module", "modular", "scan", "goldens"
    payload: object  # equations; an argv list for "scan"; (file, argv, exit code) for "goldens"
    expected: dict


def _rescaled(rung: Rung, seed: int, pass_index: int):
    """The pass's sign rescaling of the rung, distinct across passes while possible."""
    base = [parse_poly(text, rung.ring) for text in rung.equations]
    variants = []
    for signs in itertools.product((1, -1), repeat=len(rung.ring) + len(base)):
        eqs = []
        for f, c in zip(base, signs[len(rung.ring):]):
            f = f.scale(c)
            for var, a in zip(rung.ring, signs):
                f = f.scale_variable(var, a)
            eqs.append(f)
        if tuple(eqs) not in variants:
            variants.append(tuple(eqs))
    random.Random(f"{rung.label}/{seed}").shuffle(variants)
    return variants[pass_index % len(variants)]


def _draws(rng: random.Random, count: int) -> list[str]:
    """``count`` parameter values: fixed magnitudes, seeded signs and order.

    Row cost depends on the size of the value, so fixed magnitudes keep the
    cost of a scan the same from seed to seed.
    """
    values = [m * rng.choice((1, -1)) for m in MAGNITUDES[:count]]
    rng.shuffle(values)
    return [str(v) for v in values]


def _scan_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for family, extra, param, count, planted, modal in SCANS:
        values = _draws(rng, count)
        # the planted point sits mid-scan, so the expected jump index is fixed
        values.insert(count // 2, planted)
        argv = ["scan", "--family", family, *extra, "--param", f"{param}={','.join(values)}",
                "--format", "json"]
        jobs.append(Job(family, "scan", argv, {"jumps": [count // 2], "modal": modal}))
    # the golden commands run as one job: each alone is a few milliseconds,
    # too short to time steadily on a shared host
    commands, exits = golden_commands()
    batch = [(name, list(argv), exits.get(name, 0)) for name, argv in sorted(commands.items())]
    jobs.append(Job("goldens", "goldens", batch, {}))
    return jobs


def make_pass(workload: str, seed: int, pass_index: int) -> list[Job]:
    """The jobs of one pass; the same arguments always give the same jobs."""
    if workload == "cli-scan":
        return _scan_jobs(random.Random(f"{workload}/{seed}/{pass_index}"))
    kind = {"std-ideal": "ideal", "std-module": "module", "modular": "modular"}[workload]
    return [Job(r.label, kind, _rescaled(r, seed, pass_index), r.expected)
            for r in WORKLOADS[workload]]
