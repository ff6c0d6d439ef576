"""Parameterized families of germs and invariant scans.

A ``FamilySpec`` holds equation templates over the ring variables plus
named parameters (extra variables of the combined ring); evaluation
substitutes exact rational values for every parameter and checks that the
fiber still passes through the origin.  ``scan`` computes the invariants
fiber by fiber into a ``ScanReport`` of its rows; the report reads off
its rows the modal value (the most frequent finite Tjurina number, ties to
the smaller one, matching upper semicontinuity: the generic value is the
minimum) and the sample points where the Tjurina number leaves it.

The built-in catalog carries the families used throughout the test suite,
tpqr parsed from its name and the others from one table, ``_FAMILIES``:

* ``tpqr:p,q,r``      x^p + y^q + z^r + lambda*x*y*z
* ``example6``        x^4+y^3+z^3+mu*x*y*z+r*x^3+s1*y+s2*y^2+t1*z+t2*z^2
* ``example7-martin`` x^4-x^2*y^2+s1*x+s2*y+s3*x*y+s4*y^2+s5*y^3+s6*x*y^2
                      +t*y^4+y^5
* ``example8-icis``   the pair (x^4+y^4+2*z^2, s*z-x*y)
* ``example9-y642``   x^6+y^4+z^2+x*y*z+r*x^4+s*x^5+t*y^3+v*z

Parameter defaults (used by the CLI when a point leaves parameters
unset) are zero except example6's mu, which defaults to 1: the family
needs a fixed nonzero value and any choice is recorded in the report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import inf
from typing import Mapping, Sequence

from .modular import modular_tangent_space
from .parse import parse_poly
from .poly import Polynomial, _exact
from .singularity import GermInput, find_weights, icis_tjurina, milnor_number, tjurina_algebra


@dataclass(frozen=True)
class FamilySpec:
    """Equation templates over ring variables plus named parameters."""

    name: str
    ring_vars: tuple[str, ...]
    parameters: tuple[str, ...]
    equations: tuple[Polynomial, ...]  # over ring_vars + parameters
    description: str
    defaults: dict[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if set(self.ring_vars) & set(self.parameters):
            raise ValueError("ring variables and parameters must be disjoint")
        combined = self.ring_vars + self.parameters
        for eq in self.equations:
            if eq.ring != combined:
                raise ValueError("template ring must be ring_vars + parameters")

    @property
    def k(self) -> int:
        return len(self.equations)


def _template(name, ring_vars, parameters, texts, description, defaults=None):
    combined = tuple(ring_vars) + tuple(parameters)
    eqs = tuple(parse_poly(t, combined) for t in texts)
    return FamilySpec(
        name=name,
        ring_vars=tuple(ring_vars),
        parameters=tuple(parameters),
        equations=eqs,
        description=description,
        defaults={k: _exact(v) for k, v in (defaults or {}).items()},
    )


# name -> (ring variables, parameters, templates, description, defaults)
_FAMILIES = {
    "example6": (
        ("x", "y", "z"),
        ("mu", "r", "s1", "s2", "t1", "t2"),
        ["x^4+y^3+z^3+mu*x*y*z+r*x^3+s1*y+s2*y^2+t1*z+t2*z^2"],
        "five-parameter deformation of the (4,3,3) germ, mu fixed nonzero",
        {"mu": 1},
    ),
    "example7-martin": (
        ("x", "y"),
        ("s1", "s2", "s3", "s4", "s5", "s6", "t"),
        ["x^4-x^2*y^2+s1*x+s2*y+s3*x*y+s4*y^2+s5*y^3+s6*x*y^2+t*y^4+y^5"],
        "seven-parameter plane-curve family with a Milnor number jump",
        {},
    ),
    "example8-icis": (
        ("x", "y", "z"),
        ("s",),
        ["x^4+y^4+2*z^2", "s*z-x*y"],
        "complete intersection space-curve family",
        {},
    ),
    "example9-y642": (
        ("x", "y", "z"),
        ("r", "s", "t", "v"),
        ["x^6+y^4+z^2+x*y*z+r*x^4+s*x^5+t*y^3+v*z"],
        "four-parameter deformation of the (6,4,2) germ",
        {},
    ),
}

CATALOG_NAMES = ("tpqr:p,q,r", *_FAMILIES)


def catalog(name: str) -> FamilySpec:
    """Look up a built-in family; tpqr takes its three exponents inline."""
    ident = name.strip().lower()
    if ident.startswith("tpqr"):
        rest = ident[4:].strip()
        if rest.startswith(":"):
            rest = rest[1:]
        elif rest.startswith("(") and rest.endswith(")"):
            rest = rest[1:-1]
        elif rest:
            raise ValueError(f"unknown family {name!r}; known: {', '.join(CATALOG_NAMES)}")
        try:
            p, q, r = (int(part) for part in rest.split(","))
        except ValueError:
            raise ValueError("tpqr needs three integer exponents, e.g. tpqr:3,3,3") from None
        if min(p, q, r) < 2:
            raise ValueError("tpqr exponents must be at least 2")
        return _template(
            f"tpqr:{p},{q},{r}",
            ("x", "y", "z"),
            ("lambda",),
            [f"x^{p}+y^{q}+z^{r}+lambda*x*y*z"],
            f"three-term germ with exponents ({p},{q},{r}) and a scaled x*y*z term",
        )
    if ident in _FAMILIES:
        return _template(ident, *_FAMILIES[ident])
    raise ValueError(f"unknown family {name!r}; known: {', '.join(CATALOG_NAMES)}")


def evaluate(spec: FamilySpec, point: Mapping[str, Fraction | int | str]) -> GermInput:
    """Specialize every parameter to an exact rational; fiber must pass 0.

    A value may be a ``Fraction``, an int or a string such as ``"-1/27"``;
    a float raises ``TypeError`` (``poly._exact``), since a rounded
    parameter misses the special fibers a family is scanned for.
    """
    values: dict[str, Fraction] = {}
    for p in spec.parameters:
        if p not in point:
            raise ValueError(f"missing value for parameter {p!r}")
        values[p] = _exact(point[p])
    extra = set(point) - set(spec.parameters)
    if extra:
        raise ValueError(f"unknown parameters {sorted(extra)}")
    fibers = []
    for eq in spec.equations:
        sub = eq.substitute_values(values).restrict_ring(spec.ring_vars)
        if sub.constant_term() != 0:
            raise ValueError("fiber does not pass through the origin")
        fibers.append(sub)
    return GermInput(tuple(fibers))


@dataclass(frozen=True)
class ScanRow:
    point: dict[str, Fraction]
    mu: int | float | None
    tau: int | float | None
    modular_dim: int | None
    weights_found: bool
    error: str | None = field(default=None, kw_only=True)

    @property
    def non_isolated(self) -> bool:
        return self.tau == inf


@dataclass(frozen=True)
class ScanReport:
    """The rows of one family scan; the modal tau and the jumps are read off them."""

    family: str
    rows: tuple[ScanRow, ...]

    @cached_property
    def modal_tau(self) -> int | None:
        """The most frequent finite tau, ties to the smaller; None when no tau is finite."""
        counts = Counter(int(row.tau) for row in self.rows if row.tau not in (None, inf))
        return min(counts, key=lambda t: (-counts[t], t), default=None)

    @cached_property
    def jump_indices(self) -> tuple[int, ...]:
        """The rows without an error whose tau is not the modal one; an infinite tau never is."""
        modal = self.modal_tau
        return tuple(i for i, r in enumerate(self.rows) if r.error is None and r.tau != modal)


def _hypersurface_invariants(f: Polynomial, with_modular: bool = True):
    """mu, tau, the Tjurina algebra, the weights and the modular tangent space of f.

    The one per-germ computation behind a scan row and the CLI report.  The
    Tjurina algebra and the modular space are None for a non-isolated germ,
    whose weights come from ``find_weights``; an isolated germ's weights are
    those its Tjurina algebra found.  The modular space is computed only
    ``with_modular``.
    """
    mu = milnor_number(GermInput((f,)))
    tau, t1 = tjurina_algebra(f)
    wdata = find_weights(f) if t1 is None else t1.weight_data
    mt = modular_tangent_space(f) if with_modular and t1 is not None else None
    return mu, tau, t1, wdata, mt


def scan(
    spec: FamilySpec,
    points: Sequence[Mapping[str, Fraction | int | str]],
    with_modular: bool = True,
) -> ScanReport:
    """Per-point invariants with jump detection against the modal tau.

    Hypersurface fibers get mu, tau, weight detection and (optionally) the
    modular tangent dimension; complete intersection fibers get the module
    Tjurina number.  Evaluation errors are reported per row, not raised.
    Point values are exact as in ``evaluate``; a float in any point raises
    ``TypeError`` before the first row is computed.
    """
    if not points:
        raise ValueError("no sample points")
    rows: list[ScanRow] = []
    for clean in [{p: _exact(v) for p, v in point.items()} for point in points]:
        try:
            germ = evaluate(spec, clean)
        except ValueError as exc:
            rows.append(ScanRow(clean, None, None, None, False, error=str(exc)))
            continue
        if germ.k == 1:
            mu, tau, _, wdata, mt = _hypersurface_invariants(germ.equations[0], with_modular)
            modular_dim = None if mt is None else mt.dimension
            rows.append(ScanRow(clean, mu, tau, modular_dim, wdata is not None))
        else:
            rows.append(ScanRow(clean, None, icis_tjurina(germ), None, False))
    return ScanReport(family=spec.name, rows=tuple(rows))
