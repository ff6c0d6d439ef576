"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial carries its ring (an ordered tuple of variable names) and a
term map from exponent tuples to nonzero ``Fraction`` coefficients:

    x^2*y + 3   over (x, y)   ->   {(2, 1): Fraction(1), (0, 0): Fraction(3)}

The zero polynomial has an empty term map.  All arithmetic is exact; two
polynomials are equal iff they share the ring and the term map, so identity
testing is fully reliable.  Values are immutable after construction and safe
to share across threads.

An element of a free module O^k over the same ring is a ``VectorPoly``: a
term map from (component, exponent tuple) to a nonzero ``Fraction``.

Every number that enters from outside (a coefficient, a scale factor, a
substituted or evaluated value) passes one gate, ``_exact``: a
``Fraction``, an int or a string such as ``"-1/27"`` becomes a
``Fraction``, and a float raises ``TypeError``, since it is already
rounded.  Exponents and variable names are likewise checked in one place
each (``_exponent``, ``_position``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Exponent = tuple[int, ...]
ModTerm = tuple[int, Exponent]  # (component, monomial)
Terms = dict[ModTerm, Fraction]

_ZERO = Fraction(0)


def _exact(c) -> Fraction:
    """An outside number as a ``Fraction``; a float is refused, being already rounded."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}")
    return Fraction(c)


def _exponent(expo, ring: tuple[str, ...]) -> Exponent:
    expo = tuple(expo)
    if len(expo) != len(ring) or any(e < 0 for e in expo):
        raise ValueError(f"bad exponent {expo} for ring {ring}")
    return expo


def _position(ring: tuple[str, ...], name: str) -> int:
    if name not in ring:
        raise ValueError(f"unknown variable {name!r} in ring {ring}")
    return ring.index(name)


class Polynomial:
    """Immutable exact polynomial over an ordered variable ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Iterable[str], terms: Mapping[Exponent, Fraction] | None = None):
        ring = tuple(ring)
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                coeff = _exact(coeff)
                if coeff != 0:
                    clean[_exponent(expo, ring)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Iterable[str]) -> Polynomial:
        return cls(ring)

    @classmethod
    def constant(cls, ring: Iterable[str], value) -> Polynomial:
        ring = tuple(ring)
        return cls(ring, {(0,) * len(ring): _exact(value)})

    @classmethod
    def variable(cls, ring: Iterable[str], name: str) -> Polynomial:
        ring = tuple(ring)
        expo = [0] * len(ring)
        expo[_position(ring, name)] = 1
        return cls(ring, {tuple(expo): Fraction(1)})

    @classmethod
    def monomial(cls, ring: Iterable[str], expo: Exponent, coeff=1) -> Polynomial:
        return cls(ring, {tuple(expo): _exact(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * len(self.ring), _ZERO)

    def order_at_origin(self) -> int:
        """Min total degree of a term; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return min(sum(e) for e in self.terms)

    def iter_terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        return iter(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: Polynomial):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_ring(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, _ZERO) + coeff
        return Polynomial(self.ring, out)

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + -other

    def __neg__(self) -> Polynomial:
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            self._check_ring(other)
            out: dict[Exponent, Fraction] = {}
            for ea, ca in self.terms.items():
                for eb, cb in other.terms.items():
                    expo = tuple(a + b for a, b in zip(ea, eb))
                    out[expo] = out.get(expo, _ZERO) + ca * cb
            return Polynomial(self.ring, out)
        return self.scale(other)

    def __rmul__(self, other) -> Polynomial:
        return self.scale(other)

    def scale(self, c) -> Polynomial:
        c = _exact(c)
        if c == 0:
            return Polynomial(self.ring)
        return Polynomial(self.ring, {e: c * coeff for e, coeff in self.terms.items()})

    def __pow__(self, n: int) -> Polynomial:
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.constant(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and substitution ------------------------------------------

    def partial_derivative(self, var: str) -> Polynomial:
        """Formal partial derivative with respect to a ring variable."""
        i = _position(self.ring, var)
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            e = expo[i]
            if e == 0:
                continue
            lowered = expo[:i] + (e - 1,) + expo[i + 1 :]
            out[lowered] = out.get(lowered, _ZERO) + coeff * e
        return Polynomial(self.ring, out)

    def evaluate(self, point: Mapping[str, Fraction]) -> Fraction:
        missing = set(self.ring) - set(point)
        if missing:
            raise ValueError(f"missing values for {sorted(missing)}")
        vals = [_exact(point[name]) for name in self.ring]
        total = _ZERO
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(vals, expo):
                if e:
                    term *= v**e
            total += term
        return total

    def substitute_values(self, values: Mapping[str, Fraction]) -> Polynomial:
        """Substitute exact rational values for a subset of the variables.

        The result stays in the same ring; substituted variables no longer
        occur in any term.
        """
        idx = {_position(self.ring, name): _exact(v) for name, v in values.items()}
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            c = coeff
            new = list(expo)
            for i, v in idx.items():
                e = expo[i]
                if e:
                    c *= v**e
                new[i] = 0
            if c == 0:
                continue
            key = tuple(new)
            out[key] = out.get(key, _ZERO) + c
        return Polynomial(self.ring, out)

    def restrict_ring(self, new_ring: Iterable[str]) -> Polynomial:
        """Reinterpret over a sub-ring; every dropped variable must be unused."""
        new_ring = tuple(new_ring)
        positions = [_position(self.ring, name) for name in new_ring]
        dropped = [i for i in range(len(self.ring)) if i not in positions]
        out: dict[Exponent, Fraction] = {}
        for expo, coeff in self.terms.items():
            if any(expo[i] for i in dropped):
                raise ValueError("polynomial uses a variable outside the target ring")
            out[tuple(expo[i] for i in positions)] = coeff
        return Polynomial(new_ring, out)

    def scale_variable(self, var: str, c) -> Polynomial:
        """Apply the coordinate change var -> c * var."""
        c = _exact(c)
        if c == 0:
            raise ValueError("coordinate scale must be a unit")
        i = _position(self.ring, var)
        return Polynomial(self.ring, {e: coeff * c ** e[i] for e, coeff in self.terms.items()})

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({'+'.join(self.ring)}: {format_polynomial(self)})"


def _print_key(expo: Exponent):
    # degree first, then degrevlex, so printing is deterministic
    return (sum(expo), tuple(-e for e in reversed(expo)))


def format_monomial(ring: tuple[str, ...], expo: Exponent) -> str:
    parts = []
    for name, e in zip(ring, expo):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_polynomial(p: Polynomial) -> str:
    """Canonical text form; re-parsing it reproduces the polynomial."""
    if not p.terms:
        return "0"
    pieces = []
    for expo in sorted(p.terms, key=_print_key, reverse=True):
        coeff = p.terms[expo]
        mono = format_monomial(p.ring, expo)
        mag = abs(coeff)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if coeff < 0 else "+", body))
    sign, body = pieces[0]
    text = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        text += f"{sign}{body}"
    return text


class VectorPoly:
    """Element of a free module O^ncomp over a shared polynomial ring."""

    __slots__ = ("ring", "ncomp", "terms")

    def __init__(self, ring: tuple[str, ...], ncomp: int, terms=None):
        ring = tuple(ring)
        clean: Terms = {}
        if terms:
            for (comp, expo), coeff in terms.items():
                coeff = _exact(coeff)
                if coeff == 0:
                    continue
                if not 0 <= comp < ncomp:
                    raise ValueError(f"component {comp} out of range for O^{ncomp}")
                clean[(comp, _exponent(expo, ring))] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ncomp", ncomp)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("VectorPoly is immutable")

    @classmethod
    def from_polys(cls, polys: Sequence[Polynomial]) -> VectorPoly:
        ring = polys[0].ring
        terms: Terms = {}
        for comp, p in enumerate(polys):
            if p.ring != ring:
                raise ValueError("components from different rings")
            for expo, coeff in p.iter_terms():
                terms[(comp, expo)] = coeff
        return cls(ring, len(polys), terms)

    @classmethod
    def from_poly(cls, p: Polynomial) -> VectorPoly:
        return cls.from_polys([p])

    def component(self, i: int) -> Polynomial:
        return Polynomial(self.ring, {e: c for (comp, e), c in self.terms.items() if comp == i})

    def to_polys(self) -> list[Polynomial]:
        return [self.component(i) for i in range(self.ncomp)]

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorPoly):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.ncomp == other.ncomp
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.ncomp, frozenset(self.terms.items())))

    def scale(self, c) -> VectorPoly:
        c = _exact(c)
        return VectorPoly(self.ring, self.ncomp, {k: c * v for k, v in self.terms.items()})

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.to_polys()) + ")"

    def __repr__(self) -> str:
        return f"VectorPoly{self}"
