"""Monomial orderings for polynomial rings and free modules.

Three scalar orderings are provided:

* ``degrevlex``      global: 1 < x for every variable,
* ``negdegrevlex``   local: 1 > x, total degree decides first (smaller wins),
* ``weighted(w)``    local: negative weighted-degree order for positive
                     integer weights, revlex tie-break.

The local orderings are degree-compatible: the leading monomial is always
one of minimal (weighted) degree.  Free-module terms (component, monomial)
are compared position-over-term with descending component index, i.e. a
term in a higher component is greater.

Comparison is exposed both as ``compare`` (three-way) and as a sort key
(larger key = greater monomial), so term maps can be sorted directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .poly import Exponent


@dataclass(frozen=True)
class MonomialOrder:
    kind: str  # "degrevlex" | "negdegrevlex" | "weighted"
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("degrevlex", "negdegrevlex", "weighted"):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == "weighted":
            if not self.weights or any(not isinstance(w, int) or w <= 0 for w in self.weights):
                raise ValueError(f"weighted order needs positive int weights, got {self.weights!r}")
        elif self.weights is not None:
            raise ValueError(f"{self.kind} order takes no weights")

    def is_local(self) -> bool:
        return self.kind in ("negdegrevlex", "weighted")

    def is_global(self) -> bool:
        return not self.is_local()

    def degree(self, expo: Exponent) -> int:
        """The degree this ordering is compatible with (plain or weighted)."""
        if self.kind == "weighted":
            return sum(w * e for w, e in zip(self.weights, expo))
        return sum(expo)

    def sort_key(self, expo: Exponent):
        """Totally ordered key: bigger key exactly when the monomial is greater."""
        revlex = tuple(-e for e in reversed(expo))
        if self.kind == "degrevlex":
            return (sum(expo), revlex)
        if self.kind == "negdegrevlex":
            return (-sum(expo), revlex)
        return (-self.degree(expo), revlex)

    def module_key(self, term: tuple[int, Exponent]):
        """Position-over-term key on (component, monomial) pairs."""
        comp, expo = term
        return (comp, self.sort_key(expo))


DEGREVLEX = MonomialOrder("degrevlex")
NEGDEGREVLEX = MonomialOrder("negdegrevlex")


def weighted_local(weights) -> MonomialOrder:
    """The local weighted order of positive int weights, one per ring variable.

    No weight is converted: a float, a string or a nonpositive weight raises
    ValueError.  That the count matches the ring is checked where a standard
    basis is computed.
    """
    return MonomialOrder("weighted", tuple(weights))


def compare(order: MonomialOrder, a: Exponent, b: Exponent) -> int:
    """Three-way comparison: positive if a > b, negative if a < b, 0 if equal."""
    if len(a) != len(b):
        raise ValueError("monomials from different rings are not comparable")
    ka, kb = order.sort_key(a), order.sort_key(b)
    return (ka > kb) - (ka < kb)
