"""Spans around the public functions of each germcalc module.

The tracer replaces every public function of a germcalc module by a
wrapper, under each name where other modules look it up (for example
``singularity.standard_basis`` and ``modular.quotient_coordinates``).
Private helpers stay unwrapped, so their time is the self time of the
public function that calls them.  Spans stay in memory and are written out
when the pass ends.  Counts are taken from arguments and returned objects
after the pass, outside every timed span.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time

MODULES = ("cli", "family", "modular", "singularity", "groebner", "linalg", "oracle",
           "parse", "poly", "orders")

# Spans whose arguments and result are kept for the counts below.
KEEP = {
    "groebner.standard_basis",
    "groebner.syzygies",
    "modular.derivation_module",
    "linalg.kernel_basis",
    "singularity.tjurina_number",
    "singularity.find_weights",
}

SELF_TIMED = (
    "groebner.standard_basis",
    "groebner.staircase",
    "groebner.quotient_coordinates",
    "groebner.syzygies",
    "modular.action_matrix",
    "modular.modular_tangent_space",
    "modular.derivation_module",
    "linalg.rref",
    "linalg.kernel_basis",
    "family.evaluate",
    "family.scan",
    "cli.main",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job, kept]
        self.stack: list[int] = []
        self.job = -1
        self.reruns: list[tuple[float, float, int]] = []  # start, end, calls stood for

    def install(self):
        """Wrap every public germcalc function in every module namespace."""
        wrappers: dict[int, object] = {}
        namespaces = [importlib.import_module("germcalc")]
        namespaces += [importlib.import_module(f"germcalc.{m}") for m in MODULES]
        for ns in namespaces:
            for attr, fn in list(vars(ns).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("germcalc")):
                    continue
                if id(fn) not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                    wrappers[id(fn)] = self._wrap(name, fn)
                setattr(ns, attr, wrappers[id(fn)])

    def _wrap(self, name, fn):
        spans, stack, keep = self.spans, self.stack, name in KEEP

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if keep:
                span[5] = (args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for name, start, end, parent, job, _ in self.spans:
                out.write(json.dumps([name, start, end, parent, job]) + "\n")

    def rerun_unverified(self):
        """Re-run each distinct standard-basis input with the public ``verify=False``.

        The certificate time is the traced time of the calls minus the time
        of these re-runs, each standing for every call with its input.
        """
        calls = [s[5] for s in self.spans if s[0] == "groebner.standard_basis" and s[5]]
        distinct: dict[tuple, int] = {}
        for args, kwargs, _ in calls:
            key = (tuple(args[0]), args[1] if len(args) > 1 else kwargs["order"])
            distinct[key] = distinct.get(key, 0) + 1
        standard_basis = importlib.import_module("germcalc.groebner").standard_basis.__wrapped__
        traced = len(self.spans)
        for (gens, order), count in distinct.items():
            start = time.perf_counter()
            standard_basis(list(gens), order, verify=False)
            self.reruns.append((start, time.perf_counter(), count))
        del self.spans[traced:]  # spans of the re-runs are not part of the pass

    def layer_metrics(self, wall: float, at) -> dict[str, float]:
        """Per-layer numbers of one traced pass of ``wall`` seconds.

        ``at`` maps a raw ``time.perf_counter()`` reading to the clock that
        ``wall`` is measured in; ``rerun_unverified`` has run.
        """
        spans = [[name, at(start), at(end), parent, job, kept]
                 for name, start, end, parent, job, kept in self.spans]
        child = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {name: 0.0 for name in SELF_TIMED}
        top = 0.0
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            if name in self_s:
                self_s[name] += end - start - child[i]
            if parent < 0:
                top += end - start
        kept = {name: [s[5] for s in spans if s[0] == name and s[5]] for name in KEEP}
        out = {f"{name}.self_s": v for name, v in self_s.items()}
        unverified = sum((at(end) - at(start)) * count for start, end, count in self.reruns)
        out.update(self._basis_counts(kept["groebner.standard_basis"], spans, unverified))
        out["groebner.quotient_coordinates.calls"] = sum(
            s[0] == "groebner.quotient_coordinates" for s in spans)
        out["groebner.syzygies.count"] = sum(len(r) for _, _, r in kept["groebner.syzygies"])
        out["modular.derivations.count"] = sum(
            len(r) for _, _, r in kept["modular.derivation_module"])
        out["modular.kernel_rows"] = sum(len(a[0]) for a, _, _ in kept["linalg.kernel_basis"])
        out["linalg.rref.calls"] = sum(s[0] == "linalg.rref" for s in spans)
        for name in ("singularity.tjurina_number", "singularity.find_weights"):
            out[f"{name}.calls_per_germ"] = _calls_per_input(kept[name])
        out["trace.coverage_frac"] = top / wall
        out["trace.wall_s"] = wall
        return out

    def _basis_counts(self, calls, spans, unverified: float) -> dict[str, float]:
        """Size counts of each standard basis, and the certificate's cost.

        ``unverified`` is the time of the same calls run with ``verify=False``.
        """
        sb = "groebner.standard_basis"
        out_gens = digits = terms = 0
        for _, _, basis in calls:
            out_gens += len(basis.generators)
            for g in basis.generators:
                terms = max(terms, len(g.terms))
                for c in g.terms.values():
                    digits = max(digits, len(str(abs(c.numerator))), len(str(c.denominator)))
        traced = sum(s[2] - s[1] for s in spans if s[0] == sb)
        return {
            f"{sb}.calls": len(calls),
            f"{sb}.out_gens": out_gens,
            f"{sb}.max_coeff_digits": digits,
            f"{sb}.max_terms": terms,
            f"{sb}.certificate_s": traced - unverified,
            f"{sb}.distinct_input_frac": len(self.reruns) / len(calls) if calls else 1.0,
        }


def _calls_per_input(calls) -> float:
    """Median number of calls per distinct first argument (0 without calls)."""
    counts: dict = {}
    for args, _, _ in calls:
        counts[args[0]] = counts.get(args[0], 0) + 1
    return statistics.median(counts.values()) if counts else 0
