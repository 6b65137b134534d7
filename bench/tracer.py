"""In-process span tracer for the traced benchmark run.

The tracer wraps dquant's public functions from the outside: nothing
under src/ changes. Each wrapped call records inclusive time, self time
(inclusive minus the wrapped calls it made) and a call count; a few hooks
add the work counts of the per-layer metrics. Wrappers are installed for
the duration of a `with Tracer.installed(...)` block and removed after.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

#: modules whose public functions are wrapped
MODULES = ("susceptibility", "boson_algebra", "modes", "fields", "hamiltonian", "maxwell",
           "dynamics", "serialize")
VERIFY_SPANS = ("maxwell.verify_faraday", "maxwell.verify_ampere")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, time spent in wrapped children]
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts: Counter = Counter()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def active(self, names) -> bool:
        return any(frame[0] in names for frame in self.stack)

    def wrap(self, name: str, fn, hook=None):
        """fn with a span; hook(result, *args, **kwargs) runs outside the span's own time."""
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec = spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if hook is not None:
                hook(result, *args, **kwargs)
            if stack:
                # the hook's own time counts as a child, not as the parent's self time
                stack[-1][1] += perf_counter() - t0
            return result

        return traced

    # -- count hooks ---------------------------------------------------
    def _poly_mul(self, result, a, b):
        if hasattr(b, "terms"):
            self.counts["boson_algebra.pair_products"] += len(a.terms) * len(b.terms)
            self.counts["boson_algebra.terms_out"] += len(result.terms)

    def _field_mul(self, result, a, b):
        if hasattr(b, "components"):
            self.counts["fields.component_pairs"] += len(a.components) * len(b.components)
            self.counts["fields.terms_built"] += sum(len(p.terms) for p in result.components.values())

    def _integrate(self, result, f, l_box, region_length=None):
        if region_length is None:
            self.counts["fields.k0_terms"] += len(f.component(0).terms)
        if self.active(VERIFY_SPANS):
            self.counts["maxwell.hamiltonian_builds"] += 1

    def _coefficient(self, result, poly, powers):
        if self.active(("hamiltonian.scheme_resonant_coefficients",)):
            self.counts["hamiltonian.coeff_reads"] += 1
            self.counts["hamiltonian.coeff_terms"] += len(poly.terms)

    def _to_matrix(self, result, poly, space):
        self.counts["boson_algebra.matrix_nnz"] += int(result.nnz)
        self.counts["boson_algebra.fock_dim"] += int(space.dim)

    # -- installation --------------------------------------------------
    @contextlib.contextmanager
    def installed(self, package: str = "dquant"):
        """Wrap every public function of MODULES, the two products and expm_multiply."""
        undo = []

        def patch(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        mods["cli"] = importlib.import_module(f"{package}.cli")
        namespaces = [sys.modules[package]] + list(mods.values())
        hooks = {"fields.integrate_density": self._integrate,
                 "boson_algebra.to_matrix": self._to_matrix}
        for short in MODULES:
            mod = mods[short]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                traced = self.wrap(name, fn, hooks.get(name))
                for ns in namespaces:  # every module that imported the function by name
                    if vars(ns).get(attr) is fn:
                        patch(ns, attr, traced)
        poly = mods["boson_algebra"].BosonicPolynomial
        field = mods["fields"].FieldOperator
        patch(poly, "__mul__", self.wrap("boson_algebra.BosonicPolynomial.__mul__",
                                         poly.__mul__, self._poly_mul))
        patch(poly, "coefficient", self.wrap("boson_algebra.BosonicPolynomial.coefficient",
                                             poly.coefficient, self._coefficient))
        patch(field, "__mul__", self.wrap("fields.FieldOperator.__mul__",
                                          field.__mul__, self._field_mul))
        spla = importlib.import_module("scipy.sparse.linalg")
        patch(spla, "expm_multiply", self.wrap("dynamics.expm_multiply", spla.expm_multiply))
        try:
            yield self
        finally:
            for owner, attr, old in reversed(undo):
                setattr(owner, attr, old)

    # -- per-layer metrics ---------------------------------------------
    def layer_metrics(self) -> dict:
        """The per-layer metrics of everything recorded since the last reset."""

        def calls(name):
            return self.spans.get(name, [0, 0.0, 0.0])[0]

        def incl(*names):
            return sum(self.spans.get(n, [0, 0.0, 0.0])[1] for n in names)

        def self_s(name):
            return self.spans.get(name, [0, 0.0, 0.0])[2]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        poly_mul = "boson_algebra.BosonicPolynomial.__mul__"
        return {
            "boson_algebra.mul_s": self_s(poly_mul),
            "boson_algebra.mul_calls": calls(poly_mul),
            "boson_algebra.pair_products": c["boson_algebra.pair_products"],
            "boson_algebra.terms_out": c["boson_algebra.terms_out"],
            "fields.mul_s": self_s("fields.FieldOperator.__mul__"),
            "fields.component_pairs": c["fields.component_pairs"],
            "fields.terms_built": c["fields.terms_built"],
            "fields.k0_useful_ratio": ratio(c["fields.k0_terms"], c["fields.terms_built"]),
            "hamiltonian.resonant_coeff_s": incl("hamiltonian.scheme_resonant_coefficients"),
            "hamiltonian.coeff_useful_ratio": ratio(c["hamiltonian.coeff_reads"],
                                                    c["hamiltonian.coeff_terms"]),
            "maxwell.verify_s": incl(*VERIFY_SPANS),
            "maxwell.heisenberg_s": incl("boson_algebra.heisenberg_derivative"),
            "maxwell.hamiltonian_builds": c["maxwell.hamiltonian_builds"],
            "susceptibility.invert_series_s": incl("susceptibility.invert_series"),
            "boson_algebra.to_matrix_s": incl("boson_algebra.to_matrix"),
            "boson_algebra.matrix_nnz": c["boson_algebra.matrix_nnz"],
            "boson_algebra.fock_dim": c["boson_algebra.fock_dim"],
            "dynamics.evolve_s": incl("dynamics.evolve"),
            "dynamics.expm_multiply_s": incl("dynamics.expm_multiply"),
            "dynamics.evolve_calls": calls("dynamics.evolve"),
        }

    def span_table(self) -> dict:
        return {name: {"calls": rec[0], "inclusive_s": rec[1], "self_s": rec[2]}
                for name, rec in sorted(self.spans.items())}
