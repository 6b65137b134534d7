"""Operator-valued field expansions on the discrete wavevector grid.

A :class:`FieldOperator` maps integer grid indices m (wavevector k = w*m)
to operator coefficients with respect to the continuum-normalized plane
waves phi_k(z) = (2*pi)**-0.5 * exp(i k z). In that basis

* the expansion coefficient of mode (J, m) is sqrt(hbar*omega/2) * sqrt(w)
  times the amplitude of its flat profile
  (:func:`~dquant.modes.field_coefficients`),
* a pointwise product of fields convolves coefficients with one extra
  factor (2*pi)**-0.5 per multiplication,
* integrating a product of fields over the box picks the zero-frequency
  component times (2*pi)**-0.5 * l_box.

A field is a frozen record: sums, products and restrictions return new
fields, and the leakage a restriction records travels with the field it
returns.
"""

from __future__ import annotations

from math import pi, sqrt
from numbers import Number

from .boson_algebra import BosonicPolynomial, annihilation, creation
from .modes import ModeSet, field_coefficients
from .record import record
from .units import UnitSystem


@record
class FieldOperator:
    """Fourier-component map of one (possibly composite) field."""

    components: dict
    w: float
    kind: str = "derived"
    #: coefficient norms of components dropped by a basis restriction (a fresh dict if None)
    leakage: dict | None = None

    def __post_init__(self):
        if self.leakage is None:
            object.__setattr__(self, "leakage", {})

    def k(self, m: int) -> float:
        return self.w * m

    def wavevectors(self) -> list[int]:
        return sorted(self.components)

    def component(self, m: int) -> BosonicPolynomial:
        return self.components.get(m, BosonicPolynomial.zero())

    def __add__(self, other: "FieldOperator") -> "FieldOperator":
        self._check_compatible(other)
        acc = dict(self.components)
        for m, poly in other.components.items():
            acc[m] = acc[m] + poly if m in acc else poly
        return FieldOperator(_prune(acc), self.w, kind=self.kind if self.kind == other.kind else "derived")

    def __rmul__(self, scalar) -> "FieldOperator":
        return FieldOperator({m: scalar * p for m, p in self.components.items()}, self.w,
                             kind=self.kind)

    def __mul__(self, other):
        if isinstance(other, Number):
            return self.__rmul__(other)
        return self.product(other)

    def product(self, other: "FieldOperator") -> "FieldOperator":
        """Pointwise product: each pair of components multiplied by ``*`` times (2*pi)**-0.5."""
        self._check_compatible(other)
        acc: dict[int, BosonicPolynomial] = {}
        norm = 1.0 / sqrt(2 * pi)
        for m1, p1 in self.components.items():
            for m2, p2 in other.components.items():
                term = norm * (p1 * p2)
                m = m1 + m2
                acc[m] = acc[m] + term if m in acc else term
        return FieldOperator(_prune(acc), self.w, kind="derived")

    def product_k0(self, other: "FieldOperator") -> BosonicPolynomial:
        """``self.product(other).component(0)`` without the other components.

        Only self[m] * other[-m] is built, accumulated over m in self's
        order: the float operations the full product performs for k = 0, so
        the result is bit-identical to its component. Enough wherever only
        the box integral of the product is read.
        """
        self._check_compatible(other)
        acc = None
        norm = 1.0 / sqrt(2 * pi)
        for m, p1 in self.components.items():
            if -m in other.components:
                term = norm * (p1 * other.components[-m])
                acc = term if acc is None else acc + term
        return BosonicPolynomial.zero() if acc is None else acc

    def _check_compatible(self, other: "FieldOperator"):
        if abs(self.w - other.w) > 1e-12 * max(self.w, other.w):
            raise ValueError("field operators live on different wavevector grids")

    def restrict(self, retained: set[int]) -> "FieldOperator":
        """Drop out-of-basis components, recording their norms as leakage."""
        kept, leaked = {}, dict(self.leakage)
        for m, poly in self.components.items():
            if m in retained:
                kept[m] = poly
            else:
                leaked[m] = leaked.get(m, 0.0) + poly.norm()
        return FieldOperator(kept, self.w, kind=self.kind, leakage=leaked)


def _prune(components: dict) -> dict:
    return {m: p for m, p in components.items() if not p.is_zero}


def expand_fields(ms: ModeSet, units: UnitSystem) -> tuple[FieldOperator, FieldOperator]:
    """Displacement and induction fields of a mode set.

    Per mode: its :func:`~dquant.modes.field_coefficients` at +m on the
    annihilation operator, their conjugates at -m on the creation operator.
    Every profile is flat over unit cross-section, so a product of fields is
    integrated over unit area.
    """
    if not ms.modes:
        raise ValueError("cannot expand fields of an empty mode set")
    w = ms.w
    d_comp: dict[int, BosonicPolynomial] = {}
    b_comp: dict[int, BosonicPolynomial] = {}
    for mode in ms.modes:
        cd, cb = field_coefficients(mode, w, units)
        a_op = annihilation(mode.label)
        ad_op = creation(mode.label)
        for comp, c in ((d_comp, cd), (b_comp, cb)):
            plus = c * a_op
            minus = c.conjugate() * ad_op
            comp[mode.m] = comp[mode.m] + plus if mode.m in comp else plus
            comp[-mode.m] = comp[-mode.m] + minus if -mode.m in comp else minus
    return (FieldOperator(d_comp, w, kind="D"), FieldOperator(b_comp, w, kind="B"))


def integrate_density(f: FieldOperator, l_box: float) -> BosonicPolynomial:
    """Integrate an operator density over the box.

    Only the zero-wavevector component survives: the k-grid makes exp(ikz)
    average to zero exactly.
    """
    return (l_box / sqrt(2 * pi)) * f.component(0)
