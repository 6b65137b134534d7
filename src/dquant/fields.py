"""Operator-valued field expansions on the discrete wavevector grid.

A :class:`FieldOperator` maps integer grid indices m (wavevector k = w*m)
to operator coefficients with respect to the continuum-normalized plane
waves phi_k(z) = (2*pi)**-0.5 * exp(i k z). In that basis

* the expansion coefficient of mode (J, m) is sqrt(hbar*omega/2) * sqrt(w)
  times the amplitude of its flat profile
  (:func:`~dquant.modes.field_coefficients`),
* a pointwise product of fields convolves coefficients with one extra
  factor (2*pi)**-0.5 per multiplication,
* integrating a density over the box keeps its zero-frequency component
  alone, times (2*pi)**-0.5 * l_box: exp(ikz) averages to zero exactly on
  the k-grid (:mod:`dquant.maxwell` builds its Hamiltonians so).

No two fields are multiplied: a mode set's fields are linear, so
:func:`linear_field_powers` builds their powers by Wick's theorem.

A field is a frozen record: sums, scalar multiples and restrictions return
new fields, and the leakage a restriction records travels with the field it
returns.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, groupby
from math import factorial, pi, prod, sqrt
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
        if abs(self.w - other.w) > 1e-12 * max(self.w, other.w):
            raise ValueError("field operators live on different wavevector grids")
        acc = dict(self.components)
        for m, poly in other.components.items():
            acc[m] = acc[m] + poly if m in acc else poly
        return FieldOperator(_prune(acc), self.w)

    def __mul__(self, scalar) -> "FieldOperator":
        if not isinstance(scalar, Number):
            return NotImplemented  # no product of two fields: a TypeError
        return FieldOperator({m: scalar * p for m, p in self.components.items()}, self.w)

    __rmul__ = __mul__

    def restrict(self, retained: set[int]) -> "FieldOperator":
        """Drop out-of-basis components, recording their norms as leakage."""
        kept, leaked = {}, dict(self.leakage)
        for m, poly in self.components.items():
            if m in retained:
                kept[m] = poly
            else:
                leaked[m] = leaked.get(m, 0.0) + poly.norm()
        return FieldOperator(kept, self.w, leakage=leaked)


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
    return FieldOperator(d_comp, w), FieldOperator(b_comp, w)


def linear_field_powers(f: FieldOperator, top: int) -> tuple[list, list]:
    """``([f, .., f^top], [f^2, .., f^(top+1) at k = 0])`` of a linear field, by Wick's theorem.

    Each ladder operator of f sits at one wavevector, a_l at +m and a_l^dag
    at -m, as :func:`expand_fields` places them, so the contraction of
    f(z) f(z) is the one constant c = sum_l c(a_l) c(a_l^dag) / (2 pi), and

        f^p = sum_j p! / (2^j j! (p - 2j)!) c^j :f^(p - 2j):,

    with :f^0: the constant field sqrt(2 pi) at k = 0. The normally ordered
    power :f^q: sums the multisets mu of f's ladder operators, each
    enumerated once: q! / prod(mu!) times the product of their coefficients
    times (2 pi)^-((q - 1) / 2), at the sum of their wavevectors (at k = 0
    alone for q = top + 1). Raises ``ValueError`` for a field with a term
    that is not one ladder operator.
    """
    ops = [(m, key, c) for m, poly in f.components.items() for key, c in poly.terms.items()]
    if any(len(key) != 1 or key[0][1] + key[0][2] != 1 for _, key, _ in ops):
        raise ValueError("Wick's theorem needs a field linear in ladder operators")
    lowering = {key[0][0]: c for _, key, c in ops if key[0][2]}  # mode label -> c(a_l)
    contraction = sum(lowering.get(key[0][0], 0.0) * c
                      for _, key, c in ops if key[0][1]) / (2 * pi)
    normal = [FieldOperator({0: BosonicPolynomial.identity(sqrt(2 * pi))}, f.w)]
    for q in range(1, top + 2):
        scale = (2 * pi) ** (-(q - 1) / 2)
        components: dict[int, dict] = {}
        for combo in combinations_with_replacement(ops, q):
            k = sum(m for m, _, _ in combo)
            if q > top and k:
                continue
            counts: dict[int, tuple] = {}  # mode label -> (cre, ann) powers of the multiset
            for _, ((label, cre, ann),), _ in combo:
                c0, a0 = counts.get(label, (0, 0))
                counts[label] = (c0 + cre, a0 + ann)
            key = tuple((label, c, a) for label, (c, a) in sorted(counts.items()))
            weight = factorial(q) // prod(factorial(len(list(run))) for _, run in groupby(combo))
            components.setdefault(k, {})[key] = weight * prod(c for _, _, c in combo) * scale
        normal.append(FieldOperator({k: BosonicPolynomial(t) for k, t in components.items()}, f.w))
    powers = [sum(((factorial(p) // (2**j * factorial(j) * factorial(p - 2 * j)) * contraction**j)
                   * normal[p - 2 * j] for j in range(1, p // 2 + 1)), normal[p])
              for p in range(1, top + 2)]
    return powers[:top], [power.component(0) for power in powers[1:]]

