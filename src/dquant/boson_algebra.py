"""Exact multi-mode bosonic operator polynomials.

A polynomial is stored as a map from normally-ordered monomials to complex
coefficients. A monomial is a sorted tuple of ``(mode, cre, ann)`` triples,
one per participating mode; the empty tuple is the identity. A polynomial
is added to another, scaled by a number or conjugated, never multiplied by
another: the package needs no operator product. The powers of a linear
field come from Wick's theorem (:func:`~dquant.fields.linear_field_powers`),
and the commutators of a linear field with a Hamiltonian from its formal
derivatives (:func:`~dquant.maxwell.verify_routes`), so every polynomial
handed out by the algebra is already in canonical form. Coefficients are
complex doubles; terms below ``PRUNE_TOL`` are dropped to keep term counts
bounded.
"""

from __future__ import annotations

from math import sqrt
from numbers import Number
from typing import Iterable, Mapping

#: absolute coefficient threshold below which a term is discarded
PRUNE_TOL = 1e-15

Monomial = tuple  # tuple[(mode, cre, ann), ...] sorted by mode


class NotHermitianError(ValueError):
    """Raised when a Hamiltonian fails its Hermiticity precondition."""


def _merge_mode(entries: Iterable[tuple[int, int, int]]) -> Monomial:
    return tuple((m, c, a) for m, c, a in entries if c or a)


class BosonicPolynomial:
    """Normally-ordered polynomial in multi-mode ladder operators."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, complex] | None = None):
        self.terms: dict[Monomial, complex] = {}
        if terms:
            for key, coef in terms.items():
                coef = complex(coef)
                if abs(coef) > PRUNE_TOL:
                    self.terms[key] = coef

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "BosonicPolynomial":
        return cls()

    @classmethod
    def identity(cls, coeff: complex) -> "BosonicPolynomial":
        return cls({(): complex(coeff)})

    @classmethod
    def monomial(cls, powers: Mapping[int, tuple[int, int]], coeff: complex = 1.0):
        key = _merge_mode((m, c, a) for m, (c, a) in sorted(powers.items()))
        return cls({key: complex(coeff)})

    # -- algebra ------------------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        acc = dict(self.terms)
        for key, coef in other.terms.items():
            acc[key] = acc.get(key, 0.0) + coef
        return BosonicPolynomial(acc)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self + (-1.0) * _as_poly(other)

    def __rsub__(self, other):
        return _as_poly(other) + (-1.0) * self

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, scalar):
        if not isinstance(scalar, Number):
            return NotImplemented  # no product of two polynomials: a TypeError
        return BosonicPolynomial({k: scalar * v for k, v in self.terms.items()})

    __rmul__ = __mul__

    def dagger(self) -> "BosonicPolynomial":
        """Hermitian conjugate; stays normally ordered term by term."""
        return BosonicPolynomial(
            {tuple((m, a, c) for m, c, a in key): v.conjugate() for key, v in self.terms.items()}
        )

    # -- queries ------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, powers: Mapping[int, tuple[int, int]]) -> complex:
        key = _merge_mode((m, c, a) for m, (c, a) in sorted(powers.items()))
        return self.terms.get(key, 0.0 + 0.0j)

    def modes(self) -> set[int]:
        return {m for key in self.terms for m, _, _ in key}

    def norm(self) -> float:
        """L2 norm of the coefficient vector."""
        return sqrt(sum(abs(v) ** 2 for v in self.terms.values()))

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self.terms.values()), default=0.0)

    def isclose(self, other, tol: float = 1e-12) -> bool:
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys)

    def is_hermitian(self) -> bool:
        return self.isclose(self.dagger())

    def __repr__(self):
        n = len(self.terms)
        return f"BosonicPolynomial({n} term{'s' if n != 1 else ''}, degree {degree(self)})"

    def dump(self) -> str:
        """Deterministic text form, one line per term, for golden comparisons."""
        if not self.terms:
            return "0"
        lines = []
        for key in sorted(self.terms, key=_sort_key):
            coef = self.terms[key]
            ops = " ".join(
                " ".join(filter(None, [f"ad({m})^{c}" if c else "", f"a({m})^{a}" if a else ""]))
                for m, c, a in key
            )
            body = f"({coef.real:+.12e}{coef.imag:+.12e}j)"
            lines.append(body if not ops else f"{body} * {ops}")
        return "\n".join(lines)


def _sort_key(key: Monomial):
    return (sum(c + a for _, c, a in key), key)


def _as_poly(x) -> BosonicPolynomial:
    if isinstance(x, BosonicPolynomial):
        return x
    if isinstance(x, Number):
        return BosonicPolynomial.identity(x)
    raise TypeError(f"cannot interpret {x!r} as a bosonic polynomial")


def creation(mode: int) -> BosonicPolynomial:
    return BosonicPolynomial.monomial({mode: (1, 0)})


def annihilation(mode: int) -> BosonicPolynomial:
    return BosonicPolynomial.monomial({mode: (0, 1)})


def number(mode: int) -> BosonicPolynomial:
    return BosonicPolynomial.monomial({mode: (1, 1)})


def degree(p: BosonicPolynomial) -> int:
    """Max total operator power; -1 for the zero polynomial."""
    if not p.terms:
        return -1
    return max(sum(c + a for _, c, a in key) for key in p.terms)
