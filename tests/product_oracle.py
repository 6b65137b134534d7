"""The general operator product: an oracle for the Wick builder of field powers.

``dquant`` multiplies a polynomial or a field only by a scalar: the powers
of its linear fields come from Wick's theorem
(:func:`dquant.fields.linear_field_powers`), and the commutators of verify
from formal derivatives (:func:`dquant.maxwell._derivative_table`), with no
product of two operators. The tests check those paths and the Fock
matrices against the product built here by brute force:

- ``reorder_product``: every normally ordered monomial of k1 * k2 with its
  weight, from the per-mode identity

      a^p (a†)^q = sum_k k! C(p,k) C(q,k) (a†)^(q-k) a^(p-k);

- ``multiply``: p * q, every contraction of every pair of monomials built;
- ``commutator``: p * q - q * p, for left sides of any degree;
- ``field_product`` and ``field_power``: the pointwise product of fields,
  each pair of components multiplied and scaled by (2*pi)**-0.5;
- ``box_integral``: the integral of a field over the box, its k = 0
  component times l_box (2*pi)**-0.5, the quantity verify's route
  Hamiltonians are built as.
"""

from itertools import product
from math import comb, factorial, pi, sqrt

from dquant.boson_algebra import BosonicPolynomial
from dquant.fields import FieldOperator


def reorder_product(k1, k2):
    """All normally ordered monomials of k1 * k2 with their integer weights."""
    d1 = {m: (c, a) for m, c, a in k1}
    d2 = {m: (c, a) for m, c, a in k2}
    options = []
    for m in sorted(set(d1) | set(d2)):
        c1, a1 = d1.get(m, (0, 0))
        c2, a2 = d2.get(m, (0, 0))
        options.append([((m, c1 + c2 - k, a1 + a2 - k), factorial(k) * comb(a1, k) * comb(c2, k))
                        for k in range(min(a1, c2) + 1)])
    for combo in product(*options):
        key = tuple(entry for entry, _ in combo if entry[1] or entry[2])
        weight = 1
        for _, w in combo:
            weight *= w
        yield key, weight


def multiply(p, q):
    """p * q in normal order."""
    acc = {}
    for k1, c1 in p.terms.items():
        for k2, c2 in q.terms.items():
            base = c1 * c2
            for key, weight in reorder_product(k1, k2):
                acc[key] = acc.get(key, 0.0) + base * weight
    return BosonicPolynomial(acc)


def commutator(p, q):
    """[p, q] = p * q - q * p."""
    return multiply(p, q) - multiply(q, p)


def field_product(f, g):
    """The pointwise product of two fields on one wavevector grid."""
    acc = {}
    norm = 1.0 / sqrt(2 * pi)
    for m1, p1 in f.components.items():
        for m2, p2 in g.components.items():
            term = norm * multiply(p1, p2)
            m = m1 + m2
            acc[m] = acc[m] + term if m in acc else term
    return FieldOperator({m: p for m, p in acc.items() if not p.is_zero}, f.w)


def field_power(f, n):
    """f * f * ... * f, n factors multiplied from the left."""
    power = f
    for _ in range(n - 1):
        power = field_product(power, f)
    return power


def box_integral(f, l_box):
    """The integral of f over a box of length l_box: only k = 0 survives."""
    return (l_box / sqrt(2 * pi)) * f.component(0)
