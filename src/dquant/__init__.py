"""Displacement-field quantization toolkit for nonlinear dielectrics.

Implements both ways of writing the electromagnetic energy of a lossless
nonlinear medium: the displacement-field series (the one consistent with
Maxwell's equations at the operator level) and the electric-field series
(which is not, once the medium is nonlinear), plus the machinery to prove
it: exact bosonic operator algebra, discrete mode bases, Faraday/Ampere
residual checks, and Fock-space dynamics for the squeezing and
frequency-conversion observables where the two routes disagree.
"""

__version__ = "0.1.0"

from .boson_algebra import (
    BosonicPolynomial,
    FockSpace,
    commutator,
    degree,
    heisenberg_derivative,
    normal_order,
    to_matrix,
)
from .dynamics import ComparisonReport, EvolutionConfig, compare_schemes, evolve
from .hamiltonian import (
    HamiltonianSpec,
    InteractionParams,
    ModeTriple,
    build_interaction,
    build_linear,
    build_nonlinear_D,
    build_nonlinear_E_wrong,
    prefactor_ratio,
    quadratic_E_correction,
)
from .maxwell import (FaradayReport, degree_contradiction_report, verify_ampere,
                      verify_faraday, verify_scheme)
from .modes import ModeProfile, ModeSet, make_uniform_medium_modes, solve_slab_modes
from .susceptibility import (
    MediumSpec,
    SusceptibilityTensor,
    energy_prefactors,
    invert_series,
)
from .units import UnitSystem, natural_units, si_units

__all__ = [
    "BosonicPolynomial",
    "ComparisonReport",
    "EvolutionConfig",
    "FaradayReport",
    "FockSpace",
    "HamiltonianSpec",
    "InteractionParams",
    "MediumSpec",
    "ModeProfile",
    "ModeSet",
    "ModeTriple",
    "SusceptibilityTensor",
    "UnitSystem",
    "build_interaction",
    "build_linear",
    "build_nonlinear_D",
    "build_nonlinear_E_wrong",
    "commutator",
    "compare_schemes",
    "degree",
    "degree_contradiction_report",
    "energy_prefactors",
    "evolve",
    "heisenberg_derivative",
    "invert_series",
    "make_uniform_medium_modes",
    "natural_units",
    "normal_order",
    "prefactor_ratio",
    "quadratic_E_correction",
    "si_units",
    "solve_slab_modes",
    "to_matrix",
    "verify_ampere",
    "verify_faraday",
    "verify_scheme",
    "__version__",
]
