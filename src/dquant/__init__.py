"""Displacement-field quantization toolkit for nonlinear dielectrics.

Implements both ways of writing the electromagnetic energy of a lossless
nonlinear medium: the displacement-field series (the one consistent with
Maxwell's equations at the operator level) and the electric-field series
(which is not, once the medium is nonlinear), plus the machinery to prove
it: exact bosonic operator algebra, discrete mode bases, Faraday/Ampere
residual checks, and Fock-space dynamics for the squeezing and
frequency-conversion observables where the two routes disagree.

The public names load lazily: ``import dquant`` imports no submodule, and
the first access to a name imports the one submodule that defines it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "boson_algebra": ("BosonicPolynomial", "degree"),
    "dynamics": ("EvolutionConfig", "FockSpace", "compare_schemes", "evolve"),
    "hamiltonian": ("ComparisonReport", "prefactor_ratio", "pure_order_modeset",
                    "scheme_resonant_coefficients"),
    "maxwell": ("FaradayReport", "verify_routes"),
    "modes": ("ModeSet", "make_uniform_medium_modes"),
    "susceptibility": ("MediumSpec", "energy_density", "invert_series"),
    "units": ("UnitSystem", "natural_units", "si_units"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
