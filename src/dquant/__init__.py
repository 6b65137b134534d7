"""Displacement-field quantization toolkit for nonlinear dielectrics.

Implements both ways of writing the electromagnetic energy of a lossless
nonlinear medium: the displacement-field series (the one consistent with
Maxwell's equations at the operator level) and the electric-field series
(which is not, once the medium is nonlinear), plus the machinery to prove
it: exact bosonic operator algebra, discrete mode bases, Faraday/Ampere
residual checks, and Fock-space dynamics for the squeezing and
frequency-conversion observables where the two routes disagree.

Each name is imported from the submodule that defines it, e.g.
``from dquant.hamiltonian import compare_coefficients``: ``import dquant``
imports no submodule.
"""

__version__ = "0.1.0"
