"""Canonical systems: forward/inverse spectral problems, the wave
transform, Szego and A2 weight functionals, and triangular factorization
of truncated Wiener-Hopf matrices.

Submodules are imported lazily so that lightweight entry points (the
command line front end in particular) can answer a malformed input
before numpy comes in.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "DomainError": ".errors",
    "ValidationError": ".errors",
    "UnsupportedFeatureError": ".errors",
    "SpectralPositivityError": ".errors",
    "ConvergenceError": ".errors",
    # grid / Hamiltonian data model
    "J": ".hamiltonian",
    "Grid": ".hamiltonian",
    "Hamiltonian": ".hamiltonian",
    "random_unimodular": ".hamiltonian",
    "read_hamiltonian": ".hamiltonian",
    "write_hamiltonian": ".hamiltonian",
    # canonical system solver
    "TransferMatrix": ".solver",
    "transfer_matrix": ".solver",
    "j_energy_residual": ".solver",
    # Weyl theory and boundary values
    "weyl_sweep": ".weyl",
    "weyl_function": ".weyl",
    "boundary_values": ".weyl",
    "spectral_density": ".weyl",
    "szego_K": ".weyl",
    # spectral measures / weights
    "SpectralMeasure": ".measures",
    "constant_weight": ".measures",
    "step_weight": ".measures",
    "cosine_bump_weight": ".measures",
    "sinc_bump_weight": ".measures",
    "sampled_weight": ".measures",
    "WEIGHT_FAMILIES": ".measures",
    "read_weight": ".measures",
    "write_weight": ".measures",
    "truncate_weight": ".measures",
    # inverse spectral problem
    "InversionReport": ".inverse",
    "inverse_spectral": ".inverse",
    # half-line functions, L1+L2, A2
    "HalfLineFunction": ".halfline",
    "norm_L1": ".halfline",
    "norm_L2": ".halfline",
    "norm_L1_plus_L2": ".halfline",
    "decompose_L1_L2": ".halfline",
    "a2_classical": ".halfline",
    "a2_ell1": ".halfline",
    "a2_ell1_terms": ".halfline",
    "log_derivative": ".halfline",
    "lemma2_harness": ".halfline",
    "HarnessReport": ".halfline",
    "read_halfline": ".halfline",
    "write_halfline": ".halfline",
    # waves and the transform
    "krein_wave": ".transform",
    "wave_amplitudes": ".transform",
    "reproducing_kernel": ".transform",
    "f_mu_apply": ".transform",
    "isometry_residual": ".transform",
    # factorization
    "DiscreteWienerHopf": ".factorize",
    "build_toeplitz": ".factorize",
    "cholesky_oracle": ".factorize",
    "chain_preservation_check": ".factorize",
    "FactorReport": ".factorize",
    "factor_via_transform": ".factorize",
    "read_matrix": ".factorize",
    "write_matrix": ".factorize",
    # acceptance suite
    "run_acceptance": ".acceptance",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        modname = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(modname, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
