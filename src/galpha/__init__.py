"""k-stage generalized-alpha time integration for M u' + K u = F.

The family trades k implicit solves per step for order 3k/2 (even k) or
3k/2 + 1/2 (odd k) while staying A-stable, with per-stage high-frequency
dissipation controls rho in [0, 1]. Alongside the integrator the package
carries the spectral toolkit used to verify those claims: amplification
matrices, dissipation sweeps, stability maps, and characteristic-polynomial
order checks.
"""

from .cayley import (
    BELL_CLOSED_FORMS,
    CharPolyCoeffs,
    OrderConditionReport,
    PowerSums,
    SlopeFit,
    bell_complete,
    charpoly_coeffs,
    fit_slope,
    power_sums,
    recurrence_residual,
    verify_order_conditions,
)
from .exceptions import ConfigurationError, GalphaError, LinearSolveError, PoleError
from .integrator import StateVector, StepWorkspace, init_state, integrate, step
from .params import (
    MethodParams,
    RhoSpectrum,
    StabilityReport,
    params_from_rho,
    validate_stability,
)
from .problems import (
    ManufacturedCase,
    SemiDiscreteSystem,
    SymmetricBanded,
    heat_fem_1d,
    l2_error,
    manufactured_heat,
    scalar_mode,
)
from .spectral import (
    AmplificationMatrix,
    StabilityMap,
    SweepResult,
    amplification_matrix,
    asymptotic_eigenvalues,
    block_eigenvalues,
    spectral_radius,
    stability_region,
    sweep_spectral_radius,
)

__version__ = "0.1.0"

__all__ = [
    "AmplificationMatrix",
    "CharPolyCoeffs",
    "ConfigurationError",
    "GalphaError",
    "LinearSolveError",
    "ManufacturedCase",
    "MethodParams",
    "OrderConditionReport",
    "PoleError",
    "PowerSums",
    "RhoSpectrum",
    "SemiDiscreteSystem",
    "SlopeFit",
    "StabilityMap",
    "StabilityReport",
    "StateVector",
    "StepWorkspace",
    "SweepResult",
    "SymmetricBanded",
    "BELL_CLOSED_FORMS",
    "amplification_matrix",
    "asymptotic_eigenvalues",
    "bell_complete",
    "block_eigenvalues",
    "charpoly_coeffs",
    "fit_slope",
    "heat_fem_1d",
    "init_state",
    "integrate",
    "l2_error",
    "manufactured_heat",
    "params_from_rho",
    "power_sums",
    "recurrence_residual",
    "scalar_mode",
    "spectral_radius",
    "stability_region",
    "step",
    "sweep_spectral_radius",
    "validate_stability",
    "verify_order_conditions",
    "__version__",
]
