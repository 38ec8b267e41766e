"""Approximation of occupation time integrals from discretely observed diffusions.

The package simulates continuous Ito semimartingales on a refined time grid,
evaluates Riemann / trapezoidal / Brownian-bridge quadrature estimators of
``int_0^t f(X_r) dr`` from the coarse observations, and provides the Monte
Carlo studies (convergence rates, limit distributions, efficiency, frequency
domain diagnostics) used to validate them.
"""

from .errors import (
    CapabilityError,
    ConfigError,
    OccutimeError,
    SimulationError,
)
from .grids import TimeGrid, build_grid
from .processes import (
    BrownianMotion,
    DeterministicGaussian,
    FixedStart,
    PathBundle,
    StochVol,
    UniformShift,
    simulate_grids,
    simulate_paths,
)
from .functions import (
    TestFunction,
    complex_exponential,
    constant,
    gaussian_bump,
    hat,
    identity,
    indicator,
    lacunary,
    parse_function,
    power_singularity,
    quadratic,
    tensor_product,
)
from .seminorms import (
    SeminormResult,
    fourier_lebesgue_seminorm,
    sobolev_seminorm,
)
from .estimators import (
    bridge_conditional_estimate,
    reference_value,
    riemann_estimate,
    trapezoid_estimate,
)
from . import fourier
from .experiments import (
    StudyConfig,
    StudyReport,
    clt_check,
    diagnostics_study,
    efficiency_study,
    rate_study,
)

__version__ = "0.1.0"

__all__ = [
    "BrownianMotion",
    "CapabilityError",
    "ConfigError",
    "DeterministicGaussian",
    "FixedStart",
    "OccutimeError",
    "PathBundle",
    "SeminormResult",
    "SimulationError",
    "StochVol",
    "StudyConfig",
    "StudyReport",
    "TestFunction",
    "TimeGrid",
    "UniformShift",
    "bridge_conditional_estimate",
    "build_grid",
    "clt_check",
    "complex_exponential",
    "constant",
    "diagnostics_study",
    "efficiency_study",
    "fourier",
    "fourier_lebesgue_seminorm",
    "gaussian_bump",
    "hat",
    "identity",
    "indicator",
    "lacunary",
    "parse_function",
    "power_singularity",
    "quadratic",
    "rate_study",
    "reference_value",
    "riemann_estimate",
    "simulate_grids",
    "simulate_paths",
    "sobolev_seminorm",
    "tensor_product",
    "trapezoid_estimate",
]
