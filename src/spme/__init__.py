"""Spectral Galerkin simulation and verification for a generalized
stochastic porous medium equation on the unit interval."""

from .basis import OperatorSpec
from .bounds import (
    BoundParams,
    RateFit,
    comparison_ode_solve,
    contraction_bound,
    exponential_bound,
    fit_exp_rate,
    fit_power_law,
    moment_decay_bound,
)
from .model import (
    AssumptionConstants,
    AssumptionError,
    Nonlinearity,
    certify_constants,
    estimate_eta_sigma,
    gate_hypotheses,
    growth_constant,
    phi_constants,
)
from .noise import NoiseSpec, NoiseStream, trace
from .solver import (
    SimConfig,
    TrajectoryRecord,
    coupled_simulate,
    drift,
    simulate,
    step,
)

__all__ = [
    "OperatorSpec",
    "BoundParams",
    "RateFit",
    "comparison_ode_solve",
    "contraction_bound",
    "exponential_bound",
    "fit_exp_rate",
    "fit_power_law",
    "moment_decay_bound",
    "AssumptionConstants",
    "AssumptionError",
    "Nonlinearity",
    "certify_constants",
    "estimate_eta_sigma",
    "gate_hypotheses",
    "growth_constant",
    "phi_constants",
    "NoiseSpec",
    "NoiseStream",
    "trace",
    "SimConfig",
    "TrajectoryRecord",
    "coupled_simulate",
    "drift",
    "simulate",
    "step",
]

__version__ = "0.1.0"
