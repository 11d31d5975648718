"""Inverse problems with a feedforward generative prior.

Solvers for  min_{w,z} L(w) + R(w) + H(z)  subject to  w = G(z),
where L is a smooth data-fit term, R and H are proximable penalties, and G
is a feedforward generator network.  Provides a linearized ADMM solver with
a diminishing dual step schedule, an exact-minimization multi-scale
variant, a latent-space gradient descent baseline, sampled geometry
diagnostics for G, and an experiment harness with a command line front end.
"""

__version__ = "0.1.0"

from .admm import (
    AdmmConfig,
    AdmmState,
    MultiscaleSchedule,
    NonFiniteError,
    SplitProblem,
    UnsupportedLossError,
    admm_step,
    aug_lagrangian,
    grad_w_lagrangian,
    grad_z_lagrangian,
    initial_state,
    run,
    suggest_step_sizes,
)
from .config import ConfigError, RunSettings, load_problem, parse_config
from .gd import (
    GdConfig,
    gd_admm_discrepancy,
    gd_admm_step_gap,
    grad_h,
    run_gd,
    tune_gd_step,
)
from .generator import (
    Activation,
    FeedforwardGenerator,
    GeometryEstimate,
    Layer,
    estimate_geometry,
    load_generator,
    save_generator,
)
from .harness import (
    DegenerateTrace,
    PlantedInstance,
    RateFit,
    best_lagrangian,
    build_instance,
    fit_rate,
    plateau_vs_rho,
)
from .losses import LeastSquares, QuadraticDenoise, ScaledQuadratic
from .prox import Regularizer
from .trace import (
    RunTrace,
    StageInfo,
    TraceRecord,
    read_trace_csv,
    write_summary_csv,
    write_trace_csv,
)

__all__ = [
    "Activation",
    "AdmmConfig",
    "AdmmState",
    "ConfigError",
    "DegenerateTrace",
    "FeedforwardGenerator",
    "GdConfig",
    "GeometryEstimate",
    "Layer",
    "LeastSquares",
    "MultiscaleSchedule",
    "NonFiniteError",
    "PlantedInstance",
    "QuadraticDenoise",
    "RateFit",
    "Regularizer",
    "RunSettings",
    "RunTrace",
    "ScaledQuadratic",
    "SplitProblem",
    "StageInfo",
    "TraceRecord",
    "UnsupportedLossError",
    "admm_step",
    "aug_lagrangian",
    "best_lagrangian",
    "build_instance",
    "estimate_geometry",
    "fit_rate",
    "gd_admm_discrepancy",
    "gd_admm_step_gap",
    "grad_h",
    "grad_w_lagrangian",
    "grad_z_lagrangian",
    "initial_state",
    "load_generator",
    "load_problem",
    "parse_config",
    "plateau_vs_rho",
    "read_trace_csv",
    "run",
    "run_gd",
    "save_generator",
    "suggest_step_sizes",
    "tune_gd_step",
    "write_summary_csv",
    "write_trace_csv",
    "__version__",
]
