"""The public API: each exported name is listed once, in the __all__ of the
module that defines it, and the package re-exports those lists."""

import importlib
import inspect

import pytest

import priorsolve

EXPORTS = [
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
    "__version__",
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
]

MODULES = ("admm", "cli", "config", "gd", "generator", "harness", "losses", "prox",
           "trace")


def test_package_exports_the_pinned_names_once():
    assert sorted(priorsolve.__all__) == EXPORTS
    assert len(set(priorsolve.__all__)) == len(priorsolve.__all__)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from priorsolve import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == EXPORTS


@pytest.mark.parametrize("name", MODULES)
def test_module_all_lists_only_names_the_module_defines(name):
    module = importlib.import_module(f"priorsolve.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for export in module.__all__:
        obj = getattr(module, export)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, export
