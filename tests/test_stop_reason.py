"""Why each run stopped: trace.stop_reason over run (one stage and the
multiscale plan) and run_gd, and the eadmm stage plan against its budget."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_net
from priorsolve.admm import (
    AdmmConfig,
    MultiscaleSchedule,
    NonFiniteError,
    SplitProblem,
    initial_state,
    run,
)
from priorsolve.config import load_problem, parse_config, solver_configs
from priorsolve.gd import GdConfig, run_gd
from priorsolve.losses import QuadraticDenoise
from priorsolve.prox import Regularizer

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class OverflowingLoss(QuadraticDenoise):
    """Denoising loss whose value overflows from evaluation number after + 1
    on; value_and_grad goes through value, so every solver sees it."""

    def __init__(self, target, after):
        super().__init__(target)
        self.after = after
        self.calls = 0

    def value(self, w):
        self.calls += 1
        return np.inf if self.calls > self.after else super().value(w)


def planted_target(seed, noise):
    gen = random_net(seed)
    rng = np.random.default_rng(seed)
    target = gen.forward(rng.uniform(-1.0, 1.0, 2)) + noise * rng.standard_normal(8)
    return gen, target


def split_problem(loss, gen):
    return SplitProblem(loss=loss, gen=gen, reg_w=Regularizer.zero(),
                        reg_z=Regularizer.zero())


def assert_reason_fits_records(trace, tol, budget):
    """"tol" only once the last stop metric reached tol; "budget" only after
    the whole budget ran with no metric reaching it."""
    metrics = trace.column("stop_metric")
    if trace.stop_reason == "tol":
        assert metrics[-1] <= tol and len(trace) <= budget
        assert all(m > tol for m in metrics[:-1])
    else:
        assert trace.stop_reason == "budget"
        assert len(trace) == budget
        assert all(m > tol for m in metrics)


seeds = st.integers(0, 2**32 - 1)
tolerances = st.sampled_from((1e-30, 1e-8, 1e-5, 1e-3, 1e-1))
schedules = st.builds(MultiscaleSchedule, st.integers(1, 3), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(seed=seeds, noise=st.floats(0.0, 0.3), tol=tolerances,
       schedule=st.none() | schedules, w_step=st.sampled_from(("linearized", "exact")),
       max_iters=st.integers(0, 40), rho=st.floats(0.1, 2.0),
       alpha=st.floats(0.05, 0.5), beta=st.floats(0.05, 0.5),
       sigma0=st.floats(0.01, 1.0))
def test_run_says_why_it_stopped(seed, noise, tol, schedule, w_step, max_iters,
                                 rho, alpha, beta, sigma0):
    # a schedule sets the budget itself and ignores max_iters
    gen, target = planted_target(seed, noise)
    problem = split_problem(QuadraticDenoise(target), gen)
    cfg = AdmmConfig(
        rho=rho, alpha=alpha, beta=beta, sigma0=sigma0, tau_c=tol,
        max_iters=max_iters, w_step="exact" if schedule else w_step,
        multiscale=schedule,
    )
    _, trace = run(problem, cfg, initial_state(problem, cfg, np.zeros(2)))
    budget = max_iters if schedule is None else schedule.total_iters()
    assert_reason_fits_records(trace, tol, budget)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, noise=st.floats(0.0, 0.3), tol=tolerances,
       max_iters=st.integers(0, 40), step=st.floats(0.05, 1.0))
def test_run_gd_says_why_it_stopped(seed, noise, tol, max_iters, step):
    gen, target = planted_target(seed, noise)
    cfg = GdConfig(step=step, max_iters=max_iters, grad_tol=tol)
    _, trace = run_gd(QuadraticDenoise(target), gen, cfg, np.zeros(2))
    assert_reason_fits_records(trace, tol, max_iters)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, after=st.integers(0, 12),
       solver=st.sampled_from(("admm", "exact", "eadmm", "gd")))
def test_a_diverging_run_leaves_nonfinite_on_its_partial_trace(seed, after, solver):
    # every solver evaluates the loss value once per iteration, so iteration
    # after + 1 is the first non-finite one, inside every budget below
    gen, target = planted_target(seed, 0.1)
    loss = OverflowingLoss(target, after)
    with pytest.raises(NonFiniteError) as info:
        if solver == "gd":
            run_gd(loss, gen, GdConfig(step=0.2, max_iters=40, grad_tol=1e-30),
                   np.zeros(2))
        else:
            problem = split_problem(loss, gen)
            cfg = AdmmConfig(
                rho=0.5, alpha=0.3, beta=0.2, sigma0=0.3, tau_c=1e-30, max_iters=40,
                w_step="linearized" if solver == "admm" else "exact",
                multiscale=MultiscaleSchedule(3, 5) if solver == "eadmm" else None,
            )
            run(problem, cfg, initial_state(problem, cfg, np.zeros(2)))
    err = info.value
    assert err.iteration == after + 1
    assert err.trace.stop_reason == "nonfinite"
    assert err.trace.column("t") == list(range(1, after + 1))


@pytest.fixture(scope="module")
def reference_compare():
    """(settings, generator, instance) of configs/reference.ini
    with noise, so no iterate reaches an exact fixed point."""
    run_settings = parse_config(CONFIGS / "reference.ini", command="compare")
    run_settings = dataclasses.replace(run_settings, noise_level=0.1, tau_c=1e-300)
    gen, inst = load_problem(run_settings)
    return run_settings, gen, inst


@settings(max_examples=25, deadline=None)
@given(stages=st.integers(1, 4), stage_iters=st.integers(1, 6))
def test_eadmm_budget_is_what_its_stages_run(reference_compare, stages, stage_iters):
    run_settings, gen, inst = reference_compare
    run_settings = dataclasses.replace(run_settings, stages=stages, stage_iters=stage_iters)
    cfg = solver_configs(run_settings, gen, inst, ("eadmm",))["eadmm"]
    _, trace = run(inst.problem, cfg, initial_state(inst.problem, cfg, np.zeros(2)))
    assert trace.stop_reason == "budget"
    assert len(trace) == cfg.max_iters
    assert [s.index for s in trace.stages] == list(range(1, stages + 1))
    spans = [(s.first_t, s.last_t) for s in trace.stages]
    assert spans[0][0] == 1 and spans[-1][1] == cfg.max_iters
    assert all(nxt[0] == prev[1] + 1 for prev, nxt in zip(spans, spans[1:]))
    assert [last - first + 1 for first, last in spans] == [
        stage_iters * 2**k for k in range(1, stages + 1)
    ]
