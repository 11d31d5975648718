"""Tests for planted instances, rate fitting, and the penalty sweep."""

import math

import numpy as np
import pytest

from priorsolve.admm import AdmmConfig, NonFiniteError, run, initial_state
from priorsolve.generator import estimate_geometry
from priorsolve.harness import (
    DegenerateTrace,
    PlantedInstance,
    RateFit,
    best_lagrangian,
    build_instance,
    fit_rate,
    plateau_vs_rho,
)
from priorsolve.losses import LeastSquares, QuadraticDenoise, ScaledQuadratic
from priorsolve.trace import RunTrace, TraceRecord

from helpers import random_net


def synthetic_trace(deltas, reference=0.0):
    """Pack a sequence of objective offsets into a trace."""
    trace = RunTrace()
    for t, d in enumerate(deltas, start=1):
        trace.append(
            TraceRecord(
                t=t,
                objective=reference + d,
                lagrangian=reference + d,
                feas_gap=0.0,
                sigma=0.0,
                step_w=0.0,
                step_z=0.0,
                stop_metric=0.0,
            )
        )
    return trace


# ---------------------------------------------------------------------------
# build_instance


def test_planted_point_is_exact():
    gen = random_net(seed=5)
    inst = build_instance(gen, "denoise_l2", noise_level=0.0, seed=1)
    w_star, z_star = inst.w_star, inst.z_star
    assert np.array_equal(w_star, gen.forward(z_star))
    assert np.linalg.norm(z_star) <= gen.domain_radius
    # noiseless denoising: the planted point attains zero loss
    assert inst.problem.loss.value(w_star) == 0.0


def test_build_instance_deterministic():
    gen = random_net(seed=5)
    a = build_instance(gen, "denoise_l2", noise_level=0.3, seed=7)
    b = build_instance(gen, "denoise_l2", noise_level=0.3, seed=7)
    c = build_instance(gen, "denoise_l2", noise_level=0.3, seed=8)
    assert np.array_equal(a.z_star, b.z_star)
    assert np.array_equal(a.problem.loss.target, b.problem.loss.target)
    assert not np.array_equal(a.z_star, c.z_star)


def test_denoise_l2_shape():
    gen = random_net(seed=5)
    inst = build_instance(gen, "denoise_l2", noise_level=0.5, seed=1)
    assert isinstance(inst, PlantedInstance)
    assert isinstance(inst.problem.loss, QuadraticDenoise)
    assert inst.problem.reg_w.kind == "zero"
    assert inst.problem.reg_z.kind == "zero"
    # the observed point is the planted output plus noise of the stated size
    resid = inst.problem.loss.target - inst.w_star
    assert 0.0 < np.linalg.norm(resid) < 0.5 * 10 * np.sqrt(gen.output_dim)


def test_denoise_linf_shape():
    gen = random_net(seed=5)
    inst = build_instance(gen, "denoise_linf", noise_level=0.2, seed=3)
    loss = inst.problem.loss
    assert isinstance(loss, ScaledQuadratic)
    assert loss.gamma == 0.01
    assert inst.problem.reg_w.kind == "linf"
    assert inst.problem.reg_w.weight == 1.0
    # the sup-norm penalty is anchored at the observed point
    assert np.array_equal(inst.problem.reg_w.center, loss.target)


def test_instance_kinds_of_one_seed_share_their_draws():
    # the stream gives z* first, so every kind plants the same point, and
    # the two denoising kinds observe it through the same noise draw
    gen = random_net(seed=5)
    l2, linf, cs = (
        build_instance(gen, kind, noise_level=0.3, seed=4)
        for kind in ("denoise_l2", "denoise_linf", "compressive_sensing")
    )
    for inst in (linf, cs):
        assert np.array_equal(inst.z_star, l2.z_star)
        assert np.array_equal(inst.w_star, l2.w_star)
    target = l2.problem.loss.target
    assert not np.array_equal(target, l2.w_star)
    assert np.array_equal(linf.problem.loss.target, target)
    assert np.array_equal(linf.problem.reg_w.center, target)


def test_compressive_sensing_shape():
    gen = random_net(seed=5)
    d = gen.output_dim
    inst = build_instance(
        gen, "compressive_sensing", noise_level=0.0, seed=2, measurement_ratio=0.5
    )
    loss = inst.problem.loss
    assert isinstance(loss, LeastSquares)
    m = int(np.ceil(0.5 * d))
    assert loss.matrix.shape == (m, d)
    # entries are scaled to variance 1/m
    var = np.var(loss.matrix)
    assert 0.2 / m < var < 5.0 / m
    assert np.array_equal(loss.rhs, loss.matrix @ inst.w_star)


def test_build_instance_validation():
    gen = random_net(seed=5)
    with pytest.raises(ValueError):
        build_instance(gen, "sparse_coding", seed=0)
    with pytest.raises(ValueError):
        build_instance(gen, "denoise_l2", noise_level=-0.1, seed=0)
    with pytest.raises(ValueError):
        build_instance(gen, "compressive_sensing", seed=0, measurement_ratio=0.0)
    with pytest.raises(ValueError):
        build_instance(gen, "denoise_linf", seed=0, gamma=0.0)
    with pytest.raises(ValueError):
        build_instance(gen, "denoise_linf", seed=0, linf_weight=-1.0)


@pytest.mark.parametrize(
    "kind, kw",
    [
        ("denoise_l2", dict(noise_level=math.nan)),
        ("denoise_l2", dict(noise_level=math.inf)),
        ("compressive_sensing", dict(measurement_ratio=math.nan)),
        ("compressive_sensing", dict(measurement_ratio=math.inf)),
        ("denoise_linf", dict(gamma=math.nan)),
        ("denoise_linf", dict(gamma=math.inf)),
        ("denoise_linf", dict(linf_weight=math.nan)),
        ("denoise_linf", dict(linf_weight=math.inf)),
    ],
)
def test_build_instance_rejects_non_finite_arguments(kind, kw):
    with pytest.raises(ValueError, match=f"{next(iter(kw))} must be finite"):
        build_instance(random_net(seed=5), kind, seed=0, **kw)


# ---------------------------------------------------------------------------
# fit_rate


def test_fit_rate_pure_geometric():
    deltas = 0.5 ** np.arange(1, 101)
    fit = fit_rate(synthetic_trace(deltas), reference=0.0)
    assert isinstance(fit, RateFit)
    assert abs(fit.eta_hat - 0.5) < 1e-6
    assert fit.r_squared > 0.999
    assert 0.0 <= fit.plateau < 1e-18


def test_fit_rate_geometric_with_offset():
    deltas = 0.5 ** np.arange(1, 101) + 0.01
    fit = fit_rate(synthetic_trace(deltas), reference=0.0)
    assert abs(fit.eta_hat - 0.5) < 0.02
    assert abs(fit.plateau - 0.01) < 1e-3


def test_fit_rate_modulated_geometric():
    t = np.arange(1, 201)
    deltas = 0.8**t * (1.0 + 0.01 * np.sin(t))
    fit = fit_rate(synthetic_trace(deltas), reference=0.0)
    assert abs(fit.eta_hat - 0.8) < 0.01
    assert fit.r_squared > 0.99


def test_fit_rate_uses_offset_reference():
    deltas = 0.5 ** np.arange(1, 101)
    fit0 = fit_rate(synthetic_trace(deltas), reference=0.0)
    fit3 = fit_rate(synthetic_trace(deltas, reference=3.0), reference=3.0)
    assert abs(fit0.eta_hat - fit3.eta_hat) < 1e-9


def test_fit_rate_constant_trace_degenerate():
    with pytest.raises(DegenerateTrace):
        fit_rate(synthetic_trace(np.full(50, 0.25)), reference=0.25)


def test_fit_rate_below_floor_degenerate():
    with pytest.raises(DegenerateTrace):
        fit_rate(synthetic_trace(np.full(50, 1e-16)), reference=0.0)


def test_fit_rate_rejects_bad_reference():
    deltas = 0.5 ** np.arange(1, 51)
    with pytest.raises(ValueError):
        fit_rate(synthetic_trace(deltas), reference=1.0)


def test_fit_rate_short_trace_degenerate():
    with pytest.raises(DegenerateTrace):
        fit_rate(synthetic_trace([0.5]), reference=0.0)


def test_best_lagrangian():
    deltas = np.array([0.5, 0.3, 0.4, 0.1, 0.2])
    assert best_lagrangian(synthetic_trace(deltas, reference=1.0)) == 1.1


# ---------------------------------------------------------------------------
# plateau_vs_rho


def test_plateau_vs_rho_rows():
    gen = random_net(seed=11, sizes=(2, 6), kinds=("elu",), scale=0.8)
    rows = plateau_vs_rho(
        gen, rho_values=(1.0, 4.0), seeds=(0, 1), noise_level=0.1, iters=300
    )
    assert [r["rho"] for r in rows] == [1.0, 4.0]
    for row in rows:
        assert set(row) == {"rho", "gap_plateau", "err_plateau"}
        assert row["gap_plateau"] > 0.0
        assert row["err_plateau"] > 0.0
    # a stiffer penalty leaves a smaller feasibility residual
    assert rows[1]["gap_plateau"] < rows[0]["gap_plateau"]


def serial_tails(gen, rho, seed, noise_level, iters, sigma0, geometry_pairs=2000):
    """One (rho, seed) solve of the sweep through the single-instance path:
    initial_state + run with the exact w-step, beta from the geometry
    estimate, and no early stop.  Returns the tail means of feas_gap and
    dist_w over the last 20% of the rows (at least 10)."""
    inst = build_instance(gen, "denoise_l2", noise_level=noise_level, seed=seed)
    kappa = estimate_geometry(gen, geometry_pairs, seed=0).kappa_hat
    cfg = AdmmConfig(
        rho=rho, alpha=1.0, beta=1.0 / (rho * kappa**2), sigma0=sigma0,
        tau_c=1e-300, max_iters=iters, w_step="exact",
    )
    state = initial_state(inst.problem, cfg, np.zeros(gen.input_dim))
    _, trace = run(inst.problem, cfg, state, planted=inst.planted)
    tail = min(iters, max(10, math.ceil(0.2 * iters)))
    return tuple(
        float(np.mean(trace.column(name)[-tail:])) for name in ("feas_gap", "dist_w")
    )


def test_plateau_vs_rho_lockstep_matches_serial():
    gen = random_net(seed=11, sizes=(2, 6), kinds=("elu",), scale=0.8)
    rhos, seeds = (0.5, 1.0, 4.0), (0, 1, 2)
    kw = dict(noise_level=0.1, iters=150, sigma0=0.2)
    rows = plateau_vs_rho(gen, rho_values=rhos, seeds=seeds, **kw)
    for rho, row in zip(rhos, rows):
        tails = np.array([serial_tails(gen, rho, seed, **kw) for seed in seeds])
        assert row["rho"] == rho
        np.testing.assert_allclose(
            [row["gap_plateau"], row["err_plateau"]], tails.mean(axis=0), rtol=1e-12
        )


@pytest.mark.parametrize(
    "tiny_rho, sigma0, noise",
    [(1e-200, 0.2, 0.1), (1e-300, 1e10, 1e10)],
)
def test_plateau_vs_rho_diverging_row_fails_like_its_serial_run(
    tiny_rho, sigma0, noise
):
    """A tiny rho gives a huge z step; that row alone overflows, and the
    batch reports the quantity and iteration its serial run reports."""
    gen = random_net(seed=11, sizes=(2, 6), kinds=("elu",), scale=0.8)
    kw = dict(noise_level=noise, iters=30, sigma0=sigma0)
    with np.errstate(over="ignore", invalid="ignore"):
        for seed in (0, 1):
            assert all(map(math.isfinite, serial_tails(gen, 1.0, seed, **kw)))
        with pytest.raises(NonFiniteError) as serial:
            serial_tails(gen, tiny_rho, 0, **kw)
        with pytest.raises(NonFiniteError) as lockstep:
            plateau_vs_rho(gen, rho_values=(1.0, tiny_rho), seeds=(0, 1), **kw)
    assert serial.value.iteration > 1
    assert (lockstep.value.quantity, lockstep.value.iteration) == (
        serial.value.quantity,
        serial.value.iteration,
    )


def test_plateau_vs_rho_overflowing_target_fails_on_w_like_its_serial_run():
    """A finite noise level can still draw a target that overflows (seed 2
    here); the closed-form w step is then the first non-finite quantity,
    and the batch names it as the serial run does."""
    gen = random_net(seed=11, sizes=(2, 6), kinds=("elu",), scale=0.8)
    kw = dict(noise_level=1e308, iters=30, sigma0=0.2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as serial:
            serial_tails(gen, 1.0, 2, **kw)
        with pytest.raises(NonFiniteError) as lockstep:
            plateau_vs_rho(gen, rho_values=(1.0, 2.0), seeds=(2,), **kw)
    assert (serial.value.quantity, serial.value.iteration) == ("w", 1)
    assert (lockstep.value.quantity, lockstep.value.iteration) == ("w", 1)


def test_plateau_vs_rho_validation():
    gen = random_net(seed=11, sizes=(2, 6), kinds=("elu",), scale=0.8)
    args = dict(rho_values=(1.0, 2.0), seeds=(0,), iters=20)
    bad = [
        dict(rho_values=(1.0,)),
        dict(seeds=()),
        dict(rho_values=(1.0, 1.0)),
        dict(rho_values=(0.0, 1.0)),
        dict(rho_values=(-1.0, 1.0)),
        dict(rho_values=(1.0, math.inf)),
        dict(rho_values=(1.0, math.nan)),
        dict(rho_values=(1.0, 1e308)),  # beta = 1/(rho kappa^2) underflows
        dict(iters=0),
        dict(iters=-1),
        dict(sigma0=0.0),
        dict(sigma0=math.nan),
        dict(noise_level=-0.1),
        dict(seeds=(0, -1)),
        dict(seeds=(0, 0)),
    ]
    for kw in bad:
        with pytest.raises(ValueError), np.errstate(over="ignore"):
            plateau_vs_rho(gen, **{**args, **kw})


# ---------------------------------------------------------------------------
# fit_rate on a real run


def test_fit_rate_on_admm_run():
    gen = random_net(seed=5, scale=0.5)
    inst = build_instance(gen, "denoise_l2", noise_level=0.0, seed=1)
    cfg = AdmmConfig(
        rho=0.1,
        alpha=1.0,
        beta=0.5,
        sigma0=0.05,
        tau_c=1e-300,
        max_iters=800,
        w_step="exact",
    )
    state = initial_state(inst.problem, cfg, np.zeros(gen.input_dim))
    _, trace = run(inst.problem, cfg, state, planted=inst.planted)
    fit = fit_rate(trace, reference=best_lagrangian(trace))
    assert 0.0 < fit.eta_hat < 1.0
