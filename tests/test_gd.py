"""Latent-space gradient descent baseline and its relation to ADMM."""

import numpy as np
import pytest

from helpers import gd_admm_discrepancy, gd_admm_step_gap, linear_generator, random_net
from oracles import fd_grad, uniform_ball_point
from priorsolve.admm import (
    AdmmConfig,
    NonFiniteError,
    SplitProblem,
    initial_state,
    run,
)
from priorsolve.gd import (
    GdConfig,
    grad_h,
    run_gd,
    tune_gd_step,
)
from priorsolve.generator import Activation, FeedforwardGenerator, Layer
from priorsolve.generator import estimate_geometry
from priorsolve.losses import LeastSquares, QuadraticDenoise
from priorsolve.prox import Regularizer

RNG = np.random.default_rng


def test_grad_h_linear_hand_formula():
    w = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, -1.0]])
    gen = linear_generator(w)
    b = np.array([1.0, -1.0, 0.5])
    loss = QuadraticDenoise(b)
    z = np.array([0.3, -0.7])
    want = w.T @ (w @ z - b)
    np.testing.assert_allclose(grad_h(loss, gen, z), want, atol=1e-14)


def test_grad_h_matches_finite_differences():
    rng = RNG(1)
    gen = random_net(7, kinds=("elu", "tanh"))
    losses = [
        QuadraticDenoise(rng.standard_normal(8)),
        LeastSquares(rng.standard_normal((5, 8)), rng.standard_normal(5)),
    ]
    for loss in losses:
        for _ in range(15):
            z = uniform_ball_point(rng, 2, 2.0)
            want = fd_grad(lambda v: loss.value(gen.forward(v)), z)
            got = grad_h(loss, gen, z)
            assert np.abs(got - want).max() < 1e-6 * (1.0 + np.abs(want).max())


def test_run_gd_identity_generator_one_step():
    gen = linear_generator(np.eye(3), radius=10.0)
    target = np.array([1.0, -2.0, 0.5])
    loss = QuadraticDenoise(target)
    cfg = GdConfig(step=1.0, max_iters=10, grad_tol=1e-12)
    z_final, trace = run_gd(loss, gen, cfg, z0=np.zeros(3))
    assert len(trace) == 1  # exact minimizer reached, gradient vanishes
    np.testing.assert_array_equal(z_final, target)
    rec = trace.records[0]
    assert rec.objective == 0.0
    assert rec.stop_metric == 0.0


def test_run_gd_trace_semantics():
    gen = random_net(8, kinds=("elu", "tanh"))
    z_star = np.array([0.3, -0.2])
    w_star = gen.forward(z_star)
    loss = QuadraticDenoise(w_star)
    cfg = GdConfig(step=0.05, max_iters=25, grad_tol=1e-14)
    z0 = np.array([0.8, 0.5])
    z_final, trace = run_gd(loss, gen, cfg, z0=z0, planted=(w_star, z_star))

    # replay the recursion by hand and compare every column
    z = z0.copy()
    for rec in trace:
        z_new = z - cfg.step * grad_h(loss, gen, z)
        assert rec.feas_gap == 0.0  # iterates live on the generator range
        assert rec.sigma == 0.0
        assert rec.objective == loss.value(gen.forward(z_new))
        assert rec.lagrangian == rec.objective
        assert rec.step_z == float(np.linalg.norm(z_new - z))
        assert rec.step_w == float(
            np.linalg.norm(gen.forward(z_new) - gen.forward(z))
        )
        assert rec.stop_metric == float(np.linalg.norm(grad_h(loss, gen, z_new)))
        assert rec.dist_w == float(np.linalg.norm(gen.forward(z_new) - w_star))
        assert rec.dist_z == float(np.linalg.norm(z_new - z_star))
        z = z_new
    np.testing.assert_array_equal(z_final, z)
    assert trace.column("t") == list(range(1, len(trace) + 1))


def test_run_gd_converges_on_planted_instance():
    gen = random_net(9, kinds=("elu", "tanh"))
    z_star = np.array([-0.4, 0.6])
    loss = QuadraticDenoise(gen.forward(z_star))
    cfg = GdConfig(step=0.3, max_iters=4000, grad_tol=1e-13)
    z_final, trace = run_gd(loss, gen, cfg, z0=np.array([0.2, 0.1]))
    assert trace.records[-1].objective < 1e-20


def test_run_gd_zero_budget_and_determinism():
    gen = random_net(10)
    loss = QuadraticDenoise(np.zeros(8))
    cfg = GdConfig(step=0.1, max_iters=0, grad_tol=1e-12)
    z0 = np.array([0.5, -0.5])
    z_final, trace = run_gd(loss, gen, cfg, z0=z0)
    assert len(trace) == 0
    np.testing.assert_array_equal(z_final, z0)
    cfg = GdConfig(step=0.1, max_iters=30, grad_tol=1e-30)
    za, ta = run_gd(loss, gen, cfg, z0=z0)
    zb, tb = run_gd(loss, gen, cfg, z0=z0)
    np.testing.assert_array_equal(za, zb)
    assert ta.column("objective") == tb.column("objective")


def test_run_gd_divergence_raises():
    # a saturating net cannot overflow, so use an expansive linear map
    gen = linear_generator(2.0 * np.eye(3), radius=10.0)
    loss = QuadraticDenoise(np.zeros(3))
    cfg = GdConfig(step=1e14, max_iters=100, grad_tol=1e-30)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
        run_gd(loss, gen, cfg, z0=np.array([0.4, 0.4, 0.1]))
    assert (info.value.quantity, info.value.iteration) == ("objective", 11)
    assert info.value.trace is not None
    assert info.value.trace.column("t") == list(range(1, info.value.iteration))


def tanh_generator():
    """One tanh layer: an infinite latent has the finite image (1, 1) and a
    zero gradient."""
    return FeedforwardGenerator(
        [Layer(np.eye(2), np.zeros(2), Activation("tanh"))], domain_radius=2.0
    )


def test_run_gd_infinite_latent_with_finite_image_raises_z():
    # grad h(0) = -(5, 5), so the first step lands at 5 * step
    loss = QuadraticDenoise(np.full(2, 5.0))
    cfg = GdConfig(step=1e308, max_iters=5, grad_tol=1e-30)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
        run_gd(loss, tanh_generator(), cfg, z0=np.zeros(2))
    assert (info.value.quantity, info.value.iteration) == ("z", 1)


def test_run_gd_finite_step_whose_square_overflows_does_not_raise():
    loss = QuadraticDenoise(np.full(2, 5.0))
    cfg = GdConfig(step=1e200, max_iters=5, grad_tol=1e-30)
    with np.errstate(over="ignore"):
        z, trace = run_gd(loss, tanh_generator(), cfg, z0=np.zeros(2))
    np.testing.assert_array_equal(z, np.full(2, 1e200 * 5.0))
    # the gradient vanishes in saturation, so the run stops on it
    assert len(trace) == 1 and trace.records[0].step_z == np.inf
    assert trace.records[0].stop_metric == 0.0


def test_gd_config_validation():
    with pytest.raises(ValueError):
        GdConfig(step=0.0, max_iters=5, grad_tol=1e-6)
    with pytest.raises(ValueError):
        GdConfig(step=0.1, max_iters=-1, grad_tol=1e-6)
    with pytest.raises(ValueError):
        GdConfig(step=0.1, max_iters=5, grad_tol=0.0)


def test_gd_admm_discrepancy_hand_formula():
    gen = random_net(12)
    loss = QuadraticDenoise(np.zeros(8))  # nu_L = 1
    z = np.array([0.2, -0.1])
    w = gen.forward(z) + 0.3
    got = gd_admm_discrepancy(loss, gen, kappa_hat=1.4, beta=0.2, sigma_t=0.5, w=w, z=z)
    gap = float(np.linalg.norm(w - gen.forward(z)))
    assert abs(got - 0.2 * (0.5 * 1.4 + 1.0) * gap) < 1e-14


def test_gd_admm_step_gap_bounded_after_exact_w_steps():
    # after an exact w minimization and its dual update, one ADMM z-step and
    # one GD z-step differ by at most beta (sigma kappa + nu_L) gap, checked
    # here in the kappa <= 1 regime where the bound is conservative
    for seed in (0, 1, 2):
        gen = random_net(seed, scale=0.4, kinds=("elu", "tanh"))
        est = estimate_geometry(gen, n_pairs=800, seed=100 + seed)
        assert est.kappa_hat <= 1.0, "instances must be built in the kappa<=1 regime"
        rng = RNG(200 + seed)
        problem = SplitProblem(
            loss=QuadraticDenoise(rng.standard_normal(8) * 0.5),
            gen=gen,
            reg_w=Regularizer.zero(),
            reg_z=Regularizer.zero(),
        )
        cfg = AdmmConfig(
            rho=0.5, alpha=0.5, beta=0.3, sigma0=0.4, tau_c=1e-30,
            max_iters=12, w_step="exact",
        )
        states = []
        run(
            problem, cfg,
            initial_state(problem, cfg, z0=rng.standard_normal(2) * 0.5),
            observer=lambda s, r: states.append(s),
        )
        assert len(states) == 12
        for state in states:
            actual = gd_admm_step_gap(problem.loss, gen, cfg.beta, cfg.rho, state)
            bound = gd_admm_discrepancy(
                problem.loss, gen, 1.2 * est.kappa_hat, cfg.beta,
                state.sigma, state.w, state.z,
            )
            assert actual <= bound * (1.0 + 1e-9) + 1e-15


def test_tune_gd_step_prefers_converging_step():
    gen = linear_generator(np.eye(3), radius=10.0)
    loss = QuadraticDenoise(np.array([1.0, 2.0, -1.0]))
    z0s = [np.zeros(3), np.array([5.0, -5.0, 1.0])]
    steps = (0.1, 1.0, 1.9, 1e10)
    best, results = tune_gd_step(loss, gen, z0s, steps, budget=25)
    assert best == 1.0
    table = dict(results)
    assert table[1.0] <= min(table.values()) + 1e-18
    assert np.isinf(table[1e10])  # divergent step scores inf
    with pytest.raises(ValueError):
        tune_gd_step(loss, gen, z0s, (), budget=5)
    with pytest.raises(ValueError):
        tune_gd_step(loss, gen, [], steps, budget=5)
    with pytest.raises(ValueError):
        tune_gd_step(loss, gen, z0s, steps, budget=0)
