"""ADMM solver core: hand-computed oracles, update order, schedules."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lagrangian_at, lagrangian_grads, linear_generator, random_net
from oracles import dual_norm_cap, fd_grad, prox_subgradient_residual, uniform_ball_point
from priorsolve.admm import (
    AdmmConfig,
    AdmmState,
    MultiscaleSchedule,
    NonFiniteError,
    SplitProblem,
    UnsupportedLossError,
    admm_step,
    aug_lagrangian,
    dual_step_size,
    exact_w_min,
    grad_z_lagrangian,
    initial_state,
    run,
    run_multiscale,
    stopping_metric,
    suggest_step_sizes,
)
from priorsolve.generator import Activation, FeedforwardGenerator, Layer
from priorsolve.losses import LeastSquares, QuadraticDenoise, SmoothLoss
from priorsolve.prox import Regularizer

RNG = np.random.default_rng


def quad_problem(gen, target, reg_w=None, reg_z=None):
    return SplitProblem(
        loss=QuadraticDenoise(target),
        gen=gen,
        reg_w=reg_w or Regularizer.zero(),
        reg_z=reg_z or Regularizer.zero(),
    )


def base_config(**overrides):
    kw = dict(
        rho=0.5, alpha=0.4, beta=0.2, sigma0=0.3, tau_c=1e-12, max_iters=50
    )
    kw.update(overrides)
    return AdmmConfig(**kw)


class RecordingGenerator:
    """Duck-typed wrapper that logs forward/vjp arguments, the tapes forward
    hands out and the tapes vjp is given (None means vjp ran its own forward
    pass)."""

    def __init__(self, inner):
        self.inner = inner
        self.forward_args = []
        self.forward_tapes = []
        self.vjp_args = []
        self.vjp_tapes = []

    @property
    def input_dim(self):
        return self.inner.input_dim

    @property
    def output_dim(self):
        return self.inner.output_dim

    def forward(self, z, return_tape=False):
        self.forward_args.append(np.array(z))
        out = self.inner.forward(z, return_tape=return_tape)
        self.forward_tapes.append(out if return_tape else None)
        return out

    def vjp(self, z, u, tape=None):
        self.vjp_args.append((np.array(z), np.array(u)))
        self.vjp_tapes.append(tape)
        return self.inner.vjp(z, u, tape=tape)


class RecordingLoss(QuadraticDenoise):
    def __init__(self, target):
        super().__init__(target)
        self.grad_args = []

    def grad(self, w):
        self.grad_args.append(np.array(w))
        return super().grad(w)


def test_aug_lagrangian_hand_value():
    gen = linear_generator(np.eye(2))
    loss = QuadraticDenoise(np.zeros(2))
    w = np.array([1.0, 2.0])
    z = np.array([0.5, 0.0])
    lam = np.array([0.1, -0.2])
    rho = 2.0
    resid = w - z
    want = 0.5 * 5.0 + float(lam @ resid) + 0.5 * rho * float(resid @ resid)
    got = aug_lagrangian(loss.value(w), lam, resid, np.linalg.norm(resid), rho)
    assert abs(got - want) < 1e-14


def test_lagrangian_gradients_match_finite_differences():
    rng = RNG(8)
    gen = random_net(12, kinds=("elu", "tanh"))
    loss = QuadraticDenoise(rng.standard_normal(8))
    for _ in range(20):
        w = rng.standard_normal(8)
        z = uniform_ball_point(rng, 2, 2.0)
        lam = rng.standard_normal(8)
        rho = float(rng.uniform(0.1, 3.0))

        gw, gz = lagrangian_grads(loss, gen, w, z, lam, rho)
        want_w = fd_grad(lambda v: lagrangian_at(loss, gen, v, z, lam, rho), w)
        assert np.abs(gw - want_w).max() < 1e-6 * (1.0 + np.abs(want_w).max())

        want_z = fd_grad(lambda v: lagrangian_at(loss, gen, w, v, lam, rho), z)
        assert np.abs(gz - want_z).max() < 1e-6 * (1.0 + np.abs(want_z).max())


def test_dual_step_size_frozen_values():
    assert dual_step_size(1.0, 10.0, 1) == 0.2081368981005608
    assert dual_step_size(1.0, 2.0, 1) == 1.0
    assert dual_step_size(0.7, 0.0, 5) == 0.7  # zero gap falls back to sigma0
    assert dual_step_size(0.7, 1e-310, 5) == 0.7  # underflow guard
    with pytest.raises(ValueError):
        dual_step_size(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        dual_step_size(1.0, 1.0, 0)


def test_dual_step_size_decreases_in_t():
    prev = np.inf
    for t in (1, 2, 5, 10, 100, 1000):
        s = dual_step_size(1.0, 4.0, t)
        assert s <= prev
        prev = s


def test_dual_increment_is_summable():
    # sigma_{t+1} * gap <= sigma0 / (t ln^2(t+1)) is what makes the dual
    # sequence bounded regardless of the feasibility gaps encountered
    rng = RNG(9)
    for _ in range(500):
        sigma0 = float(rng.uniform(0.1, 5.0))
        gap = float(10.0 ** rng.uniform(-12, 3))
        t = int(rng.integers(1, 10_000))
        s = dual_step_size(sigma0, gap, t)
        cap = sigma0 / (t * math.log(t + 1) ** 2)
        assert s * gap <= cap * (1.0 + 1e-12)


def test_exact_w_min_quadratic_resolvent():
    rng = RNG(10)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        target = rng.standard_normal(d)
        loss = QuadraticDenoise(target)
        gz = rng.standard_normal(d)
        lam = rng.standard_normal(d)
        rho = float(rng.uniform(0.1, 10.0))
        w = exact_w_min(loss, gz, lam, rho)
        want = (target - lam + rho * gz) / (1.0 + rho)
        assert np.abs(w - want).max() < 1e-14
        g = loss.grad(w) + lam + rho * (w - gz)
        assert np.linalg.norm(g) <= 1e-12


def test_exact_w_min_least_squares_matches_dense_solve():
    rng = RNG(11)
    shapes = [(8, 5), (5, 5), (3, 6), (6, 4)]
    for m, d in shapes:
        a = rng.standard_normal((m, d))
        if (m, d) == (6, 4):
            a[:, 3] = a[:, 0]  # rank deficient
        loss = LeastSquares(a, rng.standard_normal(m))
        for _ in range(10):
            gz = rng.standard_normal(d)
            lam = rng.standard_normal(d)
            rho = float(rng.uniform(0.05, 20.0))
            w = exact_w_min(loss, gz, lam, rho)
            rhs = a.T @ loss.rhs - lam + rho * gz
            want = np.linalg.solve(a.T @ a + rho * np.eye(d), rhs)
            assert np.abs(w - want).max() <= 1e-10 * (1.0 + np.abs(want).max())
            g = loss.grad(w) + lam + rho * (w - gz)
            assert np.linalg.norm(g) <= 1e-10 * (1.0 + np.linalg.norm(lam))


def test_exact_w_min_rejects_unsupported_loss():
    class NoStep(SmoothLoss):  # a loss without a closed-form w step
        dim = 3

    with pytest.raises(UnsupportedLossError):
        exact_w_min(NoStep(), np.zeros(3), np.zeros(3), 1.0)


def test_stopping_metric_hand_value():
    got = stopping_metric(
        dz_sq=0.1**2,
        dw_sq=0.2**2,
        alpha=0.5,
        beta=0.25,
        sigma_prev=2.0,
        gap_prev=3.0,
    )
    assert abs(got - (0.01 / 0.5 + 0.04 / 0.25 + 2.0 * 9.0)) < 1e-14


def test_admm_step_update_order_and_hand_recomputation():
    rng = RNG(13)
    inner = random_net(14, kinds=("tanh", "elu"))
    gen = RecordingGenerator(inner)
    loss = RecordingLoss(rng.standard_normal(8))
    problem = SplitProblem(
        loss=loss,
        gen=gen,
        reg_w=Regularizer.ball(np.zeros(8), 1.0),
        reg_z=Regularizer.linf(0.2),
    )
    cfg = base_config()
    w0 = rng.standard_normal(8)
    z0 = rng.standard_normal(2) * 0.5
    lam0 = rng.standard_normal(8) * 0.1
    state = AdmmState(w=w0, z=z0, lam=lam0, sigma=cfg.sigma0, t=1)

    new, rec = admm_step(problem, cfg, state)

    # the z update must read (w_t, z_t, lam_t): its vjp cotangent is built
    # from the OLD w and OLD dual
    gz0 = inner.forward(z0)
    (vz, vu), = gen.vjp_args
    np.testing.assert_array_equal(vz, z0)
    np.testing.assert_allclose(vu, lam0 + cfg.rho * (w0 - gz0), atol=1e-14)
    z1 = problem.reg_z.prox(z0 + cfg.beta * inner.vjp(z0, vu), cfg.beta)
    np.testing.assert_allclose(new.z, z1, atol=1e-14)

    # the w update must read (w_t, z_{t+1}, lam_t); the hand-built state has
    # no gradient cache, so grad L(w_t) is computed first, then grad L(w_{t+1})
    # once more together with the loss value and carried in the new state
    assert len(loss.grad_args) == 2
    np.testing.assert_array_equal(loss.grad_args[0], w0)
    gz1 = inner.forward(z1)
    w1 = problem.reg_w.prox(
        w0 - cfg.alpha * (loss.grad(w0) + lam0 + cfg.rho * (w0 - gz1)), cfg.alpha
    )
    np.testing.assert_allclose(new.w, w1, atol=1e-14)
    np.testing.assert_array_equal(loss.grad_args[1], new.w)

    # generator forward evaluations: old z (the hand-built state has no tape)
    # then new z; the one vjp runs on the tape of the old z, not its own pass
    assert len(gen.forward_args) == 2
    np.testing.assert_array_equal(gen.forward_args[0], z0)
    np.testing.assert_allclose(gen.forward_args[1], z1, atol=0)
    assert gen.vjp_tapes[0] is gen.forward_tapes[0]

    # dual update with the step-size schedule at t = 1
    gap1 = float(np.linalg.norm(w1 - gz1))
    sig1 = dual_step_size(cfg.sigma0, gap1, 1)
    assert new.sigma == sig1
    np.testing.assert_allclose(new.lam, lam0 + sig1 * (w1 - gz1), atol=1e-14)
    assert new.t == 2

    # stopping metric uses the OLD sigma and OLD feasibility gap
    gap0 = float(np.linalg.norm(w0 - gz0))
    dz, dw = z1 - z0, w1 - w0
    want_stop = stopping_metric(
        dz_sq=float(np.dot(dz, dz)), dw_sq=float(np.dot(dw, dw)),
        alpha=cfg.alpha, beta=cfg.beta, sigma_prev=cfg.sigma0, gap_prev=gap0,
    )
    assert abs(rec.stop_metric - want_stop) < 1e-12 * (1.0 + want_stop)
    assert rec.feas_gap == gap1
    assert rec.sigma == sig1
    assert rec.t == 1

    # a warm step from the produced state: one forward (at z_{t+1}), one vjp on
    # the carried tape of z_t, and one gradient (at w_{t+1}); the w update
    # reads the carried grad L(w_t) and matches the hand recomputation
    n_grads = len(loss.grad_args)
    new2, _ = admm_step(problem, cfg, new)
    assert len(gen.forward_args) == 3
    np.testing.assert_array_equal(gen.forward_args[2], new2.z)
    assert len(gen.vjp_args) == 2
    np.testing.assert_array_equal(gen.vjp_args[1][0], new.z)
    assert gen.vjp_tapes[1] is gen.forward_tapes[1]
    assert len(loss.grad_args) == n_grads + 1
    np.testing.assert_array_equal(loss.grad_args[-1], new2.w)
    gz2 = inner.forward(new2.z)
    w2 = problem.reg_w.prox(
        new.w - cfg.alpha * (loss.grad(new.w) + new.lam + cfg.rho * (new.w - gz2)),
        cfg.alpha,
    )
    np.testing.assert_array_equal(new2.w, w2)


def test_admm_step_prox_certificates():
    # each block update solves its prox subproblem: certify via the
    # subdifferential residual at the produced point
    rng = RNG(14)
    gen = random_net(15, kinds=("elu", "tanh"))
    problem = SplitProblem(
        loss=QuadraticDenoise(rng.standard_normal(8)),
        gen=gen,
        reg_w=Regularizer.linf(0.4),
        reg_z=Regularizer.ball(np.zeros(2), 0.25),
    )
    cfg = base_config()
    state = initial_state(problem, cfg, z0=rng.standard_normal(2) * 0.4)
    for _ in range(5):
        tape = gen.forward(state.z, return_tape=True)
        vz = state.z - cfg.beta * grad_z_lagrangian(
            gen, tape, state.lam, state.w - tape.output, cfg.rho
        )
        new, _ = admm_step(problem, cfg, state)
        assert prox_subgradient_residual(problem.reg_z, cfg.beta, vz, new.z) <= 1e-8
        vw = state.w - cfg.alpha * (
            problem.loss.grad(state.w)
            + state.lam
            + cfg.rho * (state.w - gen.forward(new.z))
        )
        assert prox_subgradient_residual(problem.reg_w, cfg.alpha, vw, new.w) <= 1e-8
        state = new


def test_planted_solution_is_a_fixed_point():
    gen = random_net(16, kinds=("elu", "tanh"))
    z_star = np.array([0.3, -0.4])
    w_star = gen.forward(z_star)
    problem = quad_problem(gen, w_star)
    cfg = base_config(tau_c=1e-20)
    state = AdmmState(
        w=w_star.copy(), z=z_star.copy(), lam=np.zeros(8), sigma=cfg.sigma0, t=1
    )
    final, trace = run(problem, cfg, state)
    assert len(trace) == 1  # stop metric is exactly zero at the optimum
    np.testing.assert_array_equal(final.w, w_star)
    np.testing.assert_array_equal(final.z, z_star)
    np.testing.assert_array_equal(final.lam, np.zeros(8))
    assert trace.records[0].stop_metric == 0.0
    assert trace.records[0].feas_gap == 0.0


def test_run_zero_iterations():
    gen = random_net(17)
    problem = quad_problem(gen, np.zeros(8))
    cfg = base_config(max_iters=0)
    state = initial_state(problem, cfg, z0=np.array([0.1, 0.2]))
    final, trace = run(problem, cfg, state)
    assert final is state
    assert len(trace) == 0


def test_run_trace_shape_and_iteration_count():
    gen = random_net(18)
    problem = quad_problem(gen, gen.forward(np.array([0.2, 0.1])) + 0.05)
    cfg = base_config(max_iters=30, tau_c=1e-30)
    state = initial_state(problem, cfg, z0=np.array([-0.3, 0.6]))
    final, trace = run(problem, cfg, state)
    assert len(trace) <= 30
    ts = trace.column("t")
    assert ts == list(range(1, len(trace) + 1))
    assert final.t == len(trace) + 1
    walls = trace.column("wall_ns")
    assert all(b >= a for a, b in zip(walls, walls[1:]))  # cumulative clock


def test_run_is_deterministic():
    gen = random_net(19)
    problem = quad_problem(gen, gen.forward(np.array([0.4, 0.0])) + 0.1)
    cfg = base_config(max_iters=40, tau_c=1e-30)
    z0 = np.array([0.5, -0.2])
    final_a, trace_a = run(problem, cfg, initial_state(problem, cfg, z0=z0))
    final_b, trace_b = run(problem, cfg, initial_state(problem, cfg, z0=z0))
    np.testing.assert_array_equal(final_a.w, final_b.w)
    np.testing.assert_array_equal(final_a.z, final_b.z)
    np.testing.assert_array_equal(final_a.lam, final_b.lam)
    for col in ("objective", "lagrangian", "feas_gap", "sigma", "stop_metric"):
        assert trace_a.column(col) == trace_b.column(col)


def test_dual_norm_stays_under_schedule_cap():
    rng = RNG(20)
    gen = random_net(21, kinds=("elu", "tanh"))
    cases = [
        (quad_problem(gen, rng.standard_normal(8)), "linearized", np.zeros(8)),
        (quad_problem(gen, rng.standard_normal(8)), "exact", rng.standard_normal(8)),
        (
            SplitProblem(
                loss=LeastSquares(
                    rng.standard_normal((4, 8)) / 2.0, rng.standard_normal(4)
                ),
                gen=gen,
                reg_w=Regularizer.zero(),
                reg_z=Regularizer.zero(),
            ),
            "exact",
            np.zeros(8),
        ),
    ]
    for problem, mode, lam0 in cases:
        cfg = base_config(max_iters=60, tau_c=1e-30, w_step=mode, sigma0=0.8)
        state = dataclasses.replace(
            initial_state(problem, cfg, z0=rng.standard_normal(2) * 0.5), lam=lam0
        )
        lam0_norm = float(np.linalg.norm(lam0))
        seen = []
        run(problem, cfg, state, observer=lambda s, r: seen.append((s.t, s.lam)))
        assert seen
        for t, lam in seen:
            cap = dual_norm_cap(lam0_norm, cfg.sigma0, t)
            assert np.linalg.norm(lam) <= cap * (1.0 + 1e-12)


def test_divergence_raises_named_nonfinite():
    gen = random_net(22)
    problem = quad_problem(gen, np.zeros(8))
    cfg = base_config(alpha=1e12, max_iters=200, tau_c=1e-30)
    state = initial_state(problem, cfg, z0=np.array([0.3, 0.3]))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
        run(problem, cfg, state)
    err = info.value
    assert (err.quantity, err.iteration) == ("lagrangian", 13)
    assert err.trace is not None
    assert err.trace.column("t") == list(range(1, err.iteration))


def tanh_problem():
    """One tanh layer: an infinite latent has the finite image (1, 1) and a
    zero Jacobian.  w starts 5 above G(0), so the first z step is 2.5 beta."""
    gen = FeedforwardGenerator(
        [Layer(np.eye(2), np.zeros(2), Activation("tanh"))], domain_radius=2.0
    )
    return quad_problem(gen, np.zeros(2))


def test_infinite_latent_with_finite_image_raises_z():
    problem = tanh_problem()
    cfg = base_config(beta=1e308)
    state = dataclasses.replace(
        initial_state(problem, cfg, z0=np.zeros(2)), w=np.full(2, 5.0)
    )
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as info:
        run(problem, cfg, state)
    assert (info.value.quantity, info.value.iteration) == ("z", 1)
    assert len(info.value.trace) == 0


def test_finite_step_whose_square_overflows_does_not_raise():
    problem = tanh_problem()
    cfg = base_config(beta=1e200)
    state = dataclasses.replace(
        initial_state(problem, cfg, z0=np.zeros(2)), w=np.full(2, 5.0)
    )
    with np.errstate(over="ignore"):
        new, record = admm_step(problem, cfg, state)
    np.testing.assert_array_equal(new.z, np.full(2, 1e200 * 2.5))
    assert record.step_z == math.inf and math.isfinite(record.lagrangian)


def test_dual_overflow_alone_raises_lambda():
    # the exact w step lands at 1.5 from G(z) = 0 while z stays at 0; the
    # largest sigma0 times that residual overflows lambda and nothing else
    problem = quad_problem(linear_generator(np.eye(2)), np.array([3.0, 0.0]))
    cfg = base_config(w_step="exact", rho=1.0, sigma0=np.finfo(float).max)
    state = initial_state(problem, cfg, z0=np.zeros(2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as info:
            admm_step(problem, cfg, state)
    assert (info.value.quantity, info.value.iteration) == ("lambda", 1)


def test_exact_mode_takes_a_nonzero_w_regularizer_on_isotropic_losses():
    gen = random_net(23)
    reg_w = Regularizer.linf(0.1)
    problem = quad_problem(gen, np.zeros(8), reg_w=reg_w)
    cfg = base_config(w_step="exact")
    state = initial_state(problem, cfg, z0=np.array([0.1, 0.1]))
    new, _ = admm_step(problem, cfg, state)
    # w_{t+1} = prox_{R/(1+rho)} of the smooth step at G(z_{t+1}) and lam_t
    # (target 0, nu = 1)
    c = (cfg.rho * new.tape.output - state.lam) / (1.0 + cfg.rho)
    assert prox_subgradient_residual(reg_w, 1.0 / (1.0 + cfg.rho), c, new.w) <= 1e-12
    _, trace = run(problem, cfg, state)
    assert len(trace) > 0 and trace.stop_reason in ("tol", "budget")
    # a wide least-squares loss has mu = 0 < nu: no exact step with R
    a = RNG(23).standard_normal((4, 8))
    wide = dataclasses.replace(problem, loss=LeastSquares(a, np.zeros(4)))
    with pytest.raises(UnsupportedLossError):
        admm_step(wide, cfg, initial_state(wide, cfg, z0=np.array([0.1, 0.1])))


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(rho=0.0)
    with pytest.raises(ValueError):
        base_config(alpha=-1.0)
    with pytest.raises(ValueError):
        base_config(beta=0.0)
    with pytest.raises(ValueError):
        base_config(sigma0=0.0)
    with pytest.raises(ValueError):
        base_config(tau_c=0.0)
    with pytest.raises(ValueError):
        base_config(max_iters=-1)
    with pytest.raises(ValueError):
        base_config(w_step="cautious")
    with pytest.raises(ValueError):
        base_config(multiscale=MultiscaleSchedule(2, 5))  # needs exact w step
    with pytest.raises(ValueError):
        MultiscaleSchedule(0, 5)
    with pytest.raises(ValueError):
        MultiscaleSchedule(2, 0)
    cfg = base_config(w_step="exact", multiscale=MultiscaleSchedule(2, 5))
    assert cfg.multiscale.stages == 2


def test_multiscale_equals_manually_stitched_stages():
    gen = random_net(24, kinds=("elu", "tanh"))
    target = gen.forward(np.array([0.25, -0.3])) + 0.08
    problem = quad_problem(gen, target)
    cfg = base_config(
        rho=0.4, alpha=0.3, beta=0.15, sigma0=0.5, tau_c=1e-30, max_iters=999,
        w_step="exact", multiscale=MultiscaleSchedule(stages=2, base_iters=5),
    )
    z0 = np.array([0.7, 0.2])
    state0 = initial_state(problem, cfg, z0=z0)
    final, trace = run_multiscale(problem, cfg, state0)

    # stage k uses rho * 2^k, alpha * 2^-k, beta * 2^-k for base_iters * 2^k
    # iterations, warm starting everything including the dual counter
    import dataclasses

    state = initial_state(problem, cfg, z0=z0)
    stitched = []
    for k in (1, 2):
        stage_cfg = dataclasses.replace(
            cfg,
            rho=cfg.rho * 2.0**k,
            alpha=cfg.alpha * 0.5**k,
            beta=cfg.beta * 0.5**k,
            max_iters=cfg.multiscale.base_iters * 2**k,
            multiscale=None,
        )
        state, stage_trace = run(problem, stage_cfg, state)
        stitched.extend(stage_trace.records)

    assert len(trace) == len(stitched) == 5 * 2 + 5 * 4
    np.testing.assert_array_equal(final.w, state.w)
    np.testing.assert_array_equal(final.z, state.z)
    np.testing.assert_array_equal(final.lam, state.lam)
    assert final.sigma == state.sigma
    assert final.t == state.t == 31
    for mine, ref in zip(trace.records, stitched):
        assert mine.t == ref.t
        assert mine.lagrangian == ref.lagrangian
        assert mine.sigma == ref.sigma

    assert [s.index for s in trace.stages] == [1, 2]
    assert trace.stages[0].rho == 0.8 and trace.stages[1].rho == 1.6
    assert trace.stages[0].alpha == 0.15 and trace.stages[1].alpha == 0.075
    assert trace.stages[0].first_t == 1 and trace.stages[0].last_t == 10
    assert trace.stages[1].first_t == 11 and trace.stages[1].last_t == 30


def test_run_hands_a_multiscale_config_to_run_multiscale():
    gen = random_net(24, kinds=("elu", "tanh"))
    target = gen.forward(np.array([0.25, -0.3])) + 0.08
    problem = quad_problem(gen, target)
    cfg = base_config(
        rho=0.4, alpha=0.3, beta=0.15, sigma0=0.5, tau_c=1e-30, max_iters=999,
        w_step="exact", multiscale=MultiscaleSchedule(stages=2, base_iters=5),
    )
    z0 = np.array([0.7, 0.2])
    final, trace = run(problem, cfg, initial_state(problem, cfg, z0=z0))
    ref_final, ref = run_multiscale(problem, cfg, initial_state(problem, cfg, z0=z0))

    def unclocked(records):
        return [dataclasses.replace(r, wall_ns=0) for r in records]

    assert len(trace) == 5 * 2 + 5 * 4
    assert unclocked(trace.records) == unclocked(ref.records)
    assert trace.stages == ref.stages and len(trace.stages) == 2
    np.testing.assert_array_equal(final.w, ref_final.w)
    np.testing.assert_array_equal(final.lam, ref_final.lam)
    assert final.t == ref_final.t == 31


class OverflowingLoss(QuadraticDenoise):
    """Denoising loss whose value overflows from evaluation number after + 1
    on."""

    def __init__(self, target, after):
        super().__init__(target)
        self.after = after
        self.calls = 0

    def value(self, w):
        self.calls += 1
        return np.inf if self.calls > self.after else super().value(w)


def test_multiscale_divergence_keeps_every_stage_in_one_trace():
    # the exact w-step evaluates the loss once per iteration, so the 14th
    # iteration, the 4th of stage 2, is the first non-finite one
    gen = random_net(26, kinds=("elu", "tanh"))
    problem = SplitProblem(
        loss=OverflowingLoss(gen.forward(np.array([0.2, -0.1])), after=13),
        gen=gen,
        reg_w=Regularizer.zero(),
        reg_z=Regularizer.zero(),
    )
    cfg = base_config(
        tau_c=1e-30, max_iters=999, w_step="exact",
        multiscale=MultiscaleSchedule(stages=3, base_iters=5),
    )
    state = initial_state(problem, cfg, z0=np.array([0.5, 0.3]))
    with pytest.raises(NonFiniteError) as info:
        run_multiscale(problem, cfg, state)
    err = info.value
    assert (err.quantity, err.iteration) == ("lagrangian", 14)
    assert err.trace.column("t") == list(range(1, 14))
    assert [s.index for s in err.trace.stages] == [1]
    assert (err.trace.stages[0].first_t, err.trace.stages[0].last_t) == (1, 10)


def test_multiscale_requires_schedule():
    gen = random_net(25)
    problem = quad_problem(gen, np.zeros(8))
    cfg = base_config(w_step="exact")
    state = initial_state(problem, cfg, z0=np.array([0.1, 0.1]))
    with pytest.raises(ValueError):
        run_multiscale(problem, cfg, state)


def test_suggest_step_sizes():
    est_kappa = 1.5
    nu = QuadraticDenoise(np.zeros(4)).convexity_constants()[1]
    alpha, beta, gd_step = suggest_step_sizes(nu, est_kappa, rho=2.0)
    assert alpha == 1.0 / 3.0  # rho = 2 >= nu = 1: 1/(nu + rho)
    assert beta == 1.0 / (2.0 * 1.5**2)
    assert gd_step == 1.0 / 1.5**2
    assert suggest_step_sizes(nu, est_kappa, rho=0.1)[0] == 1.0
    with pytest.raises(ValueError):
        suggest_step_sizes(nu, 0.0, rho=2.0)
    with pytest.raises(ValueError):
        suggest_step_sizes(nu, 1.0, rho=0.0)
    with pytest.raises(ValueError):
        suggest_step_sizes(0.0, 1.0, rho=2.0)
    # a step that underflows to 0.0 is an error, not a step
    with pytest.raises(ValueError, match="rho too large: beta"):
        suggest_step_sizes(nu, est_kappa, rho=1e308)
    with pytest.raises(ValueError, match="alpha underflows"):
        suggest_step_sizes(1e308, 0.5, rho=1e308)
    with pytest.raises(ValueError, match="gd_step"):
        suggest_step_sizes(1e308, est_kappa, rho=0.1)


positive = st.floats(1e-6, 1e6)


@settings(max_examples=300, deadline=None)
@given(positive, positive, st.floats(1e-3, 1e3), st.data())
def test_suggested_alpha_keeps_the_linearized_w_step_stable(nu, rho, kappa, data):
    """The w block gradient is (nu + rho)-Lipschitz, so the step is stable
    for alpha (nu + rho) < 2, checked in exact arithmetic on the float alpha;
    alpha is exactly 1/nu below rho = nu, and gd_step = 1/(nu kappa^2)."""
    if data.draw(st.booleans()):  # rho within a few ulps of nu
        rho = nu * (1.0 + data.draw(st.integers(-4, 4)) * np.finfo(float).eps)
    alpha, _, gd_step = suggest_step_sizes(nu, kappa, rho)
    assert Fraction(alpha) * (Fraction(nu) + Fraction(rho)) < 2
    assert (alpha == 1.0 / nu) == (rho < nu)
    assert gd_step == 1.0 / (nu * kappa**2)
