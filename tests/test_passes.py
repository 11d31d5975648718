"""Generator and loss work per point: each is evaluated once, and carried
caches never outlive the iterate they were computed from."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

import priorsolve.config
import priorsolve.harness
from helpers import random_net
from priorsolve import generator
from priorsolve.admm import (
    AdmmConfig,
    AdmmState,
    SplitProblem,
    admm_step,
    initial_state,
)
from priorsolve.cli import main
from priorsolve.gd import GdConfig, run_gd
from priorsolve.generator import FeedforwardGenerator, estimate_geometry
from priorsolve.harness import build_instance, plateau_vs_rho
from priorsolve.losses import LeastSquares, QuadraticDenoise
from priorsolve.prox import Regularizer

REFERENCE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "reference.ini"


class CountingGenerator(FeedforwardGenerator):
    """A real generator that counts forward traces, logging a copy of the
    latent of each, and backward passes."""

    def __init__(self, inner):
        super().__init__(inner.layers, inner.domain_radius)
        self.traces = 0
        self.vjps = 0
        self.traced = []

    def _forward_trace(self, z):
        self.traces += 1
        self.traced.append(np.copy(z))
        return super()._forward_trace(z)

    def vjp(self, tape, u):
        self.vjps += 1
        return super().vjp(tape, u)

    def reset(self):
        self.traces = self.vjps = 0
        self.traced = []


def cs_problem(gen, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, gen.output_dim))
    return SplitProblem(
        loss=LeastSquares(a, rng.standard_normal(6)),
        gen=gen,
        reg_w=Regularizer.zero(),
        reg_z=Regularizer.zero(),
    )


def config(w_step="linearized"):
    return AdmmConfig(
        rho=0.5, alpha=0.05, beta=0.1, sigma0=0.3, tau_c=1e-12, max_iters=20,
        w_step=w_step,
    )


@pytest.mark.parametrize("w_step", ["linearized", "exact"])
def test_warm_admm_step_runs_one_forward_and_one_vjp(w_step):
    gen = CountingGenerator(random_net(31, kinds=("elu", "tanh")))
    problem = cs_problem(gen)
    cfg = config(w_step)
    state = initial_state(problem, cfg, np.array([0.3, -0.2]))
    assert (gen.traces, gen.vjps) == (1, 0)
    for _ in range(4):
        gen.reset()
        state, _ = admm_step(problem, cfg, state)
        assert (gen.traces, gen.vjps) == (1, 1)


def test_run_gd_runs_one_forward_and_one_vjp_per_iteration():
    gen = CountingGenerator(random_net(33, kinds=("elu", "tanh")))
    loss = QuadraticDenoise(gen.forward(np.array([0.4, -0.1])) + 0.05)
    gen.reset()
    iters = 17
    _, trace = run_gd(
        loss, gen, GdConfig(step=0.05, max_iters=iters, grad_tol=1e-300),
        np.zeros(2),
    )
    assert len(trace) == iters
    assert (gen.traces, gen.vjps) == (iters + 1, iters + 1)


@pytest.mark.parametrize("n_pairs", [1, 25])
def test_estimate_geometry_runs_one_forward_trace_of_all_pairs(n_pairs, monkeypatch):
    gen = CountingGenerator(random_net(34, kinds=("elu", "tanh")))
    gen.reset()
    estimate_geometry(gen, n_pairs, seed=3)
    (whole,) = gen.traced
    assert whole.shape == (2 * n_pairs, gen.input_dim)
    assert gen.vjps == 0
    # blocks of 7 pairs: one trace per block, its z1 rows then its z2 rows,
    # which together visit every pair once in stream order
    monkeypatch.setattr(generator, "_BLOCK_ELEMENTS", 2 * 7 * gen.output_dim)
    gen.reset()
    estimate_geometry(gen, n_pairs, seed=3)
    sizes = [min(7, n_pairs - lo) for lo in range(0, n_pairs, 7)]
    assert [z.shape for z in gen.traced] == [(2 * b, gen.input_dim) for b in sizes]
    assert gen.vjps == 0
    blocks = [np.split(z, 2) for z in gen.traced]
    for half, rows in enumerate(np.split(whole, 2)):
        np.testing.assert_array_equal(np.concatenate([b[half] for b in blocks]), rows)


def test_compare_estimates_geometry_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return estimate_geometry(*args, **kwargs)

    monkeypatch.setattr(priorsolve.config, "estimate_geometry", counting)
    assert main(["compare", str(REFERENCE_CONFIG), "--out-dir", str(tmp_path)]) == 0
    assert len(calls) == 1


def _assert_same_step(a, b):
    (sa, ra), (sb, rb) = a, b
    for name in ("w", "z", "lam"):
        np.testing.assert_array_equal(getattr(sa, name), getattr(sb, name))
    assert (sa.sigma, sa.t) == (sb.sigma, sb.t)
    assert dataclasses.astuple(ra) == dataclasses.astuple(rb)


@pytest.mark.parametrize("w_step", ["linearized", "exact"])
def test_replaced_iterate_drops_its_stale_caches(w_step):
    gen = random_net(35, kinds=("elu", "tanh"))
    problem = cs_problem(gen)
    cfg = config(w_step)
    state = initial_state(problem, cfg, np.array([0.3, -0.2]))
    for _ in range(3):
        state, _ = admm_step(problem, cfg, state)

    z2 = np.array([-0.5, 0.7])
    w2 = state.w + 0.25
    tape2 = gen.forward(z2, return_tape=True)
    moved_z = dataclasses.replace(state, tape=tape2)
    moved_w = dataclasses.replace(state, w=w2)
    assert moved_z.z is z2 and moved_w.w_grad is None

    kept = dict(lam=state.lam, sigma=state.sigma, t=state.t)
    fresh_z = AdmmState(w=state.w, tape=tape2, **kept)
    fresh_w = AdmmState(w=w2, tape=state.tape, **kept)
    for moved, fresh in ((moved_z, fresh_z), (moved_w, fresh_w)):
        _assert_same_step(admm_step(problem, cfg, moved), admm_step(problem, cfg, fresh))


def test_caches_survive_replacing_other_fields():
    gen = CountingGenerator(random_net(36, kinds=("elu", "tanh")))
    problem = cs_problem(gen)
    cfg = config()
    state, _ = admm_step(problem, cfg, initial_state(problem, cfg, np.zeros(2)))
    moved = dataclasses.replace(state, lam=state.lam * 0.5)
    assert moved.tape is state.tape and moved.w_grad is state.w_grad
    gen.reset()
    admm_step(problem, cfg, moved)
    assert (gen.traces, gen.vjps) == (1, 1)


def test_plateau_sweep_runs_one_batched_forward_per_iteration(monkeypatch):
    """R rho values x S seeds for N iterations: N + 1 forward calls on the
    whole (R*S, k) batch and N batched VJPs, besides the geometry estimate
    and the instance builds."""

    class ShapeLog(FeedforwardGenerator):
        def __init__(self, inner):
            super().__init__(inner.layers, inner.domain_radius)
            self.forwards, self.vjps, self.inside = [], [], 0

        def forward(self, z, return_tape=False):
            if not self.inside:
                self.forwards.append(np.shape(z))
            return super().forward(z, return_tape=return_tape)

        def vjp(self, tape, u):
            self.vjps.append(np.shape(tape.z))
            return super().vjp(tape, u)

    def bracketed(fn):
        def call(gen, *args, **kwargs):
            gen.inside += 1
            try:
                return fn(gen, *args, **kwargs)
            finally:
                gen.inside -= 1

        return call

    for fn in (estimate_geometry, build_instance):
        monkeypatch.setattr(priorsolve.harness, fn.__name__, bracketed(fn))
    gen = ShapeLog(random_net(37, sizes=(2, 6), kinds=("elu",), scale=0.8))
    rhos, seeds, iters = (1.0, 2.0, 4.0), (0, 1), 40
    plateau_vs_rho(gen, rhos, seeds, iters=iters)
    batch = (len(rhos) * len(seeds), gen.input_dim)
    assert gen.forwards == [batch] * (iters + 1)
    assert gen.vjps == [batch] * iters
