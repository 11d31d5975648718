"""End-to-end acceptance suite: one test per shipped guarantee.

Each test exercises a full guarantee at its stated tolerance and runtime
budget and emits a single verdict line (run ``pytest tests/test_acceptance.py
-v`` for the per-guarantee verdicts, add ``-s`` to see the printed lines with
their numeric margins).  Guarantees that ride on a concrete problem use the
shipped reference generator under ``configs/``.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from helpers import (
    gd_admm_discrepancy,
    gd_admm_step_gap,
    lagrangian_at,
    lagrangian_grads,
    linear_generator,
    random_net,
)
from oracles import (
    dual_norm_cap,
    fd_grad,
    fd_jacobian,
    l1_ball_projection_qp,
    prox_subgradient_residual,
    uniform_ball_point,
)
from priorsolve.admm import (
    AdmmConfig,
    SplitProblem,
    exact_w_min,
    initial_state,
    run,
    suggest_step_sizes,
)
from priorsolve.cli import main as cli_main
from priorsolve.gd import GdConfig, grad_h, run_gd
from priorsolve.generator import estimate_geometry, load_generator
from priorsolve.harness import best_lagrangian, build_instance, fit_rate, plateau_vs_rho
from priorsolve.losses import LeastSquares, QuadraticDenoise
from priorsolve.prox import Regularizer, project_l1_ball

RNG = np.random.default_rng

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
REFERENCE_GENERATOR = CONFIG_DIR / "reference_generator.json"
REFERENCE_INI = CONFIG_DIR / "reference.ini"


def _verdict(number, label, failures, elapsed, budget, margin=""):
    """Print one pass/fail line for a guarantee, then assert it."""
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.1f}s over the {budget:.0f}s budget")
    status = "PASS" if not failures else "FAIL"
    note = margin if not failures else "; ".join(failures)
    line = f"acceptance {number:02d} {label}: {status} [{elapsed:.1f}s]"
    print(f"{line} {note}".rstrip())
    assert not failures, f"{label}: " + "; ".join(failures)


def _rel(got, want):
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-9))


def _random_regularizer(rng, kind, dim):
    center = rng.standard_normal(dim) if rng.uniform() < 0.5 else None
    if kind == "zero":
        return Regularizer.zero()
    if kind == "linf":
        return Regularizer.linf(rng.uniform(0.05, 3.0), center=center)
    return Regularizer.ball(rng.standard_normal(dim), rng.uniform(0.3, 2.0))


def _cap_recorder(records):
    """Observer appending (t, ||lam||) pairs for the dual-cap check."""

    def observer(state, record):
        records.append((state.t, float(np.linalg.norm(state.lam))))

    return observer


def _cap_violations(records, lam0_norm, sigma0):
    worst = 0.0
    bad = 0
    for t, norm in records:
        cap = dual_norm_cap(lam0_norm, sigma0, t)
        worst = max(worst, norm / cap)
        if norm > cap * (1.0 + 1e-12):
            bad += 1
    return bad, worst


def _reference_setup():
    gen = load_generator(REFERENCE_GENERATOR)
    est = estimate_geometry(gen, 2000, seed=0)
    return gen, est


def test_acceptance_01_prox_certificates():
    start = time.perf_counter()
    failures = []
    rng = RNG(101)
    kinds = ("zero", "linf", "ball")
    worst = 0.0
    for case in range(1000):
        kind = kinds[case % len(kinds)]
        dim = int(rng.integers(1, 9))
        reg = _random_regularizer(rng, kind, dim)
        v = rng.standard_normal(dim) * float(rng.uniform(0.3, 3.0))
        t = float(rng.uniform(0.05, 5.0))
        resid = prox_subgradient_residual(reg, t, v, reg.prox(v, t))
        worst = max(worst, resid)
    if worst > 1e-8:
        failures.append(f"worst prox residual {worst:.2e} above 1e-8")
    worst_ball = 0.0
    for case in range(120):
        dim = 1 + case % 4
        v = rng.standard_normal(dim) * float(rng.uniform(0.3, 3.0))
        radius = float(rng.uniform(0.2, 2.5))
        got = project_l1_ball(v, radius)
        want = l1_ball_projection_qp(v, radius)
        worst_ball = max(worst_ball, float(np.abs(got - want).max()))
    if worst_ball > 1e-6:
        failures.append(f"l1-ball mismatch {worst_ball:.2e} above 1e-6")
    _verdict(
        1, "prox optimality certificates", failures,
        time.perf_counter() - start, 5.0,
        f"worst residual {worst:.1e}, worst ball mismatch {worst_ball:.1e}",
    )


def test_acceptance_02_derivative_fidelity():
    start = time.perf_counter()
    failures = []
    rng = RNG(201)
    worst = {"jacobian": 0.0, "grad_w": 0.0, "grad_z": 0.0, "grad_h": 0.0}
    for case in range(100):
        gen = random_net(200 + case, scale=float(rng.uniform(0.6, 1.2)))
        loss = QuadraticDenoise(rng.standard_normal(8))
        z = uniform_ball_point(rng, 2, 2.0)
        w = rng.standard_normal(8)
        lam = rng.standard_normal(8)
        rho = float(rng.uniform(0.1, 5.0))
        worst["jacobian"] = max(
            worst["jacobian"], _rel(gen.jacobian(z), fd_jacobian(gen.forward, z))
        )
        grad_w, grad_z = lagrangian_grads(loss, gen, w, z, lam, rho)
        worst["grad_w"] = max(
            worst["grad_w"],
            _rel(
                grad_w,
                fd_grad(lambda u: lagrangian_at(loss, gen, u, z, lam, rho), w),
            ),
        )
        worst["grad_z"] = max(
            worst["grad_z"],
            _rel(
                grad_z,
                fd_grad(lambda u: lagrangian_at(loss, gen, w, u, lam, rho), z),
            ),
        )
        worst["grad_h"] = max(
            worst["grad_h"],
            _rel(
                grad_h(loss, gen, z),
                fd_grad(lambda u: loss.value(gen.forward(u)), z),
            ),
        )
    for name, value in worst.items():
        if value > 1e-5:
            failures.append(f"{name} relative error {value:.2e} above 1e-5")
    _verdict(
        2, "derivatives match finite differences", failures,
        time.perf_counter() - start, 10.0,
        "worst rel err " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


def test_acceptance_03_exact_w_step():
    start = time.perf_counter()
    failures = []
    rng = RNG(301)
    worst_grad = worst_agree = 0.0
    for case in range(100):
        d = int(rng.integers(3, 9))
        m = (d - 2, d, d + 4)[case % 3]
        if case % 4 == 3:
            rank = max(1, min(m, d) - 2)
            matrix = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d))
        else:
            matrix = rng.standard_normal((m, d))
        loss = LeastSquares(matrix, rng.standard_normal(m))
        gz = rng.standard_normal(d)
        lam = rng.standard_normal(d)
        rho = float(rng.uniform(0.1, 10.0))
        w = exact_w_min(loss, gz, lam, rho)
        worst_grad = max(
            worst_grad,
            float(np.linalg.norm(loss.grad(w) + lam + rho * (w - gz))),
        )
        dense = np.linalg.solve(
            matrix.T @ matrix + rho * np.eye(d),
            matrix.T @ loss.rhs - lam + rho * gz,
        )
        worst_agree = max(worst_agree, float(np.linalg.norm(w - dense)))
    if worst_grad > 1e-10:
        failures.append(f"zero-gradient residual {worst_grad:.2e} above 1e-10")
    if worst_agree > 1e-10:
        failures.append(f"SVD vs dense solve gap {worst_agree:.2e} above 1e-10")
    _verdict(
        3, "closed-form w minimizer", failures,
        time.perf_counter() - start, 5.0,
        f"worst gradient {worst_grad:.1e}, worst solver gap {worst_agree:.1e}",
    )


def test_acceptance_04_dual_norm_cap():
    start = time.perf_counter()
    failures = []
    gen_ref, est_ref = _reference_setup()
    runs = []

    inst = build_instance(gen_ref, "denoise_l2", noise_level=0.0, seed=0)
    alpha, beta, _ = suggest_step_sizes(
        inst.problem.loss.convexity_constants()[1], est_ref.kappa_hat, 0.1)
    cfg = AdmmConfig(
        rho=0.1, alpha=alpha, beta=beta, sigma0=1e-4, tau_c=1e-300, max_iters=500
    )
    z0 = inst.z_star + 2.0 * np.array([math.cos(1.0), math.sin(1.0)])
    runs.append(("linearized denoise", inst.problem, cfg, z0, None))

    gen = random_net(31)
    problem = SplitProblem(
        loss=QuadraticDenoise(RNG(31).standard_normal(8)),
        gen=gen,
        reg_w=Regularizer.zero(),
        reg_z=Regularizer.zero(),
    )
    cfg = AdmmConfig(
        rho=1.0, alpha=1.0, beta=0.2, sigma0=0.8, tau_c=1e-300,
        max_iters=300, w_step="exact",
    )
    runs.append(
        ("exact step, warm dual", problem, cfg, np.array([0.4, -0.3]),
         0.3 * np.ones(8))
    )

    gen = random_net(32)
    inst = build_instance(gen, "compressive_sensing", noise_level=0.05, seed=3)
    est = estimate_geometry(gen, 400, seed=3)
    alpha, beta, _ = suggest_step_sizes(
        inst.problem.loss.convexity_constants()[1], est.kappa_hat, 1.0)
    cfg = AdmmConfig(
        rho=1.0, alpha=alpha, beta=beta, sigma0=0.5, tau_c=1e-300, max_iters=300
    )
    runs.append(("compressive sensing", inst.problem, cfg, np.array([0.2, 0.2]), None))

    inst = build_instance(gen_ref, "denoise_linf", noise_level=0.0, seed=0)
    nu_l = inst.problem.loss.convexity_constants()[1]
    cfg = AdmmConfig(
        rho=10.0, alpha=1.0 / (nu_l + 10.0),
        beta=1.0 / (10.0 * est_ref.kappa_hat**2),
        sigma0=0.2, tau_c=1e-300, max_iters=300,
    )
    u = RNG(1).standard_normal(2)
    z0 = inst.z_star + 2.0 * u / np.linalg.norm(u)
    runs.append(("sup-norm penalty", inst.problem, cfg, z0, None))

    worst = 0.0
    for label, problem, cfg, z0, lam0 in runs:
        state = initial_state(problem, cfg, z0)
        if lam0 is not None:
            state = dataclasses.replace(state, lam=lam0)
        lam0_norm = float(np.linalg.norm(state.lam))
        records = []
        run(problem, cfg, state, observer=_cap_recorder(records))
        if not records:
            failures.append(f"{label}: no iterations recorded")
            continue
        bad, ratio = _cap_violations(records, lam0_norm, cfg.sigma0)
        worst = max(worst, ratio)
        if bad:
            failures.append(f"{label}: dual norm above schedule cap {bad} times")
    _verdict(
        4, "dual norm under schedule cap", failures,
        time.perf_counter() - start, 30.0,
        f"worst norm/cap ratio {worst:.3f} over {len(runs)} runs",
    )


def test_acceptance_05_linear_convergence():
    start = time.perf_counter()
    failures = []
    gen, est = _reference_setup()
    inst = build_instance(gen, "denoise_l2", noise_level=0.0, seed=0)
    mu_l = inst.problem.loss.convexity_constants()[0]
    rho = 0.1
    assert rho <= mu_l / 10.0 * (1.0 + 1e-12)
    alpha, beta, _ = suggest_step_sizes(
        inst.problem.loss.convexity_constants()[1], est.kappa_hat, rho)
    cfg = AdmmConfig(
        rho=rho, alpha=alpha, beta=beta, sigma0=1e-4, tau_c=1e-300, max_iters=3000
    )
    z0 = inst.z_star + 2.0 * np.array([math.cos(1.0), math.sin(1.0)])
    state = initial_state(inst.problem, cfg, z0)
    records = []
    _, trace = run(
        inst.problem, cfg, state, planted=inst.planted,
        observer=_cap_recorder(records),
    )
    bad, _ = _cap_violations(records, 0.0, cfg.sigma0)
    if bad:
        failures.append(f"dual norm above schedule cap {bad} times")
    fit = fit_rate(trace, best_lagrangian(trace))
    offsets = np.asarray(trace.column("lagrangian"), dtype=float) - best_lagrangian(trace)
    drop = float(offsets.max()) / max(fit.plateau, 1e-14)
    if not fit.eta_hat <= 0.999:
        failures.append(f"fitted rate {fit.eta_hat:.6f} above 0.999")
    if not fit.r_squared >= 0.9:
        failures.append(f"fit r^2 {fit.r_squared:.3f} below 0.9")
    if not drop >= 1e3:
        failures.append(f"gap-to-plateau drop {drop:.1e} below 3 decades")
    _verdict(
        5, "linear convergence on the reference run", failures,
        time.perf_counter() - start, 30.0,
        f"eta {fit.eta_hat:.4f}, r^2 {fit.r_squared:.3f}, "
        f"drop {drop:.1e} over {fit.n_fit} fitted rows",
    )


def test_acceptance_06_plateau_scaling():
    start = time.perf_counter()
    failures = []
    gen, _ = _reference_setup()
    rows = plateau_vs_rho(
        gen, (1.0, 2.0, 4.0, 8.0), seeds=(0, 1, 2),
        noise_level=0.1, iters=1500, sigma0=0.2, geometry_pairs=2000,
    )
    gaps = [row["gap_plateau"] for row in rows]
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        failures.append(f"gap plateaus not strictly decreasing: {gaps}")
    for (a, b), ratio in zip(zip(gaps, gaps[1:]), ratios):
        if not 1.3 <= ratio <= 3.0:
            failures.append(
                f"plateau ratio {ratio:.2f} ({a:.2e}/{b:.2e}) outside [1.3, 3.0]"
            )
    _verdict(
        6, "gap plateau scales like 1/rho", failures,
        time.perf_counter() - start, 120.0,
        "ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_acceptance_07_admm_gd_bridge():
    start = time.perf_counter()
    failures = []
    beta, rho = 0.3, 3.0
    worst_ratio = 0.0
    unreached = 0
    for seed in range(50):
        gen = random_net(seed, scale=0.4)
        est = estimate_geometry(gen, 400, seed=seed)
        inst = build_instance(gen, "denoise_l2", noise_level=0.0, seed=seed)
        cfg = AdmmConfig(
            rho=rho, alpha=1.0, beta=beta, sigma0=1e-3, tau_c=1e-300,
            max_iters=250, w_step="exact",
        )
        u = RNG(1000 + seed).standard_normal(2)
        z0 = inst.z_star + 0.5 * u / np.linalg.norm(u)
        captured = {}

        def grab(state, record):
            if "state" not in captured and record.feas_gap <= 1e-3:
                captured["state"] = state

        # run in chunks (the state carries the dual schedule) so instances
        # that reach the target gap early stop there instead of burning the
        # whole 2500-iteration budget
        state = initial_state(inst.problem, cfg, z0)
        for _ in range(10):
            state, _ = run(inst.problem, cfg, state, observer=grab)
            if "state" in captured:
                break
        if "state" not in captured:
            unreached += 1
            continue
        st = captured["state"]
        actual = gd_admm_step_gap(inst.problem.loss, gen, beta, rho, st)
        bound = gd_admm_discrepancy(
            inst.problem.loss, gen, 1.2 * est.kappa_hat, beta, st.sigma, st.w, st.z
        )
        worst_ratio = max(worst_ratio, actual / bound)
    if unreached:
        failures.append(f"{unreached}/50 runs never reached feasibility gap 1e-3")
    if worst_ratio > 1.0:
        failures.append(f"one-step discrepancy {worst_ratio:.3f}x its bound")
    _verdict(
        7, "one-step agreement with gradient descent", failures,
        time.perf_counter() - start, 30.0,
        f"worst discrepancy/bound ratio {worst_ratio:.3f} over 50 instances",
    )


def test_acceptance_08_geometry_estimators():
    start = time.perf_counter()
    failures = []
    rng = RNG(801)
    basis, _ = np.linalg.qr(rng.standard_normal((8, 2)))
    est = estimate_geometry(linear_generator(basis), 500, seed=0)
    if abs(est.iota_hat - 1.0) > 1e-9 or abs(est.kappa_hat - 1.0) > 1e-9:
        failures.append(
            f"orthonormal map: iota {est.iota_hat!r}, kappa {est.kappa_hat!r} not 1"
        )
    if est.nu_g_hat > 1e-9:
        failures.append(f"orthonormal map: curvature {est.nu_g_hat:.2e} above 1e-9")
    est2 = estimate_geometry(linear_generator(2.0 * np.eye(2)), 500, seed=0)
    if abs(est2.iota_hat - 2.0) > 1e-9 or abs(est2.kappa_hat - 2.0) > 1e-9:
        failures.append(
            f"doubling map: iota {est2.iota_hat!r}, kappa {est2.kappa_hat!r} not 2"
        )
    gen = random_net(77)
    sweep = [estimate_geometry(gen, n, seed=5) for n in (100, 400, 1600)]
    for small, big in zip(sweep, sweep[1:]):
        if small.iota_hat < big.iota_hat - 1e-12:
            failures.append("iota estimate grew when extending the sample")
        if small.kappa_hat > big.kappa_hat + 1e-12:
            failures.append("kappa estimate shrank when extending the sample")
        if small.nu_g_hat > big.nu_g_hat + 1e-12:
            failures.append("curvature estimate shrank when extending the sample")
    _verdict(
        8, "geometry estimators on known maps", failures,
        time.perf_counter() - start, 30.0,
        f"orthonormal curvature {est.nu_g_hat:.1e}, "
        f"sweep kappa {sweep[0].kappa_hat:.3f}->{sweep[-1].kappa_hat:.3f}",
    )


def test_acceptance_09_sup_norm_denoising():
    start = time.perf_counter()
    failures = []
    gen, est = _reference_setup()
    inst = build_instance(gen, "denoise_linf", noise_level=0.0, seed=0)
    loss = inst.problem.loss
    rho = 10.0
    nu_l = loss.convexity_constants()[1]
    cfg = AdmmConfig(
        rho=rho, alpha=1.0 / (nu_l + rho), beta=1.0 / (rho * est.kappa_hat**2),
        sigma0=0.2, tau_c=1e-300, max_iters=2000,
    )
    u = RNG(1).standard_normal(2)
    z0 = inst.z_star + 2.0 * u / np.linalg.norm(u)
    init_err = float(np.abs(gen.forward(z0) - inst.w_star).max())
    state, _ = run(inst.problem, cfg, initial_state(inst.problem, cfg, z0))
    admm_err = float(np.abs(state.w - inst.w_star).max())
    gd_cfg = GdConfig(step=cfg.beta, max_iters=2000, grad_tol=1e-300)
    z_gd, _ = run_gd(loss, gen, gd_cfg, z0)
    gd_err = float(np.abs(gen.forward(z_gd) - inst.w_star).max())
    if not admm_err <= init_err / 10.0:
        failures.append(
            f"splitting run only reached {admm_err:.3e} from {init_err:.3e}"
        )
    if not gd_err > init_err / 10.0:
        failures.append(
            f"smooth-only baseline reached {gd_err:.3e}, not a stall"
        )
    _verdict(
        9, "sup-norm denoising beats smooth-only descent", failures,
        time.perf_counter() - start, 60.0,
        f"error {init_err:.2e} -> {admm_err:.2e} (baseline {gd_err:.2e})",
    )


def test_acceptance_10_compare_determinism(tmp_path):
    start = time.perf_counter()
    failures = []
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        rc = cli_main(["compare", str(REFERENCE_INI), "--out-dir", str(out)])
        if rc != 0:
            failures.append(f"compare exited with {rc}")
    names = ("gd_trace.csv", "admm_trace.csv", "eadmm_trace.csv", "summary.csv")
    sizes = []
    for name in names:
        if failures:
            break
        blob_a = (out_a / name).read_bytes()
        blob_b = (out_b / name).read_bytes()
        sizes.append(len(blob_a))
        if not blob_a:
            failures.append(f"{name} is empty")
        if blob_a != blob_b:
            failures.append(f"{name} differs between reruns")
    _verdict(
        10, "compare artifacts are byte-identical", failures,
        time.perf_counter() - start, 60.0,
        f"{len(names)} files, {sum(sizes)} bytes each run",
    )
