"""Generator forward/derivative correctness against independent oracles."""

import importlib.util
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REFERENCE_GENERATOR, random_net, with_field, write_generator
from oracles import fd_grad, fd_jacobian, uniform_ball_point
from priorsolve import generator
from priorsolve.generator import (
    DEGENERATE_PAIR_TOL,
    MAX_DRAWS_PER_PAIR,
    Activation,
    FeedforwardGenerator,
    Layer,
    estimate_geometry,
    load_generator,
)

RNG = np.random.default_rng
WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def test_activation_reference_values():
    elu = Activation("elu")
    assert elu.value(np.array([1.0]))[0] == 1.0
    assert elu.value(np.array([0.0]))[0] == 0.0
    assert abs(elu.value(np.array([-1.0]))[0] - (math.exp(-1.0) - 1.0)) < 1e-15
    assert abs(elu.value(np.array([-50.0]))[0] + 1.0) < 1e-15
    sp = Activation("softplus")
    assert abs(sp.value(np.array([0.0]))[0] - math.log(2.0)) < 1e-15
    assert abs(sp.value(np.array([700.0]))[0] - 700.0) < 1e-10
    sig = Activation("sigmoid")
    assert sig.value(np.array([0.0]))[0] == 0.5
    assert abs(sig.value(np.array([-800.0]))[0]) < 1e-300
    ident = Activation("identity")
    np.testing.assert_array_equal(ident.value(np.array([-2.0, 3.0])), [-2.0, 3.0])


def test_activation_derivatives_match_finite_differences():
    xs = np.linspace(-3.0, 3.0, 41)
    for kind in ("identity", "elu", "softplus", "tanh", "sigmoid"):
        act = Activation(kind)
        for x in xs:
            want = fd_grad(lambda v: float(act.value(v)[0]), np.array([x]), h=1e-6)[0]
            got = act.derivative(np.array([x]))[0]
            # 1e-6 rather than tighter: central differences see an O(h) error
            # at the ELU origin, where the second derivative jumps
            assert abs(got - want) < 1e-6, (kind, x)


def test_elu_derivative_with_alpha_matches_finite_differences():
    # elu_alpha = 1 takes a shortcut in derivative; other values do not
    with pytest.warns(UserWarning):
        act = Activation("elu", elu_alpha=2.0)
    for x in (-3.0, -0.5, -1e-3, 1e-3, 0.5, 3.0):
        want = fd_grad(lambda v: float(act.value(v)[0]), np.array([x]), h=1e-6)[0]
        assert abs(act.derivative(np.array([x]))[0] - want) < 1e-6, x


def test_elu_alpha_validation_and_flag():
    with pytest.raises(ValueError):
        Activation("elu", elu_alpha=0.0)
    with pytest.raises(ValueError):
        Activation("elu", elu_alpha=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            Activation("elu", elu_alpha=bad)
    with pytest.warns(UserWarning):
        Activation("elu", elu_alpha=2.0)
    with pytest.raises(ValueError):
        Activation("relu")


def test_linear_identity_forward_is_affine_map():
    w = np.array([[1.0, 2.0], [0.0, -1.0], [3.0, 0.5]])
    b = np.array([0.5, -0.5, 0.0])
    gen = FeedforwardGenerator([Layer(w, b, Activation("identity"))], domain_radius=2.0)
    z = np.array([1.0, -2.0])
    np.testing.assert_allclose(gen.forward(z), w @ z + b, rtol=0, atol=0)


def test_forward_matches_manual_composition():
    gen = random_net(3, kinds=("elu", "sigmoid"))
    rng = RNG(11)
    for _ in range(10):
        z = uniform_ball_point(rng, 2, 3.0)
        x = z
        for layer in gen.layers:
            pre = layer.weight @ x + layer.bias
            if layer.activation.kind == "elu":
                x = np.where(pre > 0, pre, np.exp(np.minimum(pre, 0.0)) - 1.0)
            else:
                x = 1.0 / (1.0 + np.exp(-pre))
        np.testing.assert_allclose(gen.forward(z), x, rtol=1e-14, atol=1e-14)


def test_jacobian_matches_finite_differences():
    cases = [
        random_net(0, kinds=("tanh", "tanh")),
        random_net(1, kinds=("elu", "identity")),
        random_net(2, kinds=("softplus", "sigmoid")),
        random_net(4, sizes=(3, 3, 4, 6), kinds=("tanh", "elu", "identity")),
    ]
    rng = RNG(5)
    for gen in cases:
        for _ in range(8):
            z = uniform_ball_point(rng, gen.input_dim, gen.domain_radius)
            want = fd_jacobian(gen.forward, z, h=1e-5)
            got = gen.jacobian(z)
            err = np.abs(got - want).max() / (1.0 + np.abs(want).max())
            assert err < 1e-6, gen


def test_vjp_matches_dense_jacobian_transpose():
    rng = RNG(17)
    for seed in range(10):
        gen = random_net(seed, kinds=("elu", "tanh"))
        for _ in range(10):
            z = uniform_ball_point(rng, gen.input_dim, gen.domain_radius)
            u = rng.standard_normal(gen.output_dim)
            want = gen.jacobian(z).T @ u
            got = gen.vjp(z, u)
            assert np.abs(got - want).max() <= 1e-12


def test_tape_is_checked_against_point_and_generator():
    gen = random_net(18, kinds=("elu", "tanh"))
    other = random_net(19, kinds=("elu", "tanh"))
    z = np.array([0.3, -0.4])
    u = np.ones(gen.output_dim)
    tape = gen.forward(z, return_tape=True)
    assert tape.z is z and len(tape.preacts) == len(gen.layers)
    # an equal copy of z is the same point
    np.testing.assert_array_equal(gen.vjp(z.copy(), u, tape=tape), gen.vjp(z, u))
    with pytest.raises(ValueError, match="different latent point"):
        gen.vjp(z + 1e-9, u, tape=tape)
    with pytest.raises(ValueError, match="different latent point"):
        gen.jacobian(np.zeros(3), tape=tape)
    with pytest.raises(ValueError, match="different generator"):
        other.vjp(z, u, tape=tape)
    with pytest.raises(ValueError, match="cotangent"):
        gen.vjp(z, np.ones(3), tape=tape)
    v = np.array([1.0, 2.0])
    np.testing.assert_array_equal(gen.jvp(z.copy(), v, tape=tape), gen.jvp(z, v))
    with pytest.raises(ValueError, match="different latent point"):
        gen.jvp(z + 1e-9, v, tape=tape)
    with pytest.raises(ValueError, match="different generator"):
        other.jvp(z, v, tape=tape)
    with pytest.raises(ValueError, match="tangent"):
        gen.jvp(z, u, tape=tape)


def test_constructor_rejects_bad_shapes():
    act = Activation("identity")
    with pytest.raises(ValueError):
        # shrinking layer sizes
        FeedforwardGenerator(
            [Layer(np.eye(3), np.zeros(3), act),
             Layer(np.ones((2, 3)), np.zeros(2), act)],
            domain_radius=1.0,
        )
    with pytest.raises(ValueError):
        # input mismatch between layers
        FeedforwardGenerator(
            [Layer(np.ones((3, 2)), np.zeros(3), act),
             Layer(np.ones((4, 2)), np.zeros(4), act)],
            domain_radius=1.0,
        )
    with pytest.raises(ValueError):
        FeedforwardGenerator([Layer(np.eye(2), np.zeros(2), act)], domain_radius=0.0)
    with pytest.raises(ValueError):
        FeedforwardGenerator([Layer(np.eye(2), np.zeros(3), act)], domain_radius=1.0)


def test_layer_rejects_non_finite_or_empty_parameters():
    act = Activation("identity")
    w, b = np.eye(3, 2), np.zeros(3)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            Layer(np.where(w == 1.0, bad, w), b, act)
        with pytest.raises(ValueError, match="finite"):
            Layer(w, np.full(3, bad), act)
    with pytest.raises(ValueError, match="non-empty"):
        Layer(np.zeros((3, 0)), b, act)


def test_constructor_rejects_rank_deficient_weight():
    act = Activation("identity")
    w = np.ones((4, 2))  # duplicated columns
    w[:, 1] = w[:, 0]
    with pytest.raises(ValueError):
        FeedforwardGenerator([Layer(w, np.zeros(4), act)], domain_radius=1.0)


def test_geometry_orthonormal_columns_is_isometry():
    rng = RNG(0)
    q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    gen = FeedforwardGenerator(
        [Layer(q, np.zeros(8), Activation("identity"))], domain_radius=2.0
    )
    est = estimate_geometry(gen, n_pairs=500, seed=1)
    assert abs(est.iota_hat - 1.0) <= 1e-9
    assert abs(est.kappa_hat - 1.0) <= 1e-9
    assert est.nu_g_hat <= 1e-12


def test_geometry_scaled_identity():
    gen = FeedforwardGenerator(
        [Layer(2.0 * np.eye(3), np.zeros(3), Activation("identity"))],
        domain_radius=1.5,
    )
    est = estimate_geometry(gen, n_pairs=300, seed=7)
    assert abs(est.iota_hat - 2.0) <= 1e-9
    assert abs(est.kappa_hat - 2.0) <= 1e-9
    assert est.nu_g_hat <= 1e-12


def test_geometry_rejects_a_ball_too_small_for_any_pair():
    # in a ball of diameter <= DEGENERATE_PAIR_TOL every pair is degenerate,
    # so drawing pairs would never end
    layer = Layer(np.eye(3, 2), np.zeros(3), Activation("identity"))
    for radius in (1e-13, DEGENERATE_PAIR_TOL / 2):
        gen = FeedforwardGenerator([layer], domain_radius=radius)
        with pytest.raises(ValueError, match="holds no non-degenerate pair"):
            estimate_geometry(gen, n_pairs=5, seed=0)
    # a diameter of twice the tolerance leaves room for pairs
    gen = FeedforwardGenerator([layer], domain_radius=DEGENERATE_PAIR_TOL)
    assert estimate_geometry(gen, n_pairs=5, seed=0).n_pairs == 5


def test_geometry_gives_up_on_a_ball_that_rarely_yields_a_pair():
    # a diameter just above DEGENERATE_PAIR_TOL holds non-degenerate pairs,
    # but draws them almost never; the estimate stops after a bounded number
    # of draws instead of spinning
    layer = Layer(np.eye(3, 2), np.zeros(3), Activation("identity"))
    gen = FeedforwardGenerator([layer], domain_radius=5.0001e-13)
    draws = MAX_DRAWS_PER_PAIR * 5
    with pytest.raises(ValueError, match=f"of 5 non-degenerate pairs in {draws} draws"):
        estimate_geometry(gen, n_pairs=5, seed=0)


def test_geometry_orders_and_provenance():
    gen = random_net(9)
    est = estimate_geometry(gen, n_pairs=200, seed=3)
    assert 0.0 < est.iota_hat <= est.kappa_hat
    assert est.nu_g_hat >= 0.0
    assert est.n_pairs == 200
    assert est.domain_radius == gen.domain_radius
    # deterministic for fixed seed
    again = estimate_geometry(gen, n_pairs=200, seed=3)
    assert est == again


def test_geometry_monotone_under_sample_extension():
    gen = random_net(21)
    ests = [estimate_geometry(gen, n_pairs=n, seed=13) for n in (50, 100, 200, 400)]
    for a, b in zip(ests, ests[1:]):
        assert b.iota_hat <= a.iota_hat
        assert b.kappa_hat >= a.kappa_hat
        assert b.nu_g_hat >= a.nu_g_hat


def test_geometry_blocks_keep_nan_and_inf_extremes(monkeypatch):
    # with weights 2e306 on a radius-100 ball ||G(z2) - G(z1)||^2 overflows
    # for some pairs (ratio inf) but not for others (ratio 0: ELU saturates
    # at -1 on both points), and a later pair's remainder is inf - inf = nan.
    # One-pair blocks reduce the extremes as one batch does: nan wins over
    # an earlier inf, where max(inf, nan) would keep the inf
    layer = Layer(2e306 * np.eye(2), np.zeros(2), Activation("elu"))
    gen = FeedforwardGenerator([layer], domain_radius=100.0)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = estimate_geometry(gen, n_pairs=10, seed=0)
        monkeypatch.setattr(generator, "_BLOCK_ELEMENTS", 1)
        blocked = estimate_geometry(gen, n_pairs=10, seed=0)
    assert (whole.iota_hat, whole.kappa_hat) == (0.0, math.inf)
    assert math.isnan(whole.nu_g_hat)
    assert repr(blocked) == repr(whole)


def test_geometry_memory_does_not_grow_with_the_pair_count(tmp_path):
    # the benchmark's 20 -> 256 -> 784 generator: one batch of 2000 pairs
    # peaked at 97 MiB, blocks of 41 pairs at under 4 MiB
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    path = tmp_path / "cs.json"
    path.write_text(json.dumps(workloads.cs_generator_doc(1)))
    gen = load_generator(path)
    tracemalloc.start()
    try:
        estimate_geometry(gen, n_pairs=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_geometry_stabilizes_when_samples_double():
    gen = random_net(36, kinds=("elu", "elu"))
    a = estimate_geometry(gen, n_pairs=5000, seed=3)
    b = estimate_geometry(gen, n_pairs=10000, seed=3)
    assert abs(b.iota_hat - a.iota_hat) / a.iota_hat < 0.05
    assert abs(b.kappa_hat - a.kappa_hat) / a.kappa_hat < 0.05
    assert abs(b.nu_g_hat - a.nu_g_hat) / a.nu_g_hat < 0.05


def test_geometry_remainder_bound_on_fresh_pairs():
    gen = random_net(33, kinds=("elu", "elu"))
    est = estimate_geometry(gen, n_pairs=4000, seed=2)
    rng = RNG(99)
    for _ in range(1000):
        z1 = uniform_ball_point(rng, 2, gen.domain_radius)
        z2 = uniform_ball_point(rng, 2, gen.domain_radius)
        diff = z2 - z1
        if np.linalg.norm(diff) < 1e-12:
            continue
        rem = gen.forward(z2) - gen.forward(z1) - gen.jacobian(z1) @ diff
        cap = 0.5 * (1.2 * est.nu_g_hat) * np.linalg.norm(diff) ** 2
        assert np.linalg.norm(rem) <= cap


def test_generator_file_round_trip(tmp_path):
    # a generator written with explicit weights loads back bit for bit
    gen, path = write_generator(tmp_path, random_net(50, kinds=("elu", "sigmoid")))
    back = load_generator(path)
    assert back.domain_radius == gen.domain_radius
    for la, lb in zip(gen.layers, back.layers, strict=True):
        assert la.weight.tobytes() == lb.weight.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()
        assert la.activation == lb.activation


def test_generator_seeded_init_is_deterministic(tmp_path):
    cfg = """{
  "schema": 1,
  "input_dim": 2,
  "domain_radius": 3.0,
  "layers": [
    {"activation": "elu", "bias": true,
     "init": {"kind": "uniform", "rows": 5, "cols": 2, "seed": 7, "scale": 0.8}},
    {"activation": "identity", "bias": false,
     "init": {"kind": "orthonormal", "rows": 8, "cols": 5, "seed": 9, "scale": 1.0}}
  ]
}
"""
    path = tmp_path / "gen.json"
    path.write_text(cfg)
    a = load_generator(path)
    b = load_generator(path)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.bias, lb.bias)
    # orthonormal init gives exactly orthonormal columns (up to rounding)
    w = a.layers[1].weight
    np.testing.assert_allclose(w.T @ w, np.eye(5), atol=1e-12)
    assert np.array_equal(a.layers[1].bias, np.zeros(8))
    assert a.layers[0].bias.any()


def test_generator_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(
        '{"schema": 1, "input_dim": 1, "domain_radius": 1.0, "frobnicate": 2,'
        ' "layers": [{"activation": "identity",'
        ' "weights": [[1.0]], "bias_values": [0.0]}]}'
    )
    with pytest.raises(ValueError):
        load_generator(path)


REFERENCE_DOC = json.loads(REFERENCE_GENERATOR.read_text())
# every field of the reference description, as a path of keys into it
REFERENCE_FIELDS = [(key,) for key in REFERENCE_DOC] + [
    ("layers", i, key)
    for i, layer in enumerate(REFERENCE_DOC["layers"])
    for key in layer
]
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def scratch_json(tmp_path_factory):
    return tmp_path_factory.mktemp("generator_fields") / "gen.json"


@pytest.mark.filterwarnings("ignore:ELU with elu_alpha")
@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(REFERENCE_FIELDS), value=json_values)
def test_any_json_value_in_any_field_loads_or_raises_value_error(
    scratch_json, field, value
):
    """null, bools, numbers (NaN and +-Infinity included), strings, lists and
    objects in place of one field of the reference description: the file
    either loads or raises ValueError, never another exception."""
    scratch_json.write_text(json.dumps(with_field(REFERENCE_DOC, field, value)))
    try:
        gen = load_generator(scratch_json)
    except ValueError:
        return
    assert isinstance(gen, FeedforwardGenerator)
