"""Shared builders for the test suite."""

import json
import math
from pathlib import Path

import numpy as np

from priorsolve.admm import aug_lagrangian, grad_w_lagrangian, grad_z_lagrangian
from priorsolve.gd import grad_h
from priorsolve.generator import Activation, FeedforwardGenerator, Layer, _norm


def random_net(seed, sizes=(2, 5, 8), kinds=("elu", "tanh"), scale=1.0, radius=3.0):
    """Explicit random layers, built without the library's init machinery."""
    rng = np.random.default_rng(seed)
    layers = []
    for (cin, cout), kind in zip(zip(sizes, sizes[1:]), kinds):
        w = scale * rng.standard_normal((cout, cin)) / math.sqrt(cin)
        b = 0.1 * rng.standard_normal(cout)
        layers.append(Layer(w, b, Activation(kind)))
    return FeedforwardGenerator(layers, domain_radius=radius)


REFERENCE_GENERATOR = (
    Path(__file__).resolve().parent.parent / "configs" / "reference_generator.json"
)


def write_generator(tmp_path, gen=None, name="gen.json", seed=5, **kw):
    """Write gen (by default random_net(seed, **kw)) to tmp_path / name as
    an explicit-weights JSON description, which load_generator reads back
    bit for bit; returns (gen, path)."""
    if gen is None:
        gen = random_net(seed=seed, **kw)
    layers = [
        {
            "activation": layer.activation.kind,
            "elu_alpha": layer.activation.elu_alpha,
            "weights": layer.weight.tolist(),
            "bias_values": layer.bias.tolist(),
        }
        for layer in gen.layers
    ]
    doc = {"schema": 1, "input_dim": gen.input_dim,
           "domain_radius": gen.domain_radius, "layers": layers}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return gen, path


def with_field(doc, path, value):
    """A copy of the JSON document doc with the field at path (its keys and
    list indices, outermost first) set to value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def linear_generator(w, radius=2.0):
    """Single identity-activation layer around an explicit matrix."""
    w = np.asarray(w, dtype=float)
    return FeedforwardGenerator(
        [Layer(w, np.zeros(w.shape[0]), Activation("identity"))],
        domain_radius=radius,
    )


def lagrangian_at(loss, gen, w, z, lam, rho):
    """AL(w, z, lam) at the point (w, z), through the library formula."""
    resid = np.asarray(w, dtype=float) - gen.forward(z)
    return aug_lagrangian(loss.value(w), lam, resid, np.linalg.norm(resid), rho)


def lagrangian_grads(loss, gen, w, z, lam, rho):
    """(grad_w AL, grad_z AL) at the point (w, z), through the library
    formulas."""
    tape = gen.forward(z, return_tape=True)
    resid = np.asarray(w, dtype=float) - tape.output
    return (
        grad_w_lagrangian(loss.grad(w), lam, resid, rho),
        grad_z_lagrangian(gen, tape, lam, resid, rho),
    )


# After an exact w minimization and the following dual update, one ADMM
# z-step and one GD step from the same latent point differ by at most
#
#     beta * (sigma_t * kappa_G + nu_L) * ||w_t - G(z_t)||,
#
# so the two algorithms coincide as the splitting becomes feasible;
# gd_admm_discrepancy evaluates that bound and gd_admm_step_gap the actual
# one-step difference.


def gd_admm_discrepancy(loss, gen, kappa_hat, beta, sigma_t, w, z):
    """Bound beta (sigma_t kappa_hat + nu_L) ||w - G(z)|| on the one-step
    difference between the ADMM z-update and a GD step (see the comment
    above for when it applies)."""
    nu = loss.convexity_constants()[1]
    gap = _norm(np.asarray(w, dtype=float) - gen.forward(z))
    return beta * (sigma_t * kappa_hat + nu) * gap


def gd_admm_step_gap(loss, gen, beta, rho, state):
    """Actual ||z_admm - z_gd|| after one ADMM z-step (no z-penalty) and
    one GD step of size beta from state.z."""
    tape = gen.forward(state.z, return_tape=True)
    resid = state.w - tape.output
    z_admm = state.z - beta * grad_z_lagrangian(gen, tape, state.lam, resid, rho)
    z_gd = state.z - beta * grad_h(loss, gen, state.z, tape)
    return _norm(z_admm - z_gd)
