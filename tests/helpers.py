"""Shared builders for the test suite."""

import json
import math
from pathlib import Path

import numpy as np

from priorsolve.admm import aug_lagrangian, grad_w_lagrangian, grad_z_lagrangian
from priorsolve.generator import Activation, FeedforwardGenerator, Layer


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
