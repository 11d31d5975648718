"""Feedforward generator networks and their first-order geometry.

A generator G maps a low-dimensional latent vector z (inside a Euclidean
ball) to an output vector of higher dimension through a stack of affine
layers with elementwise activations, each kind strictly increasing and C1
as the Proposition asks of G.  Besides evaluation, this module provides
the dense Jacobian, vector-Jacobian products for reverse-mode gradients,
Jacobian-vector products for forward-mode directional derivatives, sampled
estimates of the near-isometry constants

    iota * ||z' - z|| <= ||G(z') - G(z)|| <= kappa * ||z' - z||

and of the strong-smoothness constant nu bounding the linearization
remainder ||G(z') - G(z) - DG(z)(z' - z)|| <= (nu / 2) * ||z' - z||^2,
plus a JSON description format whose key lists are each stated once, in the
_fields call that checks them.  A geometry estimate draws its points one at
a time (only the random draws and each radial scalar), then tests their
norms (refusing one too short to normalize), scales them and takes the pair
distances over all at once.  It evaluates the pairs in blocks, one batched
forward pass and one batched JVP per block, sized so that no block array
holds more than about _BLOCK_ELEMENTS values: its memory beyond the drawn
pairs stays bounded as the pair count grows.
"""

import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Activation",
    "Layer",
    "FeedforwardGenerator",
    "GeometryEstimate",
    "estimate_geometry",
    "load_generator",
]

# relative cutoff below which a singular value counts as zero: weight
# matrices must clear it, and least-squares losses use it for strong convexity
RANK_TOL = 1e-10

# pairs closer than this are redrawn when sampling difference quotients
DEGENERATE_PAIR_TOL = 1e-12
# one estimate gives up once it has drawn this many candidates per pair
MAX_DRAWS_PER_PAIR = 100
# a geometry estimate evaluates its pairs in blocks whose widest array holds
# about this many values (512 KiB of float64)
_BLOCK_ELEMENTS = 1 << 16


def _sigmoid(x):
    # tanh form is overflow-free on both tails
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# each kind's (value, derivative) on a float array; ELU's alpha is 1, where
# exp(min(x, 0)) is its derivative on both sides of 0
_ACTIVATIONS = {
    "identity": (np.copy, np.ones_like),
    "elu": (lambda x: np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0))),
            lambda x: np.exp(np.minimum(x, 0.0))),
    "softplus": (lambda x: np.logaddexp(0.0, x), _sigmoid),
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
    "sigmoid": (_sigmoid, lambda x: (s := _sigmoid(x)) * (1.0 - s)),
}
ACTIVATION_KINDS = tuple(_ACTIVATIONS)


@dataclass(frozen=True)
class Activation:
    """Elementwise activation of one of the ACTIVATION_KINDS, each strictly
    increasing and C1 (ELU with alpha = 1, the one alpha at which its
    derivative is continuous at 0)."""

    kind: str

    def __post_init__(self):
        # a tuple test, so an unhashable kind (a JSON list) is a ValueError too
        if self.kind not in ACTIVATION_KINDS:
            raise ValueError(
                f"unknown activation {self.kind!r}; expected one of {ACTIVATION_KINDS}"
            )

    def value(self, x):
        return _ACTIVATIONS[self.kind][0](np.asarray(x, dtype=float))

    def derivative(self, x):
        return _ACTIVATIONS[self.kind][1](np.asarray(x, dtype=float))


@dataclass(frozen=True, eq=False)
class Layer:
    """One affine layer x -> act(W x + b)."""

    weight: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        if w.ndim != 2 or not w.size or not np.isfinite(w).all():
            raise ValueError("layer weight must be a finite non-empty matrix")
        if b.shape != (w.shape[0],) or not np.isfinite(b).all():
            raise ValueError(f"bias must hold {w.shape[0]} finite values, one per row")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


class Tape(NamedTuple):
    """Record of one forward pass: the latent input z, the output G(z) and
    the pre-activation of every layer, for the generator whose layers these
    are.  For a batch z of shape (B, input_dim) every array carries the same
    leading batch axis.  vjp, jvp and jacobian take it as the point they
    differentiate at."""

    z: np.ndarray
    output: np.ndarray
    preacts: tuple
    layers: tuple


class FeedforwardGenerator:
    """Stack of affine-plus-activation layers with non-decreasing widths.

    One forward pass costs one matvec per layer.  forward(z, return_tape=True)
    returns the pass as a Tape, and vjp, jvp and jacobian take that tape as
    the point z they differentiate at, so a solver that keeps the tape of
    its current point pays one forward and one backward pass per gradient.

    forward, vjp and jvp also take a batch: z of shape (B, input_dim), or
    its tape with a cotangent of shape (B, output_dim) or a tangent of shape
    (B, input_dim), gives one row per latent, through the same code (every
    layer acts on the last axis, so a batch pass costs one matrix product
    per layer).  jacobian takes the tape of a single latent only.

    Parameters
    ----------
    layers : sequence of Layer
        Applied in order.  Widths must be non-decreasing, and every weight
        matrix must have full column rank (sigma_min > RANK_TOL sigma_max).
    domain_radius : float
        Radius of the Euclidean ball the latent input is assumed to live in.
        Geometry estimates sample from this ball.
    """

    def __init__(self, layers, domain_radius):
        layers = tuple(layers)
        if not layers:
            raise ValueError("generator needs at least one layer")
        if not (np.isfinite(domain_radius) and domain_radius > 0.0):
            raise ValueError("domain_radius must be positive and finite")
        for i, layer in enumerate(layers):
            rows, cols = layer.weight.shape
            if rows < cols:
                raise ValueError(
                    f"layer {i} shrinks width {cols} -> {rows}; widths must be "
                    "non-decreasing"
                )
            if i > 0 and cols != layers[i - 1].weight.shape[0]:
                raise ValueError(
                    f"layer {i} expects input width {cols} but layer {i - 1} "
                    f"produces {layers[i - 1].weight.shape[0]}"
                )
            s = np.linalg.svd(layer.weight, compute_uv=False)
            if not math.isfinite(s[0]):  # the ratio below would read 0
                raise ValueError(f"layer {i} weight's largest singular value "
                                 "overflows")
            if s[-1] <= RANK_TOL * s[0]:
                raise ValueError(
                    f"layer {i} weight is rank deficient "
                    f"(sigma_min/sigma_max = {s[-1] / max(s[0], 1e-300):.3e})"
                )
        self.layers = layers
        self.domain_radius = float(domain_radius)

    @property
    def input_dim(self):
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self):
        return self.layers[-1].weight.shape[0]

    def _forward_trace(self, z):
        z = x = np.asarray(z, dtype=float)
        if z.ndim not in (1, 2) or z.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected input of shape ({self.input_dim},) or (B, {self.input_dim})"
            )
        preacts = []
        for layer in self.layers:
            a = x @ layer.weight.T + layer.bias
            preacts.append(a)
            x = layer.activation.value(a)
        return Tape(z, x, tuple(preacts), self.layers)

    def _check_tape(self, tape):
        if tape.layers is not self.layers:
            raise ValueError("tape was recorded by a different generator")

    def forward(self, z, return_tape=False):
        """Evaluate G(z), row by row for a batch of latents; with
        return_tape, the whole pass as a Tape (whose output is G(z))."""
        tape = self._forward_trace(z)
        return tape if return_tape else tape.output

    def jacobian(self, tape):
        """Dense Jacobian DG(z), shape (output_dim, input_dim), at the single
        latent z whose tape forward(z, return_tape=True) recorded."""
        self._check_tape(tape)
        if tape.z.ndim != 1:
            raise ValueError("jacobian takes a single latent, not a batch")
        jac = None
        for layer, a in zip(self.layers, tape.preacts):
            step = layer.activation.derivative(a)[:, None] * layer.weight
            jac = step if jac is None else step @ jac
        return jac

    def vjp(self, tape, u):
        """Vector-Jacobian product DG(z)^T u in one backward pass over the
        tape of z.  For a batch of latents, u holds one cotangent per row."""
        self._check_tape(tape)
        u = np.asarray(u, dtype=float)
        expected = tape.z.shape[:-1] + (self.output_dim,)
        if u.shape != expected:
            raise ValueError(f"expected cotangent of shape {expected}")
        v = u
        for layer, a in zip(reversed(self.layers), reversed(tape.preacts)):
            v = (layer.activation.derivative(a) * v) @ layer.weight
        return v

    def jvp(self, tape, v):
        """Jacobian-vector product DG(z) v in one forward-mode pass over the
        pre-activations on the tape of z.  For a batch of latents, v holds
        one tangent per row."""
        self._check_tape(tape)
        v = np.asarray(v, dtype=float)
        if v.shape != tape.z.shape:
            raise ValueError(f"expected tangent of shape {tape.z.shape}")
        for layer, a in zip(self.layers, tape.preacts):
            v = layer.activation.derivative(a) * (v @ layer.weight.T)
        return v


@dataclass(frozen=True)
class GeometryEstimate:
    """Sampled geometric constants of a generator over its domain ball.

    iota_hat / kappa_hat are the extreme observed difference quotients
    ||G(z') - G(z)|| / ||z' - z||; nu_g_hat is the largest observed
    2 ||remainder|| / ||z' - z||^2.  All are sample extremes, not certified
    bounds: iota_hat can only shrink and kappa_hat / nu_g_hat can only grow
    as more pairs are added to the same stream.
    """

    iota_hat: float
    kappa_hat: float
    nu_g_hat: float
    n_pairs: int
    seed: int
    domain_radius: float


def _norm(v):
    """Euclidean norm of a 1-D vector.  np.linalg.norm computes the same
    sqrt(v . v) on a 1-D vector but spends microseconds dispatching first."""
    return math.sqrt(v.dot(v))


def _draw_pairs(rng, dim, radius, count):
    """count candidate pairs from rng's stream, shape (count, 2, dim), and
    their distances.  The loop keeps only the draws and each point's radial
    scalar; the norm test, normalizing and scaling (in one point's order of
    roundings) and the distances run once over all points.  A direction of
    norm below 1e-30 (probability ~1e-60 per point) or a count beyond what
    numpy allocates raises ValueError."""
    try:
        pairs, scale = np.empty((count, 2, dim)), np.empty(2 * count)
    except MemoryError as exc:
        raise ValueError(f"cannot draw {count} geometry pairs: {exc}") from None
    root = 1.0 / dim
    # rng.random() is the draw that rng.uniform() scales by 1 and shifts by 0
    normal, uniform, points = rng.standard_normal, rng.random, pairs.reshape(-1, dim)
    # stream order: z1 then z2 of pair 0, then of pair 1, ...
    for k, v in enumerate(points):
        normal(out=v)
        scale[k] = radius * uniform() ** root
    norms = np.sqrt(np.vecdot(pairs, pairs))
    if (norms < 1e-30).any():
        raise ValueError("drew a direction too short to normalize")
    pairs /= norms[..., None]
    pairs *= scale.reshape(count, 2, 1)
    diff = pairs[:, 1] - pairs[:, 0]
    return pairs, np.sqrt(np.vecdot(diff, diff))


def estimate_geometry(gen, n_pairs, seed):
    """Estimate (iota, kappa, nu) from seeded pairs in the domain ball.

    Pairs are drawn sequentially from one generator stream, so estimates
    with a larger n_pairs and the same seed extend the smaller sample and
    are monotone in it.  Degenerate pairs (distance below
    DEGENERATE_PAIR_TOL) are dropped and more are drawn until n_pairs
    remain; a ball too small to hold a non-degenerate pair, or one that
    yields too few of them in MAX_DRAWS_PER_PAIR * n_pairs draws, raises
    ValueError, as do an n_pairs too large to allocate and a drawn direction
    too short to normalize.  The pairs are then evaluated in blocks of at
    most _BLOCK_ELEMENTS / (2 output_dim) pairs (at least one): one batched
    forward pass over a block's points, and one batched JVP on its tape, z2
    rows with a zero tangent, for the linearizations DG(z1)(z2 - z1); no
    Jacobian is formed, and every pair's bits are the same for any block size.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be at least 1")
    dim, radius = gen.input_dim, gen.domain_radius
    if 2.0 * radius <= DEGENERATE_PAIR_TOL:
        raise ValueError(f"domain_radius {radius!r} holds no non-degenerate pair")
    rng = np.random.default_rng(seed)
    pairs, dists = _draw_pairs(rng, dim, radius, n_pairs)
    drawn = n_pairs
    while not (keep := dists >= DEGENERATE_PAIR_TOL).all():
        missing = n_pairs - int(keep.sum())
        if drawn >= MAX_DRAWS_PER_PAIR * n_pairs:
            raise ValueError(f"domain_radius {radius!r} gave {n_pairs - missing} "
                             f"of {n_pairs} non-degenerate pairs in {drawn} draws")
        # degenerate pairs are dropped and replaced from the stream, so the
        # kept pairs are its first n_pairs non-degenerate ones
        more, more_dists = _draw_pairs(rng, dim, radius, missing)
        drawn += missing
        pairs = np.concatenate((pairs[keep], more))
        dists = np.concatenate((dists[keep], more_dists))
    # pairs [lo, lo + b) form a block: rows [0, b) of its points hold z1 and
    # rows [b, 2b) z2 of the same pair.  Widths never shrink, so no block
    # array exceeds about _BLOCK_ELEMENTS values, whatever n_pairs is
    block = max(1, _BLOCK_ELEMENTS // (2 * gen.output_dim))
    ratios, curvatures = np.empty(n_pairs), np.empty(n_pairs)
    for lo in range(0, n_pairs, block):
        part, d = pairs[lo:lo + block], dists[lo:lo + block]
        b = len(part)
        points = np.concatenate((part[:, 0], part[:, 1]))
        tape = gen.forward(points, return_tape=True)
        out = tape.output
        dg = out[b:] - out[:b]
        ratios[lo:lo + b] = np.sqrt(np.vecdot(dg, dg)) / d
        # 2b >= 2 rows: BLAS rounds a one-row product (gemv) differently, so
        # the z2 rows keep every pair's bits the same for every block size
        steps = np.zeros_like(points)
        steps[:b] = points[b:] - points[:b]
        rem = dg - gen.jvp(tape, steps)[:b]
        curvatures[lo:lo + b] = 2.0 * np.sqrt(np.vecdot(rem, rem)) / d**2
    return GeometryEstimate(
        iota_hat=float(ratios.min()),
        kappa_hat=float(ratios.max()),
        nu_g_hat=float(curvatures.max()),
        n_pairs=n_pairs,
        seed=seed,
        domain_radius=radius,
    )


# ---------------------------------------------------------------------------
# JSON description files


def _fields(doc, where, required, optional=()):
    """doc, once it is a JSON object with every required key and no key
    outside required and optional."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    if extra := set(doc).difference(required, optional):
        raise ValueError(f"unknown key(s) {sorted(extra)} in {where}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{where} is missing {key!r}")
    return doc


def _number(value, where, kind=float):
    if type(value) not in (int, kind) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{where} is not a finite {kind.__name__}")
    return kind(value)


def _materialize_layer(doc, index):
    if isinstance(doc, dict) and ("init" in doc) == ("weights" in doc):
        raise ValueError(f"layer {index} needs exactly one of 'init' or 'weights'")
    # each form has its own keys: an explicit layer its bias values, a
    # seeded one the switch for its drawn bias
    explicit = isinstance(doc, dict) and "weights" in doc
    form, bias = ("weights", "bias_values") if explicit else ("init", "bias")
    doc = _fields(doc, f"layer {index}", ("activation", form), ("elu_alpha", bias))
    alpha = doc.get("elu_alpha", 1)
    if type(alpha) not in (int, float) or alpha != 1:  # ELU is C1 only at 1
        raise ValueError(f"layer {index}: 'elu_alpha' must be 1, where ELU is C1")
    act = Activation(doc["activation"])
    if explicit:
        try:
            w = np.asarray(doc["weights"], dtype=float)
            b = np.asarray(doc.get("bias_values", np.zeros(w.shape[:1])), dtype=float)
        except TypeError as exc:  # a JSON object among the numbers
            raise ValueError(f"layer {index}: {exc}") from None
        return Layer(w, b, act)
    init = _fields(doc["init"], f"layer {index} init", ("kind", "rows", "cols", "seed"),
                   ("scale",))
    rows, cols, seed = (_number(init[key], f"layer {index} init {key!r}", int)
                        for key in ("rows", "cols", "seed"))
    scale = _number(init.get("scale", 1.0), f"layer {index} init 'scale'")
    kind = init["kind"]
    if kind not in ("uniform", "orthonormal"):
        raise ValueError(f"layer {index}: unknown init kind {kind!r}")
    if kind == "orthonormal" and rows < cols:
        raise ValueError(f"layer {index}: orthonormal init needs rows >= cols")
    use_bias = doc.get("bias", True)
    if not isinstance(use_bias, bool):
        raise ValueError(f"layer {index}: 'bias' must be a boolean")
    # the seed, the shape or the scale can still be beyond what numpy draws
    try:
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            w = rng.uniform(-scale, scale, size=(rows, cols)) / math.sqrt(cols)
        else:
            q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
            w = scale * (q * np.sign(np.diag(r)))
        b = rng.uniform(-scale, scale, size=rows) if use_bias else np.zeros(rows)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ValueError(f"layer {index}: cannot draw its {kind} init: {exc}") from None
    return Layer(w, b, act)


def load_generator(path):
    """Load a generator from a JSON description; malformed ones raise ValueError."""
    with open(path) as fh:
        doc = _fields(json.load(fh), "generator file",
                      ("schema", "input_dim", "domain_radius", "layers"))
    if doc["schema"] != 1:
        raise ValueError(f"unsupported generator schema {doc['schema']!r}")
    if not isinstance(doc["layers"], list):
        raise ValueError("'layers' is not a list")
    layers = [_materialize_layer(d, i) for i, d in enumerate(doc["layers"])]
    gen = FeedforwardGenerator(layers, _number(doc["domain_radius"], "'domain_radius'"))
    if gen.input_dim != _number(doc["input_dim"], "'input_dim'", int):
        raise ValueError(f"declared input_dim {doc['input_dim']} does not match "
                         f"layers ({gen.input_dim})")
    return gen
