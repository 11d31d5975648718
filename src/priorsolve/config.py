"""INI run configurations for the command-line driver.

A config file has sections [problem], [generator], [algorithm], and
optionally [output].  Any other section or key is an error, as is a key that
another problem kind takes, a float that is not finite (nan, inf), a value
outside the range below, a missing required key, or max_iters with eadmm.

[problem]
  kind               denoise_l2 | denoise_linf | compressive_sensing (required)
  noise_level        nonnegative float, default 0
  seed               nonnegative integer, default 0
  measurement_ratio  float in (0, 1], compressive_sensing only, default 0.5
  gamma              positive float, denoise_linf only, default 0.01
  linf_weight        positive float, denoise_linf only, default 1.0

[generator]
  file               generator JSON; relative paths resolve against the
                     directory holding the config file

[algorithm]
  method             gd | admm | eadmm (required for `run`)
  rho                positive float (required unless method = gd)
  sigma0             positive float, default 0.2
  tau_c              positive float, default 1e-12
  max_iters          positive integer (gd / admm; an error with eadmm)
  alpha, beta        positive floats; when omitted, alpha = 1/nu_L (loss
                     smoothness) while rho < nu_L, else 1/(nu_L + rho), and
                     beta = 1/(rho kappa_hat^2) from the estimated geometry
  geometry_pairs     integer >= 2, default 2000 (used when a step is omitted)
  stages             positive integer (required for eadmm)
  stage_iters        positive integer (required for eadmm)
  step               positive float, gd step size (required for method = gd)
  grad_tol           positive float, default 1e-9

[output]
  trace_file         trace CSV path (optional; relative to the working dir)
  summary_file       summary CSV path (optional)
  zero_wall          boolean, default false

`compare` runs all three solvers from one file, so it ignores method (the
key may still be present) and requires rho, max_iters, stages and
stage_iters.  It fills a missing gd step with 1/(nu_L kappa_hat^2), the
1/Lipschitz step of L(G(z)) when G bends little, from the same geometry
estimate as beta; gd is stable below about 2/(nu_L kappa_hat^2), whatever
rho is.  configs/reference.ini without its step (0.456 there) converges in
955 iterations.
"""

import configparser
import dataclasses
import math
import os

from .admm import AdmmConfig, MultiscaleSchedule, suggest_step_sizes
from .gd import GdConfig
from .generator import estimate_geometry, load_generator
from .harness import INSTANCE_KINDS, build_instance

__all__ = ["ConfigError", "RunSettings", "parse_config", "load_problem"]

METHODS = ("gd", "admm", "eadmm")

# [problem] keys that only one kind accepts
_KIND_KEYS = {
    "gamma": "denoise_linf",
    "linf_weight": "denoise_linf",
    "measurement_ratio": "compressive_sensing",
}

# [algorithm] keys that must be given, by command (compare) or method (run)
_REQUIRED = {
    "compare": ("rho", "max_iters", "stages", "stage_iters"),
    "gd": ("step", "max_iters"),
    "admm": ("rho", "max_iters"),
    "eadmm": ("rho", "stages", "stage_iters"),
}


class ConfigError(Exception):
    """A run configuration file is missing, malformed, or inconsistent."""


@dataclasses.dataclass(frozen=True)
class RunSettings:
    """Typed view of one parsed config file."""

    kind: str
    noise_level: float
    seed: int
    measurement_ratio: float
    gamma: float
    linf_weight: float
    generator_path: str
    method: str | None
    rho: float | None
    alpha: float | None
    beta: float | None
    sigma0: float
    tau_c: float
    max_iters: int | None
    geometry_pairs: int
    stages: int | None
    stage_iters: int | None
    step: float | None
    grad_tol: float
    trace_file: str | None
    summary_file: str | None
    zero_wall: bool


def _parse_bool(raw):
    states = configparser.ConfigParser.BOOLEAN_STATES
    try:
        return states[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw) from None


class _Section:
    """Typed key extraction with leftover detection; take also stores each
    value, given or default, in values.  A missing section reads as empty."""

    def __init__(self, parser, name, values):
        self.name = name
        self.left = dict(parser[name]) if parser.has_section(name) else {}
        self.values = values

    def take(self, key, conv, default=None, required=False, positive=False):
        value = default
        if key in self.left:
            raw = self.left.pop(key)
            try:
                value = conv(raw)
            except ValueError:
                raise ConfigError(
                    f"[{self.name}] {key}: cannot parse {raw!r}"
                ) from None
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"[{self.name}] {key} must be finite")
            if positive and not value > 0:
                raise ConfigError(f"[{self.name}] {key} must be strictly positive")
        elif required:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        self.values[key] = value
        return value

    def finish(self):
        if self.left:
            names = ", ".join(sorted(self.left))
            raise ConfigError(f"[{self.name}] has unknown keys: {names}")


def parse_config(path, command="run"):
    """Read and validate one INI file for the given CLI command."""
    if command not in ("run", "compare"):
        raise ValueError(f"unknown command {command!r}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        detail = " ".join(str(exc).split())
        raise ConfigError(f"malformed config file: {detail}") from None

    known = {"problem", "generator", "algorithm", "output"}
    present = set(parser.sections())
    extra = present - known
    if extra:
        raise ConfigError(f"unknown sections: {', '.join(sorted(extra))}")
    for name in ("problem", "generator", "algorithm"):
        if name not in present:
            raise ConfigError(f"missing required section [{name}]")

    values = {}
    problem = _Section(parser, "problem", values)
    kind = problem.take("kind", str, required=True)
    if kind not in INSTANCE_KINDS:
        raise ConfigError(f"[problem] unknown kind {kind!r}")
    for key, only in _KIND_KEYS.items():
        if key in problem.left and kind != only:
            raise ConfigError(f"[problem] {key} only applies to kind {only}")
    if problem.take("noise_level", float, default=0.0) < 0.0:
        raise ConfigError("[problem] noise_level must be nonnegative")
    if problem.take("seed", int, default=0) < 0:
        raise ConfigError("[problem] seed must be nonnegative")
    if not 0.0 < problem.take("measurement_ratio", float, default=0.5) <= 1.0:
        raise ConfigError("[problem] measurement_ratio must lie in (0, 1]")
    problem.take("gamma", float, default=0.01, positive=True)
    problem.take("linf_weight", float, default=1.0, positive=True)
    problem.finish()

    generator = _Section(parser, "generator", values)
    generator.take("file", str, required=True)
    generator.finish()
    # join keeps an absolute file as it is
    values["generator_path"] = os.path.join(
        os.path.dirname(os.path.abspath(path)), values.pop("file")
    )

    algo = _Section(parser, "algorithm", values)
    method = algo.take("method", str, required=(command == "run"))
    if method is not None and method not in METHODS:
        raise ConfigError(f"[algorithm] unknown method {method!r}")
    algo.take("rho", float, positive=True)
    algo.take("alpha", float, positive=True)
    algo.take("beta", float, positive=True)
    algo.take("sigma0", float, default=0.2, positive=True)
    algo.take("tau_c", float, default=1e-12, positive=True)
    algo.take("max_iters", int, positive=True)
    if algo.take("geometry_pairs", int, default=2000) < 2:
        raise ConfigError("[algorithm] geometry_pairs must be at least 2")
    algo.take("stages", int, positive=True)
    algo.take("stage_iters", int, positive=True)
    algo.take("step", float, positive=True)
    algo.take("grad_tol", float, default=1e-9, positive=True)
    algo.finish()

    plan = "compare" if command == "compare" else method
    for key in _REQUIRED[plan]:
        if values[key] is None:
            raise ConfigError(f"[algorithm] {key} is required here")
    if plan == "eadmm" and values["max_iters"] is not None:
        raise ConfigError(
            "[algorithm] max_iters is derived from the stage plan for eadmm"
        )

    output = _Section(parser, "output", values)
    output.take("trace_file", str)
    output.take("summary_file", str)
    output.take("zero_wall", _parse_bool, default=False)
    output.finish()
    return RunSettings(**values)


def open_generator(path):
    """load_generator, with a missing or malformed file as a ConfigError."""
    try:
        return load_generator(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load generator: {exc}") from None


def load_problem(settings):
    """Materialize (generator, planted instance) for parsed settings."""
    gen = open_generator(settings.generator_path)
    inst = build_instance(
        gen,
        settings.kind,
        noise_level=settings.noise_level,
        seed=settings.seed,
        measurement_ratio=settings.measurement_ratio,
        gamma=settings.gamma,
        linf_weight=settings.linf_weight,
    )
    return gen, inst


def step_geometry(settings, gen):
    """The geometry estimate that suggests omitted step sizes, or None when
    the settings give alpha, beta and the gd step."""
    if None not in (settings.alpha, settings.beta, settings.step):
        return None
    return estimate_geometry(gen, settings.geometry_pairs, seed=0)


def solver_settings(settings, gen, inst, method=None, geometry=None):
    """Solver config for one method, filling omitted step sizes: GdConfig
    for gd, AdmmConfig for the splitting solvers.

    method overrides settings.method (compare needs a config for every
    method from one file).  Omitted steps come from one
    admm.suggest_step_sizes call on the loss smoothness nu_L and the
    estimated geometry; geometry, the result of step_geometry, spares a
    second estimate when one file yields several configs.
    """
    method = settings.method if method is None else method
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    given = (settings.alpha, settings.beta, settings.step)
    alpha, beta, step = given
    if None in ((step,) if method == "gd" else (alpha, beta)):
        est = step_geometry(settings, gen) if geometry is None else geometry
        nu = inst.problem.loss.convexity_constants()[1]
        suggested = suggest_step_sizes(nu, est.kappa_hat, settings.rho)
        alpha, beta, step = (s if g is None else g for g, s in zip(given, suggested))
    if method == "gd":
        return GdConfig(
            step=step, max_iters=settings.max_iters, grad_tol=settings.grad_tol
        )
    max_iters, schedule = settings.max_iters, None
    if method == "eadmm":
        schedule = MultiscaleSchedule(
            stages=settings.stages, base_iters=settings.stage_iters
        )
        max_iters = schedule.total_iters()
    return AdmmConfig(
        rho=settings.rho,
        alpha=alpha,
        beta=beta,
        sigma0=settings.sigma0,
        tau_c=settings.tau_c,
        max_iters=max_iters,
        w_step="linearized" if schedule is None else "exact",
        multiscale=schedule,
    )
