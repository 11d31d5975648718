"""Tests for the INI run-configuration layer."""

import dataclasses
import re
import string

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from priorsolve.config import (
    METHODS,
    ConfigError,
    load_problem,
    parse_config,
    solver_configs,
)
from priorsolve.generator import estimate_geometry
from priorsolve.harness import INSTANCE_KINDS
from priorsolve.losses import QuadraticDenoise, ScaledQuadratic

from helpers import write_generator


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


BASE = """\
[problem]
kind = denoise_l2
noise_level = 0.1
seed = 3

[generator]
file = gen.json

[algorithm]
method = admm
rho = 0.5
sigma0 = 0.25
max_iters = 40

[output]
trace_file = out.csv
"""


def test_parse_round_trip(tmp_path):
    write_generator(tmp_path)
    path = write_config(tmp_path, BASE)
    cfg = parse_config(path, command="run")
    assert cfg.kind == "denoise_l2"
    assert cfg.noise_level == 0.1
    assert cfg.seed == 3
    assert cfg.method == "admm"
    assert cfg.rho == 0.5
    assert cfg.sigma0 == 0.25
    assert cfg.max_iters == 40
    assert cfg.trace_file == "out.csv"
    # generator paths resolve against the config file's directory
    assert cfg.generator_path == str(tmp_path / "gen.json")
    # defaults fill the rest
    assert cfg.tau_c == 1e-12
    assert cfg.alpha is None and cfg.beta is None
    assert cfg.geometry_pairs == 2000
    assert cfg.zero_wall is False
    assert cfg.summary_file is None


def test_unknown_section_rejected(tmp_path):
    write_generator(tmp_path)
    path = write_config(tmp_path, BASE + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="extras"):
        parse_config(path, command="run")


def test_unknown_key_rejected(tmp_path):
    write_generator(tmp_path)
    path = write_config(tmp_path, BASE.replace("seed = 3", "seed = 3\nshape = big"))
    with pytest.raises(ConfigError, match="shape"):
        parse_config(path, command="run")


def test_kind_conditional_keys(tmp_path):
    write_generator(tmp_path)
    # gamma belongs to denoise_linf only
    path = write_config(tmp_path, BASE.replace("seed = 3", "seed = 3\ngamma = 0.5"))
    with pytest.raises(ConfigError, match="gamma"):
        parse_config(path, command="run")
    ok = BASE.replace("kind = denoise_l2", "kind = denoise_linf").replace(
        "seed = 3", "seed = 3\ngamma = 0.5\nlinf_weight = 2.0"
    )
    cfg = parse_config(write_config(tmp_path, ok, name="ok.ini"), command="run")
    assert cfg.gamma == 0.5
    assert cfg.linf_weight == 2.0


def test_missing_required(tmp_path):
    write_generator(tmp_path)
    no_kind = BASE.replace("kind = denoise_l2\n", "")
    with pytest.raises(ConfigError, match="kind"):
        parse_config(write_config(tmp_path, no_kind), command="run")
    no_gen = BASE.replace("file = gen.json\n", "")
    with pytest.raises(ConfigError, match="file"):
        parse_config(write_config(tmp_path, no_gen), command="run")
    no_method = BASE.replace("method = admm\n", "")
    with pytest.raises(ConfigError, match="method"):
        parse_config(write_config(tmp_path, no_method), command="run")
    no_rho = BASE.replace("rho = 0.5\n", "")
    with pytest.raises(ConfigError, match="rho"):
        parse_config(write_config(tmp_path, no_rho), command="run")


def test_bad_values(tmp_path):
    write_generator(tmp_path)
    bad_type = BASE.replace("noise_level = 0.1", "noise_level = soft")
    with pytest.raises(ConfigError, match="noise_level"):
        parse_config(write_config(tmp_path, bad_type), command="run")
    bad_method = BASE.replace("method = admm", "method = newton")
    with pytest.raises(ConfigError, match="method"):
        parse_config(write_config(tmp_path, bad_method), command="run")
    bad_kind = BASE.replace("kind = denoise_l2", "kind = inpainting")
    with pytest.raises(ConfigError, match="kind"):
        parse_config(write_config(tmp_path, bad_kind), command="run")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("problem", "noise_level", "nan"),
        ("problem", "noise_level", "inf"),
        ("problem", "noise_level", "-inf"),
        ("algorithm", "rho", "nan"),
        ("algorithm", "rho", "inf"),
        ("algorithm", "alpha", "inf"),
        ("algorithm", "beta", "inf"),
        ("algorithm", "sigma0", "inf"),
        ("algorithm", "tau_c", "inf"),
        ("algorithm", "grad_tol", "inf"),
    ],
)
def test_non_finite_values_rejected(tmp_path, section, key, value):
    write_generator(tmp_path)
    text = re.sub(rf"(?m)^{key} = .*\n", "", BASE)
    text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key} must be finite"):
        parse_config(write_config(tmp_path, text), command="run")


def test_method_key_requirements(tmp_path):
    write_generator(tmp_path)
    gd = BASE.replace("method = admm", "method = gd")
    with pytest.raises(ConfigError, match="step"):
        parse_config(write_config(tmp_path, gd), command="run")
    cfg = parse_config(
        write_config(tmp_path, gd.replace("rho = 0.5", "step = 0.2"), name="g.ini"),
        command="run",
    )
    assert cfg.method == "gd" and cfg.step == 0.2 and cfg.grad_tol == 1e-9
    # the multi-scale method derives its budget from the stage plan
    ea = BASE.replace("method = admm", "method = eadmm")
    with pytest.raises(ConfigError, match="stages"):
        parse_config(write_config(tmp_path, ea), command="run")
    ea_ok = ea.replace("max_iters = 40", "stages = 2\nstage_iters = 5")
    cfg = parse_config(write_config(tmp_path, ea_ok, name="e.ini"), command="run")
    assert cfg.stages == 2 and cfg.stage_iters == 5
    ea_both = ea.replace("max_iters = 40", "max_iters = 40\nstages = 2\nstage_iters = 5")
    with pytest.raises(ConfigError, match="max_iters"):
        parse_config(write_config(tmp_path, ea_both, name="eb.ini"), command="run")


def test_compare_relaxes_method(tmp_path):
    write_generator(tmp_path)
    text = BASE.replace("method = admm\n", "").replace(
        "rho = 0.5", "rho = 0.5\nstages = 2\nstage_iters = 5"
    )
    cfg = parse_config(write_config(tmp_path, text), command="compare")
    assert cfg.method is None
    assert cfg.step is None  # filled with 1/(nu_L kappa_hat^2) at run time
    # compare still needs the stage plan for its multi-scale leg
    with pytest.raises(ConfigError, match="stages"):
        parse_config(
            write_config(tmp_path, BASE.replace("method = admm\n", ""), name="c.ini"),
            command="compare",
        )


def test_missing_file_and_bad_command(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "absent.ini", command="run")
    write_generator(tmp_path)
    path = write_config(tmp_path, BASE)
    with pytest.raises(ValueError):
        parse_config(path, command="sweep")


def test_load_problem(tmp_path):
    gen, _ = write_generator(tmp_path)
    path = write_config(tmp_path, BASE)
    cfg = parse_config(path, command="run")
    loaded, inst = load_problem(cfg)
    assert [l.weight.shape for l in loaded.layers] == [
        l.weight.shape for l in gen.layers
    ]
    assert isinstance(inst.problem.loss, QuadraticDenoise)
    assert inst.seed == 3 and inst.noise_level == 0.1
    assert np.array_equal(inst.w_star, loaded.forward(inst.z_star))


def test_load_problem_linf(tmp_path):
    write_generator(tmp_path)
    text = BASE.replace("kind = denoise_l2", "kind = denoise_linf")
    cfg = parse_config(write_config(tmp_path, text), command="run")
    _, inst = load_problem(cfg)
    assert isinstance(inst.problem.loss, ScaledQuadratic)
    assert inst.problem.loss.gamma == 0.01
    assert inst.problem.reg_w.kind == "linf"


def test_denoise_linf_parses_for_eadmm_and_compare(tmp_path):
    write_generator(tmp_path)
    linf = BASE.replace("kind = denoise_l2", "kind = denoise_linf")
    eadmm = linf.replace("method = admm", "method = eadmm").replace(
        "max_iters = 40", "stages = 2\nstage_iters = 3"
    )
    both = linf.replace("max_iters = 40", "max_iters = 40\nstages = 2\nstage_iters = 3")
    for text, command in ((eadmm, "run"), (both, "compare")):
        cfg = parse_config(write_config(tmp_path, text), command=command)
        assert (cfg.kind, cfg.stages, cfg.stage_iters) == ("denoise_linf", 2, 3)


def test_solver_settings_defaults(tmp_path):
    gen, _ = write_generator(tmp_path)
    path = write_config(tmp_path, BASE)
    cfg = parse_config(path, command="run")
    loaded, inst = load_problem(cfg)
    admm_cfg = solver_configs(cfg, loaded, inst, (cfg.method,))[cfg.method]
    assert admm_cfg.rho == 0.5
    assert admm_cfg.alpha == 1.0  # 1 / smoothness of the quadratic loss
    assert admm_cfg.beta > 0.0
    assert admm_cfg.max_iters == 40
    assert admm_cfg.w_step == "linearized"
    assert admm_cfg.multiscale is None


def test_solver_settings_explicit_steps(tmp_path):
    write_generator(tmp_path)
    text = BASE.replace("rho = 0.5", "rho = 0.5\nalpha = 0.7\nbeta = 0.05")
    cfg = parse_config(write_config(tmp_path, text), command="run")
    loaded, inst = load_problem(cfg)
    admm_cfg = solver_configs(cfg, loaded, inst, (cfg.method,))[cfg.method]
    assert admm_cfg.alpha == 0.7 and admm_cfg.beta == 0.05


def test_solver_settings_eadmm(tmp_path):
    write_generator(tmp_path)
    text = BASE.replace("method = admm", "method = eadmm").replace(
        "max_iters = 40", "stages = 3\nstage_iters = 4"
    )
    cfg = parse_config(write_config(tmp_path, text), command="run")
    loaded, inst = load_problem(cfg)
    admm_cfg = solver_configs(cfg, loaded, inst, (cfg.method,))[cfg.method]
    assert admm_cfg.w_step == "exact"
    assert admm_cfg.multiscale.stages == 3
    assert admm_cfg.multiscale.base_iters == 4
    # total budget covers every stage: 4 * (2 + 4 + 8)
    assert admm_cfg.max_iters == 56


def test_solver_settings_gd_step_fallback(tmp_path):
    # without step, gd takes 1/(nu_L kappa_hat^2) from the geometry estimate,
    # also when alpha and beta are given and admm needs no estimate
    gen, _ = write_generator(tmp_path)
    text = BASE.replace("method = admm\n", "").replace(
        "rho = 0.5", "rho = 0.5\nstages = 2\nstage_iters = 5\ngeometry_pairs = 50"
    )
    kappa = estimate_geometry(gen, 50, seed=0).kappa_hat
    for extra in ("", "\nalpha = 0.7\nbeta = 0.05"):
        cfg = parse_config(
            write_config(tmp_path, text.replace("rho = 0.5", "rho = 0.5" + extra)),
            command="compare",
        )
        loaded, inst = load_problem(cfg)
        assert solver_configs(cfg, loaded, inst, ("gd",))["gd"].step == 1.0 / kappa**2
        given = text.replace("rho = 0.5", "rho = 0.5\nstep = 0.3" + extra)
        cfg = parse_config(write_config(tmp_path, given), command="compare")
        assert solver_configs(cfg, loaded, inst, ("gd",))["gd"].step == 0.3


# the documented defaults of every setting a file may omit, by section
DEFAULTS = {
    "problem": {"noise_level": 0.0, "seed": 0, "measurement_ratio": 0.5,
                "gamma": 0.01, "linf_weight": 1.0},
    "algorithm": {"method": None, "rho": None, "alpha": None, "beta": None,
                  "sigma0": 0.2, "tau_c": 1e-12, "max_iters": None,
                  "geometry_pairs": 2000, "stages": None, "stage_iters": None,
                  "step": None, "grad_tol": 1e-9},
    "output": {"trace_file": None, "summary_file": None, "zero_wall": False},
}
SECTION_OF = {key: name for name, keys in DEFAULTS.items() for key in keys}
SECTION_OF["kind"] = "problem"
# [algorithm] keys that a command (compare) or method (run) requires
REQUIRED = {
    "compare": ("rho", "max_iters", "stages", "stage_iters"),
    "gd": ("step", "max_iters"),
    "admm": ("rho", "max_iters"),
    "eadmm": ("rho", "stages", "stage_iters"),
}
POSITIVE_KEYS = ("gamma", "linf_weight", "rho", "alpha", "beta", "sigma0", "tau_c",
                 "max_iters", "stages", "stage_iters", "step", "grad_tol")
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
positive_int = st.integers(1, 10**9)
file_name = st.text(string.ascii_letters + string.digits + "._/-", min_size=1,
                    max_size=12)


@st.composite
def valid_configs(draw):
    """(command, {key: value}) for a file that parse_config accepts: each
    required key set, each optional one absent or set."""
    command = draw(st.sampled_from(["run", "compare"]))
    if command == "run":
        plan = method = draw(st.sampled_from(METHODS))
    else:
        plan, method = "compare", draw(st.sampled_from((None, *METHODS)))
    kind = draw(st.sampled_from(INSTANCE_KINDS))
    optional = {
        "noise_level": st.floats(0.0, 1e6), "seed": st.integers(0, 2**32 - 1),
        "rho": positive, "alpha": positive, "beta": positive, "sigma0": positive,
        "tau_c": positive, "max_iters": positive_int,
        "geometry_pairs": st.integers(2, 10**6), "stages": positive_int,
        "stage_iters": positive_int, "step": positive, "grad_tol": positive,
        "trace_file": file_name, "summary_file": file_name,
        "zero_wall": st.booleans(),
    }
    if kind == "compressive_sensing":
        optional["measurement_ratio"] = st.floats(0.0, 1.0, exclude_min=True)
    if kind == "denoise_linf":
        optional["gamma"] = optional["linf_weight"] = positive
    if plan == "eadmm":
        del optional["max_iters"]  # derived from the stage plan
    values = {"kind": kind} if method is None else {"kind": kind, "method": method}
    for key, strategy in optional.items():
        if key in REQUIRED[plan] or draw(st.booleans()):
            values[key] = draw(strategy)
    return command, values


def write_values(tmp_path, values):
    lines = {"problem": [], "generator": ["file = gen.json"], "algorithm": [],
             "output": []}
    for key, value in values.items():
        text = repr(value) if isinstance(value, float) else str(value)
        lines[SECTION_OF[key]].append(f"{key} = {text}")
    if not lines["output"]:
        del lines["output"]  # a missing [output] parses as an empty one
    text = "\n".join(f"[{name}]\n" + "\n".join(body) for name, body in lines.items())
    return write_config(tmp_path, text + "\n")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(valid_configs())
def test_parse_config_round_trips_every_setting(tmp_path, config):
    command, values = config
    parsed = parse_config(write_values(tmp_path, values), command=command)
    expected = {key: value for section in DEFAULTS.values()
                for key, value in section.items()}
    expected.update(values, generator_path=str(tmp_path / "gen.json"))
    assert dataclasses.asdict(parsed) == expected


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(valid_configs(), st.data())
def test_a_bad_positive_value_is_one_error_naming_its_key(tmp_path, config, data):
    command, values = config
    keys = [k for k in POSITIVE_KEYS
            if values["kind"] == "denoise_linf" or k not in ("gamma", "linf_weight")]
    key = data.draw(st.sampled_from(keys))
    values[key] = data.draw(st.sampled_from(["0", "-1", "nan", "inf", "abc"]))
    with pytest.raises(ConfigError, match=rf"^\[{SECTION_OF[key]}\] {key}(:| must)"):
        parse_config(write_values(tmp_path, values), command=command)
