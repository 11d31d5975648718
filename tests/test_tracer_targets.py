"""The benchmark's tracer (bench/tracer.py) wraps priorsolve functions and
methods by name, so renaming or deleting one of them silently drops a
per-layer metric.  This test fails on such a change instead."""

import importlib.util
import sys
from pathlib import Path

import priorsolve.cli  # noqa: F401  (imports every module the tracer patches)

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every module attribute and class attribute of the loaded package."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name != "priorsolve" and not name.startswith("priorsolve."):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_every_tracer_target_exists_and_is_restored():
    before = package_bindings()
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert package_bindings() != before
    finally:
        tracer.restore()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
