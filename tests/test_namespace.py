"""The package namespace is lazy: a public name imports only the module that
defines it and what that module imports, so ``import priorsolve`` loads no
numpy and the process entry can pin BLAS threads before numpy loads."""

import subprocess
import sys
from pathlib import Path

import pytest

import priorsolve


def loaded_after(statement):
    """Sorted names of the priorsolve modules, numpy, configparser and csv
    in sys.modules after a fresh interpreter runs statement."""
    code = (
        f"{statement}\n"
        "import sys\n"
        "print(*sorted(m for m in sys.modules if m.startswith('priorsolve')\n"
        "              or m in ('numpy', 'configparser', 'csv')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=Path(priorsolve.__file__).parent.parent,
        check=True,
    )
    return proc.stdout.split()


@pytest.mark.parametrize("statement", [
    "import priorsolve",
    # tools probe dunder names; a miss imports nothing
    "import priorsolve; getattr(priorsolve, '__wrapped__', None)",
])
def test_import_priorsolve_loads_no_numpy(statement):
    assert loaded_after(statement) == ["priorsolve"]


def test_a_public_name_loads_only_its_module():
    assert loaded_after("from priorsolve import load_generator") == [
        "numpy", "priorsolve", "priorsolve.generator"
    ]


def test_every_export_is_listed_by_dir():
    assert set(priorsolve.__all__) <= set(dir(priorsolve))


@pytest.mark.parametrize("name", ["no_such_name", "__wrapped__"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(priorsolve, name)
