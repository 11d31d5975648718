"""The README's examples work as written: its config block parses to the
shipped reference config, and its library block runs."""

import dataclasses
import re
from pathlib import Path

from priorsolve.config import parse_config

ROOT = Path(__file__).resolve().parent.parent


def readme_block(lang):
    (block,) = re.findall(rf"^```{lang}\n(.*?)^```$",
                          (ROOT / "README.md").read_text(), re.M | re.S)
    return block


def test_readme_config_block_is_the_reference_config(tmp_path):
    path = tmp_path / "readme.ini"
    path.write_text(readme_block("ini"))
    got = parse_config(path)
    want = parse_config(ROOT / "configs" / "reference.ini")
    assert dataclasses.replace(got, generator_path=want.generator_path) == want


def test_readme_library_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(readme_block("python"), "README.md", "exec"), {})
    eta_hat, plateau = capsys.readouterr().out.split()
    assert 0.0 < float(eta_hat) < 1.0
    assert float(plateau) >= 0.0
