"""The README's examples run as written."""

import json
import re
from pathlib import Path

from dkm.config import parse_run_spec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_run_config_is_valid():
    (block,) = fenced_blocks("json")
    spec = parse_run_spec(json.loads(block))
    assert spec.model_spec.layer_dims == (2, 64, 64, 4)
    assert [s.bits for s in spec.model_spec.schemes] == [4, 2, 2]


def test_readme_quick_start_runs(capsys):
    (block,) = fenced_blocks("python")
    exec(compile(block, "README.md quick start", "exec"), {})
    assert "iterations_used" in capsys.readouterr().out
