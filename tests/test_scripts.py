"""Smoke tests of the experiment scripts on one seeded scene each."""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "script, summary_keys",
    [
        ("run_interferer_sifting", {"wins", "margin_min", "margin_median", "margin_max"}),
        ("run_misconvergence_ab", {"wins", "delta_min", "delta_median", "delta_max"}),
    ],
)
def test_one_scene_report(tmp_path, script, summary_keys):
    report_path = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = _load(script).main(["--scenes", "1", "--json", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert set(report["summary"]) == summary_keys
    assert len(report["scenes"]) == 1 and report["scenes"][0]["seed"] == 0
