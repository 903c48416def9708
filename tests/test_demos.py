"""Every narrated demo runs to the end and prints its walk-through."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert [p.name for p in DEMOS] == [
        "01_parsing.py", "02_rewriting.py", "03_circuits.py", "04_tensor_networks.py"
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert len([line for line in lines if line.strip()]) >= 3, lines
