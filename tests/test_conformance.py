"""Replay the frozen scenario vectors and compare canonical reports."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

from cohomkit.checks import run_check
from cohomkit.cli import main
from cohomkit.report import Report, render, scenario_digest, strip_timing
from cohomkit.scenario import parse_scenarios

DATA = pathlib.Path(__file__).parent / "data"
VECTORS = sorted(DATA.glob("*.scn"))


def _normalize(text: str) -> str:
    text = strip_timing(text)
    return re.sub(r"^environment .*$", "environment <local>", text, flags=re.M)


@pytest.mark.parametrize("path", VECTORS, ids=[p.stem for p in VECTORS])
def test_conformance_vector(path):
    expected = _normalize(path.with_suffix(".report").read_text())
    scenarios = parse_scenarios(path.read_text())
    bodies = []
    for sc in scenarios:
        rep = Report(sc.name, scenario_digest(sc.canonical_text()), sc.seed, sc.bound)
        rep.records = [run_check(sc, spec) for spec in sc.checks]
        bodies.append(render(rep))
    assert _normalize("".join(bodies)) == expected


@pytest.mark.parametrize("path", VECTORS, ids=[p.stem for p in VECTORS])
def test_conformance_vector_under_python_O(path):
    # python -O strips assert statements; no verdict may depend on one
    root = DATA.parent.parent
    env_path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "cohomkit", "run", str(path)],
        capture_output=True,
        text=True,
        cwd=root,
        env={**os.environ, "PYTHONPATH": env_path},
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert _normalize(proc.stdout) == _normalize(path.with_suffix(".report").read_text())


def test_vectors_present():
    assert len(VECTORS) >= 3


def test_suite_report(tmp_path):
    out = tmp_path / "suite.report"
    assert main(["suite", "--out", str(out)]) == 0
    assert _normalize(out.read_text()) == _normalize((DATA / "suite.report").read_text())
