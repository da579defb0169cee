"""The helper scripts under scripts/ run and print their known results, and
the benchmark's tracer wraps every traced boundary of cohomkit."""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

BK_SURVEY = [
    "A=(2,) g=1: |M|=2 Z=0 |F|=4 nondeg=False Z(F)=Z:False [F,F]=Z:True BrNr=0 B0=0 B0-oracle=0 B0-table=0",
    "A=(2,) g=C2: |F| = 128 skipped",
    "A=(2,) g=C3: |F| = 16384 skipped",
    "A=(3,) g=C2: |F| = 2187 skipped",
    "A=(2, 2) g=C2: |F| = 1048576 skipped",
]

FIND_SHA = [
    "Z/8 units (3,5) degree 1: kernel C2 of C2",
    "Z/8 units (3,7) degree 1: kernel C2 of C2",
    "Z/8 units (5,7) degree 1: kernel C2 of C2",
    "(4,): 0 modules with nonzero kernel",
    "(2, 2): 0 modules with nonzero kernel",
    "total faithful hits: 3",
]


@pytest.mark.parametrize(
    "args, expected",
    [(["bk_survey.py", "--max-order", "4"], BK_SURVEY), (["find_sha_example.py"], FIND_SHA)],
    ids=["bk_survey", "find_sha_example"],
)
def test_script_output(args, expected):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    lines = [re.sub(r" \(\d+\.\ds\)$", "", line) for line in proc.stdout.splitlines()]
    assert lines == expected


def test_benchmark_tracer_covers_every_traced_boundary():
    """A traced name that is deleted, or that some namespace still reaches
    unwrapped after ``install``, would fail every traced benchmark run."""
    script = (
        "import workloads\n"
        "from tracer import Tracer, check_coverage, install\n"
        "workloads.cohomkit_modules()\n"
        "tracer = Tracer()\n"
        "install(tracer)\n"
        "print(check_coverage(tracer))\n"
    )
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_traced_multiplier_run_records_every_expected_boundary(tmp_path):
    """A traced benchmark run exits 1 when a boundary it expects on a
    workload, such as ``cochain.differential`` on the multiplier, records no
    call.  The run uses a copy of the benchmark, so its span log is written
    under tmp_path, and imports the package from this checkout."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "multiplier", "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]
