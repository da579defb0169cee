"""Self-test of the benchmark: work counts repeat exactly for a fixed seed.

    python3 perfbench/selftest.py

Runs every workload twice with ``--trace 1`` and seed SEED, each run in a
fresh process, and requires every count and ratio metric (builds, distinct
ratio, subgroups visited, tableau and kernel entries, ...) and the failed
share of operations to be identical across the two runs.  As an anchor, the
F128 rung of the multiplier workload must build 461 cohomology groups over
460 commuting-pair subgroups, the figures profiling gave for b0_oracle.
Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("multiplier", "scenarios", "classes")
SEED = 7
ANCHORS = {
    "multiplier": {"brauer.f128.cohomology_builds": 461, "brauer.f128.subgroups_visited": 460},
}
TIMING_RATIOS = {"trace.overhead"}


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    out = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "ratio") and name not in TIMING_RATIOS
    }
    out["fail_share"] = result["failed"] / result["attempted"]
    return out


def main() -> int:
    problems = []
    for wl in WORKLOADS:
        first, second = traced_run(wl, SEED), traced_run(wl, SEED)
        if not (first["correct"] and second["correct"]):
            problems.append(f"{wl}: a run reported unexpected failures")
        a, b = counts(first), counts(second)
        for name in sorted(a):
            if a[name] != b.get(name):
                problems.append(f"{wl}: {name} differs between runs: {a[name]} != {b.get(name)}")
        for name, want in ANCHORS.get(wl, {}).items():
            if a.get(name) != want:
                problems.append(f"{wl}: {name} = {a.get(name)}, expected {want}")
        print(f"{wl}: {len(a)} counts compared", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
