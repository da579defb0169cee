"""Regenerate data/scenario_pool.json, the scenarios workload's inputs and references.

    python3 perfbench/gen_pool.py

Each context is one scenario block (directives plus checks) over the group
and coefficient catalogs; every check kind except b0 appears.  References:

* ``cohomology`` on a trivial module: the record is written from the
  universal-coefficient formula in refs.py, never from the program.  Where the
  program disagrees, the item is a known defect.
* every other check: the record the program gives at generation time, a
  regression reference.  Checks that raise out of run_check are known
  defects with no reference record.

A known defect stores under ``today`` exactly what the program gives now (the
record or the escaped error), so that only that failure counts as the defect.

A check whose single run takes longer than COST_CAP_S is left out of the pool
and listed under ``dropped_for_cost``; the cut is by cost alone, never by
verdict.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import refs  # noqa: E402
from workloads import POOL, record_block, scenario_text  # noqa: E402

COST_CAP_S = 0.5

GROUPS = ("1", "C2", "C3", "C4", "C6", "C2xC2", "S3", "D8", "Q8", "Heis8", "Heis27")
BASES = {"C2": (2,), "C3": (3,), "C4": (4,), "C2xC2": (2, 2), "C2xC4": (2, 4)}

# (group, normal subgroup, base, decomposition or None)
SHAPIRO = (
    ("C2", "trivial", "C3", "all"),
    ("C4", "trivial", "C2", None),
    ("C4", "gen:2", "C2", "all"),
    ("C4", "gen:2", "C3", None),
    ("C6", "gen:2", "C2", None),
    ("C6", "gen:3", "C3", "all"),
    ("C2xC2", "gen:1", "C2", "all"),
    ("C2xC2", "gen:3", "C2xC2", None),
    ("S3", "gen:3", "C2", "all"),
    ("S3", "gen:3", "C3", None),
    ("D8", "gen:1", "C2", "all"),
    ("D8", "gen:2", "C2xC2", None),
    ("Q8", "gen:1", "C2xC2", "all"),
    ("Q8", "gen:2", "C2", None),
    ("Q8", "gen:4", "C3", "all"),
    ("Heis8", "gen:6", "C2", "all"),
)
BK_BASES = ("C2", "C3", "C4", "C2xC2")
BK_GALOIS = ("1", "C2", "C3", "C2xC2")
BK_CHECKS = ("bk-build", "verify-bk", "br-nr", "q-relevable q=3", "neutrality", "sha degree=1")


def contexts():
    for g in GROUPS:
        for b in BASES:
            yield [f"group {g}", f"base {b}"], ["cohomology degree=1", "cohomology degree=2"], (g, b)
    for g, sub, b, dec in SHAPIRO:
        directives = [f"group {g}", f"subgroup {sub}", f"base {b}"]
        if dec:
            directives.append(f"decomposition {dec}")
        yield directives, ["cohomology degree=1", "cohomology degree=2", "verify-shapiro"], None
    for b in BK_BASES:
        for g in BK_GALOIS:
            yield [f"base {b}", f"galois {g}"], list(BK_CHECKS), None


def uct_block(group: str, base: str, degree: int) -> str:
    H = refs.render(refs.uct(group, BASES[base], degree))
    return f"check cohomology\n  status pass\n  H {H}\n  degree {degree}\nend"


def main() -> int:
    from cohomkit.checks import run_check
    from cohomkit.report import Report, render
    from cohomkit.scenario import parse_scenarios

    out, dropped = [], []
    for directives, lines, trivial in contexts():
        sc = parse_scenarios(scenario_text("gen", directives, lines))[0]
        items = []
        for spec, line in zip(sc.checks, lines):
            t0 = time.perf_counter()
            try:
                rec, err = run_check(sc, spec), None
            except Exception as exc:
                rec, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            where = " / ".join(directives + [f"check {line}"])
            if dt > COST_CAP_S:
                dropped.append({"input": where, "seconds": round(dt, 3)})
                continue
            got = err or record_block(render, Report, rec)
            if trivial is not None:
                expected = uct_block(trivial[0], trivial[1], spec.params["degree"])
            else:
                expected = None if rec is None else got
            item = {"line": line, "expected": expected, "today": None if got == expected else got}
            if item["today"] is not None:
                print(f"known defect: {where}: {got}".replace("\n", " | "), file=sys.stderr)
            items.append(item)
        if items:
            out.append({"directives": directives, "checks": items})
    POOL.parent.mkdir(exist_ok=True)
    POOL.write_text(json.dumps({"contexts": out, "dropped_for_cost": dropped}, indent=1) + "\n")
    n = sum(len(c["checks"]) for c in out)
    print(f"{len(out)} contexts, {n} checks, {len(dropped)} dropped for cost", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
