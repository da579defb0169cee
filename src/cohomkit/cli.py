"""Batch front door: scenario ingestion, suite execution, reporting.

Exit codes: 0 all pass; 1 at least one failure; 2 usage or parse error;
3 completed with skipped or undecided entries.
"""

from __future__ import annotations

import argparse
import os
import sys

from .fixtures import SUITE_SCENARIOS
from .report import Report, render, render_text, scenario_digest
from .scenario import Scenario, ScenarioError, parse_scenarios
from .checks import run_check

BOUND_ENV = "COHOMKIT_BOUND"


def _at_least(least: int):
    """argparse type: an integer of at least `least`, as the grammar requires of seed and bound."""

    def integer(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {int(text)}")
        return int(text)

    return integer


def _run_scenario(sc: Scenario) -> Report:
    report = Report(
        scenario=sc.name,
        digest=scenario_digest(sc.canonical_text()),
        seed=sc.seed,
        bound=sc.bound,
    )
    report.records = [run_check(sc, spec) for spec in sc.checks]
    return report


def _emit(reports: list[Report], fmt: str, out_path: str | None) -> int:
    renderer = render if fmt == "structured" else render_text
    body = "".join(renderer(r) for r in reports)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)
    # exit-code priority: any fail -> 1, else any skipped/undecided -> 3, else 0
    codes = [r.exit_code() for r in reports]
    if 1 in codes:
        return 1
    if 3 in codes:
        return 3
    return 0


def _apply_overrides(scenarios: list[Scenario], args, env_bound: int | None) -> None:
    for sc in scenarios:
        if env_bound is not None:
            sc.bound = env_bound
        if args.bound is not None:
            sc.bound = args.bound
        if args.seed is not None:
            sc.seed = args.seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cohomkit", description="finite group cohomology verification runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the scenarios in a file")
    p_run.add_argument("file")
    p_suite = sub.add_parser("suite", help="run the built-in verification battery")
    sub.add_parser("list-fixtures", help="list built-in groups and scenario names")
    for p in (p_run, p_suite):
        p.add_argument("--seed", type=_at_least(0), default=None)
        p.add_argument("--bound", type=_at_least(1), default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("text", "structured"), default="structured")
    args = parser.parse_args(argv)

    if args.command == "list-fixtures":
        from .fixtures import BK_FAMILY, B0_EXTRA_GROUPS
        from .groups import GROUP_CATALOG, ABELIAN_CATALOG

        print("groups:", " ".join(sorted(GROUP_CATALOG)))
        print("abelian:", " ".join(sorted(ABELIAN_CATALOG)))
        print("crossed-product instances:", " ".join(name for name, _, _ in BK_FAMILY))
        print("multiplier groups:", " ".join(B0_EXTRA_GROUPS))
        suite = parse_scenarios(SUITE_SCENARIOS)
        print("suite scenarios:", " ".join(sc.name for sc in suite))
        return 0

    try:
        env_bound = _at_least(1)(os.environ[BOUND_ENV]) if BOUND_ENV in os.environ else None
    except (ValueError, argparse.ArgumentTypeError) as e:
        print(f"cohomkit: {BOUND_ENV}: {e}", file=sys.stderr)
        return 2
    if args.command == "run":
        try:
            with open(args.file) as fh:
                text = fh.read()
        except OSError as e:
            print(f"cohomkit: cannot read {args.file}: {e}", file=sys.stderr)
            return 2
    else:
        text = SUITE_SCENARIOS
    try:
        scenarios = parse_scenarios(text)
    except ScenarioError as e:
        print(f"cohomkit: scenario error: {e}", file=sys.stderr)
        return 2
    if not scenarios:
        print("cohomkit: no scenarios found", file=sys.stderr)
        return 2
    _apply_overrides(scenarios, args, env_bound)
    reports = [_run_scenario(sc) for sc in scenarios]
    return _emit(reports, args.format, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
