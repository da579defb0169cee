"""Versioned, diff-friendly report serialization.

One canonical rendering: fixed header order, checks in declaration order,
record keys sorted, every value rendered through one formatter.  Timing lines
('time-ms') are the only nondeterministic content and are excluded from the
determinism contract (strip_timing removes them).
"""

from __future__ import annotations

import hashlib
import platform
import sys
from dataclasses import dataclass, field

from .abelian import FinAbGroup, invariant_factors

REPORT_VERSION = 1

STATUS_ORDER = ("pass", "fail", "skipped", "undecided")


def fmt_group(A: FinAbGroup) -> str:
    inv = invariant_factors(A)
    if not inv:
        return "0"
    return "x".join(f"C{d}" for d in inv)


def fmt_value(v) -> str:
    if isinstance(v, FinAbGroup):
        return fmt_group(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(fmt_value(x) for x in v) + "]"
    return str(v)


@dataclass
class CheckRecord:
    name: str
    status: str
    data: dict = field(default_factory=dict)
    witness: dict | None = None
    time_ms: int = 0

    def __post_init__(self):
        if self.status not in STATUS_ORDER:
            raise ValueError(f"unknown check status {self.status!r}")
        if self.status == "fail" and self.witness is None:
            raise AssertionError("failing checks must carry a witness")


@dataclass
class Report:
    scenario: str
    digest: str
    seed: int
    bound: int
    records: list[CheckRecord] = field(default_factory=list)

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in STATUS_ORDER}
        for r in self.records:
            out[r.status] += 1
        return out

    def exit_code(self) -> int:
        c = self.counts()
        if c["fail"]:
            return 1
        if c["skipped"] or c["undecided"]:
            return 3
        return 0


def scenario_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def render(report: Report, timing: bool = True) -> str:
    lines = [
        f"cohomkit-report {REPORT_VERSION}",
        f"scenario {report.scenario}",
        f"digest {report.digest}",
        f"seed {report.seed}",
        f"bound {report.bound}",
        f"environment python={sys.version_info.major}.{sys.version_info.minor} platform={platform.system().lower()}",
    ]
    for rec in report.records:
        lines.append(f"check {rec.name}")
        lines.append(f"  status {rec.status}")
        for k in sorted(rec.data):
            lines.append(f"  {k} {fmt_value(rec.data[k])}")
        if rec.witness is not None:
            for k in sorted(rec.witness):
                lines.append(f"  witness.{k} {fmt_value(rec.witness[k])}")
        if timing:
            lines.append(f"  time-ms {rec.time_ms}")
        lines.append("end")
    c = report.counts()
    lines.append(
        "summary pass %d fail %d skipped %d undecided %d"
        % (c["pass"], c["fail"], c["skipped"], c["undecided"])
    )
    return "\n".join(lines) + "\n"


def render_text(report: Report) -> str:
    """Loose human-readable variant."""
    c = report.counts()
    lines = [f"scenario {report.scenario}: " + ", ".join(f"{k}={v}" for k, v in c.items() if v)]
    for rec in report.records:
        extra = "" if rec.witness is None else f"  witness: {rec.witness}"
        lines.append(f"  [{rec.status:9s}] {rec.name}{extra}")
    return "\n".join(lines) + "\n"


def strip_timing(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.strip().startswith("time-ms")) + "\n"
