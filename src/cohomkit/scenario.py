"""Line-oriented scenario files.

Grammar (one directive per line, '#' comments, blank lines ignored):

    scenario <name>            starts a new scenario block
    seed <int>                 RNG seed for randomized checks (default 0)
    bound <int>                work bound for heavy steps (default 1 << 26)
    base <abelian>             base coefficient module: C2, C3, C2xC2, C2xC4, ...
    galois <group>             Galois quotient for crossed-product checks
    group <name>               ambient group for Shapiro checks, or
    group table r00,r01;r10,r11   an explicit multiplication table
    subgroup trivial|all|gen:i,j|i,j,...   a (normal) subgroup of `group`
    decomposition trivial|all|gen:i|i,...  decomposition subgroup of `group`
    twist c,c,...|c,c,...      a 1-cochain on the Galois quotient valued in
                               M + M, one coordinate block per element, each
                               of width 2 |galois| rank(base)
    check <name> [key=value]...

Check names: cohomology, bk-build, b0, br-nr, sha, verify-shapiro,
verify-bk, q-relevable, neutrality.  The parameters each check accepts, and
their ranges, are in ``CHECK_PARAMS``; anything else is a parse error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .abelian import FinAbGroup
from .groups import (
    FiniteGroup,
    Subgroup,
    generated_subgroup,
    named_abelian,
    named_group,
)

CHECK_NAMES = (
    "cohomology",
    "bk-build",
    "b0",
    "br-nr",
    "sha",
    "verify-shapiro",
    "verify-bk",
    "q-relevable",
    "neutrality",
)


# The parameters each check accepts: name -> (least value, greatest value,
# must be odd), None for no bound.  A check missing here takes no parameters.
CHECK_PARAMS: dict[str, dict[str, tuple[int | None, int | None, bool]]] = {
    "cohomology": {"degree": (0, 2, False)},
    "sha": {"degree": (0, 2, False)},
    "q-relevable": {"q": (None, None, True), "sigma": (0, None, False)},
    "neutrality": {"budget": (1, None, False)},
}


class ScenarioError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class CheckSpec:
    name: str
    params: dict[str, int] = field(default_factory=dict)
    line_no: int = field(default=0, compare=False)


@dataclass
class Scenario:
    name: str
    seed: int = 0
    bound: int = 1 << 26
    base: FinAbGroup | None = None
    galois: FiniteGroup | None = None
    group: FiniteGroup | None = None
    subgroup: Subgroup | None = None
    decomposition: Subgroup | None = None
    twist_rows: np.ndarray | None = None
    twist_line_no: int = field(default=0, compare=False)
    checks: list[CheckSpec] = field(default_factory=list)
    source_lines: list[str] = field(default_factory=list)

    def canonical_text(self) -> str:
        return "\n".join(self.source_lines) + "\n"


def _parse_members(G: FiniteGroup, spec: str, line_no: int) -> Subgroup:
    if spec == "trivial":
        return Subgroup.make(G, [0])
    if spec == "all":
        return Subgroup.make(G, list(G.elements()))
    gen = spec.startswith("gen:")
    body = spec[4:] if gen else spec
    try:
        ids = [int(x) for x in body.split(",") if x != ""]
    except ValueError:
        raise ScenarioError(line_no, f"bad element list {spec!r}")
    if any(i < 0 or i >= G.size for i in ids):
        raise ScenarioError(line_no, f"element index out of range in {spec!r}")
    if gen:
        return generated_subgroup(G, ids)
    try:
        return Subgroup.make(G, set(ids) | {0})
    except ValueError as e:
        raise ScenarioError(line_no, f"not a subgroup: {e}")


def _parse_table(body: str, line_no: int) -> FiniteGroup:
    try:
        rows = [[int(x) for x in row.split(",")] for row in body.split(";")]
        return FiniteGroup(np.array(rows, dtype=np.int64), name="custom")
    except (ValueError, OverflowError) as e:  # OverflowError: an entry outside int64
        raise ScenarioError(line_no, f"invalid multiplication table: {e}")


def _check_param(check: str, key: str, value: int, seen: dict, line_no: int) -> None:
    """Raise a ScenarioError unless check ``check`` takes ``key=value`` (once)."""
    allowed = CHECK_PARAMS.get(check, {})
    if key not in allowed:
        known = ", ".join(allowed) or "none"
        raise ScenarioError(line_no, f"check {check} has no parameter {key!r} (known: {known})")
    if key in seen:
        raise ScenarioError(line_no, f"check parameter {key!r} given twice")
    lo, hi, odd = allowed[key]
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        want = f"in {lo}..{hi}" if hi is not None else f"at least {lo}"
        raise ScenarioError(line_no, f"check {check}: {key}={value} must be {want}")
    if odd and value % 2 == 0:
        raise ScenarioError(line_no, f"check {check}: {key}={value} must be odd")


def parse_scenarios(text: str) -> list[Scenario]:
    scenarios: list[Scenario] = []
    current: Scenario | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key = parts[0]
        rest = line[len(key) :].strip()
        if key == "scenario":
            if not rest:
                raise ScenarioError(line_no, "scenario needs a name")
            current = Scenario(name=rest)
            current.source_lines.append(line)
            scenarios.append(current)
            continue
        if current is None:
            raise ScenarioError(line_no, "directive before any 'scenario' line")
        current.source_lines.append(line)
        if key == "seed":
            try:
                current.seed = int(rest)
            except ValueError:
                raise ScenarioError(line_no, f"bad seed {rest!r}")
            if current.seed < 0:
                raise ScenarioError(line_no, "seed must be non-negative")
        elif key == "bound":
            try:
                current.bound = int(rest)
            except ValueError:
                raise ScenarioError(line_no, f"bad bound {rest!r}")
            if current.bound <= 0:
                raise ScenarioError(line_no, "bound must be positive")
        elif key == "base":
            try:
                current.base = named_abelian(rest)
            except ValueError as e:
                raise ScenarioError(line_no, str(e))
        elif key == "galois":
            try:
                current.galois = named_group(rest)
            except ValueError as e:
                raise ScenarioError(line_no, str(e))
        elif key == "group":
            if rest.startswith("table "):
                current.group = _parse_table(rest[len("table ") :], line_no)
            else:
                try:
                    current.group = named_group(rest)
                except ValueError as e:
                    raise ScenarioError(line_no, str(e))
        elif key == "subgroup":
            if current.group is None:
                raise ScenarioError(line_no, "subgroup before group")
            current.subgroup = _parse_members(current.group, rest, line_no)
            if not current.subgroup.normal:
                raise ScenarioError(line_no, "subgroup must be normal")
        elif key == "decomposition":
            if current.group is None:
                raise ScenarioError(line_no, "decomposition before group")
            current.decomposition = _parse_members(current.group, rest, line_no)
        elif key == "twist":
            try:
                rows = [[int(x) for x in blk.split(",")] for blk in rest.split("|")]
                current.twist_rows = np.array(rows, dtype=np.int64)
                current.twist_line_no = line_no
            except (ValueError, OverflowError):
                raise ScenarioError(line_no, f"bad twist table {rest!r}")
        elif key == "check":
            if not parts[1:]:
                raise ScenarioError(line_no, "check needs a name")
            name = parts[1]
            if name not in CHECK_NAMES:
                raise ScenarioError(line_no, f"unknown check {name!r}; known: {CHECK_NAMES}")
            params = {}
            for kv in parts[2:]:
                if "=" not in kv:
                    raise ScenarioError(line_no, f"check parameter {kv!r} must be key=value")
                k, v = kv.split("=", 1)
                try:
                    value = int(v)
                except ValueError:
                    raise ScenarioError(line_no, f"check parameter {kv!r} must be an integer")
                _check_param(name, k, value, params, line_no)
                params[k] = value
            current.checks.append(CheckSpec(name, params, line_no))
        else:
            raise ScenarioError(line_no, f"unknown directive {key!r}")
    for sc in scenarios:
        _validate(sc)
    return scenarios


def _validate(sc: Scenario) -> None:
    needs_datum = {"bk-build", "b0", "br-nr", "verify-bk", "q-relevable", "neutrality", "sha"}
    needs_pair = {"verify-shapiro"}
    for chk in sc.checks:
        if chk.name in needs_datum and (sc.base is None or sc.galois is None):
            raise ScenarioError(chk.line_no, f"scenario {sc.name!r}: check {chk.name} needs base and galois")
        if chk.name in needs_pair and (sc.group is None or sc.subgroup is None or sc.base is None):
            raise ScenarioError(
                chk.line_no, f"scenario {sc.name!r}: check {chk.name} needs group, subgroup and base"
            )
        if chk.name == "cohomology" and sc.base is None:
            raise ScenarioError(chk.line_no, f"scenario {sc.name!r}: cohomology needs a base module")
        if chk.name == "cohomology" and sc.group is None and sc.galois is None:
            raise ScenarioError(chk.line_no, f"scenario {sc.name!r}: cohomology needs group or galois")
        sigma = chk.params.get("sigma")
        if sigma is not None and sigma >= sc.galois.size:
            raise ScenarioError(
                chk.line_no,
                f"check {chk.name}: sigma={sigma} is not an element of the Galois group "
                f"of order {sc.galois.size}",
            )
    if sc.twist_rows is not None:
        _validate_twist(sc)


def _validate_twist(sc: Scenario) -> None:
    """A twist is a 1-cochain on galois valued in M + M, M = Ind(base): one
    block per element of galois, each of width 2 |galois| rank(base)."""
    if sc.base is None or sc.galois is None:
        raise ScenarioError(sc.twist_line_no, f"scenario {sc.name!r}: twist needs base and galois")
    blocks, width = sc.galois.size, 2 * sc.galois.size * sc.base.rank
    if sc.twist_rows.shape != (blocks, width):
        got_blocks, got_width = sc.twist_rows.shape
        raise ScenarioError(
            sc.twist_line_no,
            f"twist has {got_blocks} blocks of width {got_width}; galois of order {sc.galois.size} "
            f"over a base of rank {sc.base.rank} needs {blocks} blocks of width {width}",
        )
