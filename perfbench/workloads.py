"""The three workloads: inputs from a seed, one pass, and answer checks.

Every workload is a closed loop with one caller: the next item is issued when
the previous one has returned.  A pass runs every item of the workload once;
``run.py`` repeats passes for the measured time.  Program calls are made
through module attributes looked up at call time, so the tracer's wrappers
(installed after set-up) see them.

An operation fails when it raises or disagrees with its reference.  A
failure on an input listed as a known defect is counted but does not make the
run incorrect; any other failure does.
"""

from __future__ import annotations

import importlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cohomkit_modules():
    names = ("abelian", "brauer", "checks", "cochain", "cohomology", "crossed", "groups",
             "report", "scenario")
    return {n: importlib.import_module("cohomkit." + n) for n in names}


@dataclass
class Op:
    kind: str
    item: str  # the same label on every pass
    seconds: float
    ok: bool
    known_defect: bool = False
    detail: str = ""


@dataclass
class PassResult:
    ops: list[Op] = field(default_factory=list)
    # program time of every timed segment, in the same order on every pass;
    # answer checks are not timed
    parts: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)  # workload-specific values

    def add(self, op: Op) -> None:
        self.ops.append(op)
        self.parts.append(op.seconds)

    @property
    def timed_s(self) -> float:
        return sum(self.parts)


def _group(mods, name: str):
    """A table group from a catalog name, 'F128', or a product 'G*H*...'."""
    groups = mods["groups"]
    if name == "F128":
        datum = mods["crossed"].build_bk(mods["abelian"].FinAbGroup((2,)), groups.named_group("C2"))
        return datum.cp.as_table_group(cap=512)[0]
    parts = [groups.named_group(p) for p in name.split("*")]
    G = parts[0]
    for P in parts[1:]:
        G = groups.direct_product(G, P)
    return G


# ---------------------------------------------------------------------------
# multiplier: B0 by the oracle and the closed form on a ladder of groups
# ---------------------------------------------------------------------------

# (label, group, closed form applies).  S3 x S3 is not nilpotent, so only the
# oracle runs there.  B0 is 0 on every rung: each rung has order below 64,
# except F128, whose B0 = 0 is the closed form of its commutator pairing.
RUNGS = (
    ("D8xC2", "D8*C2", True),
    ("Q8xC4", "Q8*C4", True),
    ("S3xS3", "S3*S3", False),
    ("Heis27xC2", "Heis27*C2", True),
    ("F128", "F128", True),
)


class Multiplier:
    name = "multiplier"
    latency = "rung"

    def setup(self, seed: int):
        # The ladder is the same whatever the seed: the rung order changed
        # the time of the small rungs, which would read as noise between
        # seeds.  Each rung runs once per pass, as a command-line run would.
        mods = cohomkit_modules()
        return {"mods": mods, "rungs": [(label, _group(mods, g), closed) for label, g, closed in RUNGS]}

    def run_pass(self, state, tracer, res: PassResult) -> PassResult:
        brauer = state["mods"]["brauer"]
        for label, G, closed_applies in state["rungs"]:
            before = dict(tracer.counts) if tracer.active else None
            with tracer.span("bench.rung"):
                t0 = time.perf_counter()
                try:
                    oracle = brauer.b0_oracle(G)
                    closed = brauer.b0_closed_form(G) if closed_applies else None
                    err = ""
                except Exception as exc:  # a raise is a failed operation
                    oracle = closed = None
                    err = f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            ok = not err and not refs.primary(oracle.orders)
            if ok and closed is not None:
                ok = not refs.primary(closed.orders)
            res.add(Op("rung", label, dt, ok, detail=err or (f"{label}: B0 = {oracle}" if not ok else "")))
            if label == "F128":
                res.extra["b0_f128_s"] = dt
                if before is not None:
                    for key in ("cohomology.build", "brauer.subgroups_visited"):
                        res.extra[f"f128.{key}"] = tracer.counts[key] - before.get(key, 0)
        return res


# ---------------------------------------------------------------------------
# scenarios: a generated batch through the scenario front door
# ---------------------------------------------------------------------------

POOL = HERE / "data" / "scenario_pool.json"
VECTORS = ROOT / "tests" / "data"


def record_block(render, Report, rec) -> str:
    """Canonical text of one check record, without its time-ms line."""
    text = render(Report("x", "0", 0, 0, [rec]), timing=False)
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith("check "))
    end = max(i for i, l in enumerate(lines) if l == "end")
    return "\n".join(lines[start : end + 1])


def normalize_report(text: str) -> str:
    lines = [l for l in text.splitlines() if not l.strip().startswith("time-ms")]
    text = "\n".join(lines) + "\n"
    return re.sub(r"^environment .*$", "environment <local>", text, flags=re.M)


def scenario_text(name: str, directives, check_lines) -> str:
    body = [f"scenario {name}", "seed 0", *directives, *(f"check {c}" for c in check_lines)]
    return "\n".join(body) + "\n"


class Scenarios:
    name = "scenarios"
    latency = "check"

    def setup(self, seed: int):
        mods = cohomkit_modules()
        pool = json.loads(POOL.read_text())
        rng = np.random.default_rng(seed)
        chunks, expected = [], []
        for i, ci in enumerate(rng.permutation(len(pool["contexts"]))):
            ctx = pool["contexts"][ci]
            items = [
                dict(ctx["checks"][j], where=" / ".join(ctx["directives"] + ["check " + ctx["checks"][j]["line"]]))
                for j in rng.permutation(len(ctx["checks"]))
            ]
            chunks.append(scenario_text(f"gen-{seed}-{i}", ctx["directives"], [it["line"] for it in items]))
            expected.append(items)
        vectors = [
            (p.read_text(), normalize_report(p.with_suffix(".report").read_text()))
            for p in sorted(VECTORS.glob("*.scn"))
        ]
        return {"mods": mods, "batch": "".join(chunks), "expected": expected, "vectors": vectors}

    def _run_file(self, mods, text, res: PassResult):
        """Parse, run and render one scenario file; returns (records, rendered)."""
        scenario, checks, report = mods["scenario"], mods["checks"], mods["report"]
        t0 = time.perf_counter()
        scenarios = scenario.parse_scenarios(text)
        parse_s = time.perf_counter() - t0
        out, bodies, render_s = [], [], 0.0
        for sc in scenarios:
            rep = report.Report(sc.name, report.scenario_digest(sc.canonical_text()), sc.seed, sc.bound)
            recs = []
            for spec in sc.checks:
                t0 = time.perf_counter()
                try:
                    rec, err = checks.run_check(sc, spec), ""
                except Exception as exc:  # escapes run_check: a failed operation
                    rec, err = None, f"{type(exc).__name__}: {exc}"
                recs.append((rec, err, time.perf_counter() - t0))
            rep.records = [r for r, _, _ in recs if r is not None]
            t0 = time.perf_counter()
            bodies.append(report.render(rep))
            render_s += time.perf_counter() - t0
            out.append(recs)
        res.parts += [parse_s, render_s]
        return out, "".join(bodies)

    def run_pass(self, state, tracer, res: PassResult) -> PassResult:
        mods = state["mods"]
        render, Report = mods["report"].render, mods["report"].Report
        out, _ = self._run_file(mods, state["batch"], res)
        for recs, items in zip(out, state["expected"]):
            for (rec, err, dt), item in zip(recs, items):
                got = err or record_block(render, Report, rec)
                # An item with no reference record (it escapes run_check
                # today) never passes: once it returns a record, the pool
                # must be regenerated to give it a reference.
                ok = got == item["expected"]
                # a known defect only if the check fails exactly as recorded
                known = not ok and got == item["today"]
                detail = "" if ok else f"{item['where']}: {got}".replace("\n", " | ")
                res.add(Op("check", item["where"], dt, ok, known_defect=known, detail=detail))
        for v, (text, want) in enumerate(state["vectors"]):
            recs, body = self._run_file(mods, text, res)
            same = normalize_report(body) == want
            for i, (rec, err, dt) in enumerate(r for sc in recs for r in sc):
                ok = same and rec is not None
                res.add(Op("check", f"vector{v}:{i}", dt, ok, detail="" if ok else f"vector {v}: {err or 'report differs'}"))
        return res


# ---------------------------------------------------------------------------
# classes: H^1 and H^2 builds, then many class queries on each build
# ---------------------------------------------------------------------------

# (group, coefficient orders, degree).  (2, 4) has factors of mixed order.
BUILDS = (
    ("D8*C2", (2,), 1), ("D8*C2", (2,), 2), ("D8*C2", (2, 4), 1), ("D8*C2", (2, 4), 2),
    ("C4*C4", (4,), 1), ("C4*C4", (4,), 2), ("C4*C4", (2, 4), 1), ("C4*C4", (2, 4), 2),
    ("Q8*C4", (4,), 1), ("Q8*C4", (4,), 2), ("Q8*C4", (2, 2), 2), ("Q8*C4", (2, 4), 1),
    ("Heis27*C2", (3,), 1), ("Heis27*C2", (3,), 2), ("Heis27*C2", (2,), 2),
    ("C2xC2*C4*C4", (2,), 2), ("C2xC2*C4*C4", (4,), 2),
    ("D8*D8", (2,), 2),
    ("F128", (2,), 1), ("F128", (4,), 1), ("F128", (2, 2), 1), ("F128", (2,), 2),
)
QUERIES_PER_KIND = 4
# The query values are drawn from this seed, not from --seed: see Classes.setup.
QUERY_SEED = 0

# Known defect, coefficients of mixed order: (build, operation, query index,
# None for the build itself) -> how it fails today, exactly as the run reports
# it.  A failure counts as this defect only on a listed operation and only if
# it reads as listed; any other failure makes the run incorrect.
_NOT_A_COCYCLE = "AssertionError: not a cocycle"
_NOT_A_COCYCLE_PAIR = "AssertionError: membership test requires a cocycle"


def _rejected_cocycles(label: str, kind: str, queries) -> dict:
    text = _NOT_A_COCYCLE if kind == "class_of" else _NOT_A_COCYCLE_PAIR
    return {(label, kind, q): text for q in queries}


KNOWN_DEFECTS = {
    ("H^1(D8*C2, (2, 4))", "build", None): "H = (2, 2, 2)",
    ("H^2(D8*C2, (2, 4))", "build", None): "H = (2, 2, 2, 2, 2, 2, 2, 2, 2)",
    ("H^1(Q8*C4, (2, 4))", "build", None): "H = (2, 2, 2, 4)",
    **_rejected_cocycles("H^2(D8*C2, (2, 4))", "class_of", (0, 1, 2, 3)),
    **_rejected_cocycles("H^2(D8*C2, (2, 4))", "classes_equal", (0, 1, 2, 3)),
    **_rejected_cocycles("H^1(C4*C4, (2, 4))", "class_of", (0, 3)),
    **_rejected_cocycles("H^1(C4*C4, (2, 4))", "classes_equal", (0, 1)),
    **_rejected_cocycles("H^2(C4*C4, (2, 4))", "class_of", (0, 1, 2, 3)),
    **_rejected_cocycles("H^2(C4*C4, (2, 4))", "classes_equal", (0, 1, 2, 3)),
    **_rejected_cocycles("H^1(Q8*C4, (2, 4))", "class_of", (1, 2)),
    **_rejected_cocycles("H^1(Q8*C4, (2, 4))", "classes_equal", (1, 2)),
}

class Classes:
    name = "classes"
    latency = "query"

    def setup(self, seed: int):
        # The query values come from QUERY_SEED, so every seed runs the same
        # operations and the known defects fail the same queries whatever
        # the seed; the seed orders the queries of each build.
        mods = cohomkit_modules()
        rng = np.random.default_rng(QUERY_SEED)
        order = np.random.default_rng(seed)
        cache, builds = {}, []
        for gname, coeffs, degree in BUILDS:
            if gname not in cache:
                cache[gname] = _group(mods, gname)
            G = cache[gname]
            M = mods["groups"].trivial_module(G, mods["abelian"].FinAbGroup(coeffs))
            queries = []
            for q in range(QUERIES_PER_KIND):
                x = rng.integers(0, 1 << 30, size=64)
                y = x if rng.integers(2) else rng.integers(0, 1 << 30, size=64)
                b = rng.integers(0, 1 << 30, size=(G.size,) * (degree - 1) + (len(coeffs),)) % np.array(coeffs)
                db = refs.trivial_differential(G.mul, b, degree - 1, coeffs)
                queries.append((q, x, y, db))
            queries = [queries[i] for i in order.permutation(len(queries))]
            mix = rng.integers(0, 1 << 30, size=64)
            builds.append((gname, coeffs, degree, G, M, queries, mix))
        return {"mods": mods, "builds": builds}

    def run_pass(self, state, tracer, res: PassResult) -> PassResult:
        mods = state["mods"]
        cohomology, Cochain = mods["cohomology"].cohomology, mods["cochain"].Cochain
        for gname, coeffs, degree, G, M, queries, mix in state["builds"]:
            label = f"H^{degree}({gname}, {coeffs})"
            with tracer.span("bench.build"):
                t0 = time.perf_counter()
                try:
                    H, got = cohomology(M, degree), ""
                except Exception as exc:
                    H, got = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            want = refs.uct(gname, coeffs, degree)
            if H is not None and not refs.same_group(H.group.orders, want):
                got = f"H = {tuple(int(o) for o in H.group.orders)}"
            elif H is not None:
                try:
                    if not self._reps_are_cocycles(H, G, coeffs, degree, mix):
                        got = "a combination of representatives is not a cocycle"
                except Exception as exc:  # rep() raising is a wrong answer too
                    got = f"{type(exc).__name__}: {exc}"
            self._add(res, "build", label, "build", dt, got, f"expected {want}")
            if H is None:
                continue
            orders = np.array(H.group.orders, dtype=np.int64)
            for q, x_raw, y_raw, db in queries:
                x = tuple(int(v) for v in x_raw[: len(orders)] % orders) if len(orders) else ()
                y = tuple(int(v) for v in y_raw[: len(orders)] % orders) if len(orders) else ()
                dbc = Cochain(M, degree, db)
                for kind in ("class_of", "classes_equal", "coboundary_witness"):
                    with tracer.span("bench.query"):
                        t0 = time.perf_counter()
                        try:
                            if kind == "class_of":
                                out = H.class_of(H.rep(H.group.element(x)) + dbc).coords.coords
                            elif kind == "classes_equal":
                                out = H.classes_equal(H.rep(H.group.element(x)) + dbc, H.rep(H.group.element(y)))
                            else:
                                out = H.coboundary_witness(dbc)
                            got = ""
                        except Exception as exc:
                            out, got = None, f"{type(exc).__name__}: {exc}"
                        dt = time.perf_counter() - t0
                    if not got:
                        got = self._query_error(kind, out, x, y, G, db, degree, coeffs)
                    self._add(res, "query", label, kind, dt, got, f"query {q}", q)
        return res

    @staticmethod
    def _query_error(kind, out, x, y, G, db, degree, coeffs) -> str:
        """Why a query's answer is wrong, or "" when it checks out."""
        if kind == "class_of":
            got = tuple(int(v) for v in out)
            return "" if got == x else f"class {got}, expected {x}"
        if kind == "classes_equal":
            return "" if out == (x == y) else f"classes_equal {out}, expected {x == y}"
        if out is None:
            return "no witness"
        d = refs.trivial_differential(G.mul, out.table, degree - 1, coeffs)
        return "" if np.array_equal(d, db) else "d(witness) != d(b)"

    @staticmethod
    def _add(res: PassResult, op_kind: str, label: str, kind: str, dt: float, got: str,
             context: str, q: int | None = None) -> None:
        """Record one operation; ``got`` is empty when its answer checked out."""
        known = bool(got) and KNOWN_DEFECTS.get((label, kind, q)) == got
        item = label if q is None else f"{label} {kind} {q}"
        detail = f"{label} {kind}: {got} ({context})" if got else ""
        res.add(Op(op_kind, item, dt, not got, known_defect=known, detail=detail))

    @staticmethod
    def _reps_are_cocycles(H, G, coeffs, degree, mix) -> bool:
        """A random combination of the generator representatives is a cocycle."""
        P = H.group
        if not P.rank:
            return True
        coords = tuple(int(v) for v in mix[: P.rank] % np.array(P.orders))
        table = H.rep(P.element(coords)).table
        return refs.is_trivial_cocycle(G.mul, table, degree, coeffs)


WORKLOADS = {w.name: w for w in (Multiplier(), Scenarios(), Classes())}
