"""cohomkit benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload multiplier|scenarios|classes \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout.  Set-up (import of cohomkit plus building the inputs from the
seed) runs once as a warm-up and then SETUPS_PER_PASS times before every
pass; the median of the timed set-ups is reported.  Passes over the workload
repeat while another typical pass still fits in ``--seconds``, at least
MIN_PASSES of them.  With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are printed, including the tracing overhead against the untraced
passes of the same run.  The last line of
standard output is one JSON object; the lines before it are for people.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import layer_of  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-ups before each pass; the last one's inputs are used.  Spread over the
# run like this, their median follows the host's typical speed during the
# run rather than its speed in one moment.
SETUPS_PER_PASS = 2
# Passes every untraced run makes, even past --seconds: with fewer, an item's
# median rests on too few samples, and slow hosts would get fewer of them.
MIN_PASSES = 3
LAYERS = ("intmat", "abelian", "groups", "cochain", "cohomology", "brauer", "crossed",
          "nonab", "squares", "frontdoor")
CHECK_NAMES = ("cohomology", "bk-build", "b0", "br-nr", "sha", "verify-shapiro",
               "verify-bk", "q-relevable", "neutrality")

# Boundaries that must record calls in a traced pass of each workload.
EXPECTED_SPANS = {
    "multiplier": (
        "intmat.kernel_uniform", "intmat.modspan.build", "intmat.modspan.query",
        "abelian.presentation", "abelian.kernel", "groups.generated_subgroup",
        "groups.subgroup_group", "groups.quotient_group", "cochain.differential",
        "cohomology.build", "cohomology.query", "brauer.b0_oracle", "brauer.b0_closed_form",
        "brauer.commuting_pairs",
    ),
    "scenarios": (
        "intmat.kernel_uniform", "intmat.modspan.build", "intmat.modspan.query",
        "abelian.presentation", "groups.induced_module", "cochain.differential",
        "cochain.cup", "cochain.shapiro", "cohomology.build", "cohomology.query",
        "brauer.br_nr_bk", "brauer.sha_cyclic", "crossed.build_bk", "crossed.as_table_group",
        "crossed.q_power_and_relevable", "crossed.delta_twisted_formula",
        "crossed.delta_twisted_definitional", "nonab.bruteforce", "nonab.delta",
        "squares.verify", "scenario.parse", "report.render",
        *(f"checks.{n}" for n in CHECK_NAMES if n != "b0"),
    ),
    "classes": (
        "intmat.kernel_uniform", "intmat.modspan.build", "intmat.modspan.query",
        "abelian.presentation", "groups.generated_subgroup", "cochain.differential",
        "cohomology.build", "cohomology.query",
    ),
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def purge_cohomkit() -> None:
    for name in [n for n in sys.modules if n == "cohomkit" or n.startswith("cohomkit.")]:
        del sys.modules[name]


def per_layer(snap: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    c, t, extra = Counter(snap["counts"]), defaultdict(float, snap["self_s"]), snap["extra"]

    def layer_self(layer):
        return sum(v for k, v in t.items() if layer_of(k) == layer)

    builds = c["cohomology.build"]
    m = {
        "intmat.kernel_uniform.calls": (c["intmat.kernel_uniform"], "count"),
        "intmat.kernel_uniform.self_s": (t["intmat.kernel_uniform"], "s"),
        "intmat.kernel_uniform.entries": (c["intmat.kernel_uniform.entries"], "count"),
        "intmat.modspan.builds": (c["intmat.modspan.build"], "count"),
        "intmat.modspan.build_self_s": (t["intmat.modspan.build"], "s"),
        "intmat.modspan.queries": (c["intmat.modspan.query"], "count"),
        "intmat.modspan.query_self_s": (t["intmat.modspan.query"], "s"),
        "abelian.presentation.builds": (c["abelian.presentation"], "count"),
        "abelian.presentation.self_s": (t["abelian.presentation"], "s"),
        "groups.calls": (sum(v for k, v in c.items() if k.startswith("groups.")), "count"),
        "cochain.differential.calls": (c["cochain.differential"], "count"),
        "cochain.differential.self_s": (t["cochain.differential"], "s"),
        "cochain.cup.self_s": (t["cochain.cup"], "s"),
        "cohomology.build.calls": (builds, "count"),
        "cohomology.build.self_s": (t["cohomology.build"], "s"),
        "cohomology.build.tableau_entries": (c["cohomology.build.tableau_entries"], "count"),
        "cohomology.build.distinct_ratio": (snap["keys"] / builds if builds else 0.0, "ratio"),
        "cohomology.query.calls": (c["cohomology.query"], "count"),
        "cohomology.query.self_s": (t["cohomology.query"], "s"),
        "cohomology.refused": (c["cohomology.refused"], "count"),
        "brauer.b0_oracle.self_s": (t["brauer.b0_oracle"], "s"),
        "brauer.b0_closed_form.self_s": (t["brauer.b0_closed_form"], "s"),
        "brauer.commuting_pairs.self_s": (t["brauer.commuting_pairs"], "s"),
        "brauer.subgroups_visited": (c["brauer.subgroups_visited"], "count"),
        "brauer.f128.cohomology_builds": (extra.get("f128.cohomology.build", 0), "count"),
        "brauer.f128.subgroups_visited": (extra.get("f128.brauer.subgroups_visited", 0), "count"),
        "squares.verify.self_s": (t["squares.verify"], "s"),
        "squares.comparisons": (c["squares.comparisons"], "count"),
        "crossed.build_bk.self_s": (t["crossed.build_bk"], "s"),
        "crossed.as_table_group.self_s": (t["crossed.as_table_group"], "s"),
        "crossed.q_power_and_relevable.self_s": (t["crossed.q_power_and_relevable"], "s"),
        "crossed.delta_twisted_formula.self_s": (t["crossed.delta_twisted_formula"], "s"),
        "crossed.delta_twisted_definitional.self_s": (t["crossed.delta_twisted_definitional"], "s"),
        "crossed.center_equals_embedded_Z.self_s": (t["crossed.center_equals_embedded_Z"], "s"),
        "nonab.bruteforce.self_s": (t["nonab.bruteforce"], "s"),
        "nonab.delta.self_s": (t["nonab.delta"], "s"),
        "scenario.parse_s": (t["scenario.parse"], "s"),
        "report.render_s": (t["report.render"], "s"),
        "bench.unattributed_s": (sum(v for k, v in t.items() if k.startswith("bench.")), "s"),
        "trace.spans": (sum(c[k] for k in t), "count"),
    }
    for name in CHECK_NAMES:
        m[f"checks.{name}.self_s"] = (t[f"checks.{name}"], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self(layer), "s")
    return m


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cohomkit" / "__init__.py").is_file():
        print(f"perfbench: no cohomkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    setup_times = []

    def setup():
        """Import cohomkit afresh and build the inputs, timed as set-up.

        Every pass starts from a fresh set-up, so nothing the program keeps
        in its modules or on its inputs survives from one pass to the next:
        each pass sees its inputs for the first time, as a command-line run
        would."""
        purge_cohomkit()
        t0 = time.perf_counter()
        importlib.import_module("cohomkit")
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
        return state

    setup()  # warm-up: a fresh checkout compiles cohomkit's bytecode here
    setup_times.clear()
    import cohomkit

    if Path(cohomkit.__file__).resolve().parent != (SRC / "cohomkit").resolve():
        print(f"perfbench: imported cohomkit from {cohomkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy

    from tracer import Tracer, check_coverage, install
    from workloads import Op, PassResult

    print(
        f"# env python={platform.python_version()} numpy={numpy.__version__} "
        f"cohomkit={cohomkit.__version__} git={git_sha()} nproc={os.cpu_count()} "
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
    )
    tracer = Tracer()
    passes, snaps, pass_wall = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for _ in range(SETUPS_PER_PASS):
            state = setup()
        gc.collect()  # garbage of the last pass is not this pass's cost
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            install(tracer)
            leaks = check_coverage(tracer)
            if leaks:
                print("perfbench: unwrapped boundaries: " + ", ".join(leaks), file=sys.stderr)
                return 1
        tracer.run_id = len(passes)
        tracer.active = traced
        res = workload.run_pass(state, tracer, PassResult())
        tracer.active = False
        passes.append((traced, res))
        if traced:
            snaps.append({"counts": dict(tracer.counts), "self_s": dict(tracer.self_s),
                          "keys": len(tracer.keys), "extra": res.extra})
        # start another pass only if a typical pass still fits in the time
        pass_wall.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = snaps if args.trace else len(passes) >= MIN_PASSES
        if enough and elapsed + statistics.median(pass_wall) > args.seconds:
            break

    # Every pass issues the same operations, so a run attempts the
    # operations of one pass; every later pass must give each of them the
    # same outcome, or the run is incorrect.
    ops = passes[0][1].ops
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if not op.known_defect]
    for n, (_, res) in enumerate(passes[1:], 1):
        outcome = [(op.item, op.ok, op.detail) for op in res.ops]
        if outcome != [(op.item, op.ok, op.detail) for op in ops]:
            unexpected.append(Op("pass", f"pass {n}", 0.0, False, detail="outcomes differ from pass 0"))
    for op in unexpected[:10]:
        print(f"# UNEXPECTED FAILURE {op.kind}: {op.detail}")
    known = sorted({op.detail for op in failed if op.known_defect})
    for detail in known[:25]:
        print(f"# known defect: {detail}")
    plain = [res for traced, res in passes if not traced]
    # Every pass issues the same items in the same order.  Each item's time
    # is its median over the passes: on a shared host the same call can take
    # 1.5 times as long from one second to the next, and whether a run meets
    # such a fast or slow spell moves an item's minimum far more than its
    # median.
    lat = [statistics.median(op.seconds * 1000 for op in same)
           for same in zip(*(res.ops for res in plain)) if same[0].kind == workload.latency]
    pass_typical = sum(statistics.median(v) for v in zip(*(res.parts for res in plain)))
    fail_share = len(failed) / len(ops)
    print(f"# passes={len(passes)} {workload.latency}_items={len(lat)} attempted={len(ops)} "
          f"failed={len(failed)} unexpected={len(unexpected)} fail_share={fail_share:.4f}")
    # not end-to-end metrics: per-item percentiles spread more from run to
    # run than the sums in wall_s
    p = workload.latency
    print(f"# metric {p}_p50_ms {statistics.median(lat):.6f} ms, {p}_p90_ms {percentile(lat, 0.9):.6f} ms "
          f"(over {len(lat)} {p}s)")
    kinds = sorted({op.kind for op in plain[0].ops})
    for kind in kinds:
        per_kind = [[op.seconds for op in res.ops if op.kind == kind] for res in plain]
        typical = sum(statistics.median(samples) for samples in zip(*per_kind))
        print(f"# metric {kind}_s {typical:.6f} s (sum over {len(per_kind[0])} {kind}s of the median over passes)")
    for key in sorted({k for res in plain for k, v in res.extra.items() if isinstance(v, float)}):
        vals = [res.extra[key] for res in plain if key in res.extra]
        print(f"# metric {key} {statistics.median(vals):.6f} s (median over {len(vals)} passes)")

    print("# pass_s " + " ".join(f"{r.timed_s:.3f}{'t' if t else ''}" for t, r in passes))

    if args.trace:
        missing = [n for n in EXPECTED_SPANS[args.workload] if not snaps[0]["counts"].get(n)]
        if missing:
            print("perfbench: traced boundaries recorded no calls: " + ", ".join(missing),
                  file=sys.stderr)
            return 1
        layers = [per_layer(s) for s in snaps]
        metrics = {}
        for name, (value, unit) in layers[0].items():
            if unit == "s":
                value = statistics.median(m[name][0] for m in layers)
            metrics[name] = {"value": value, "unit": unit}
        untraced = statistics.median(res.timed_s for traced, res in passes if not traced)
        traced_s = statistics.median(res.timed_s for traced, res in passes if traced)
        metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.traced_wall_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead"] = {"value": traced_s / untraced - 1, "unit": "ratio"}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": pass_typical, "unit": "s"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"
            },
        }
    for name, m in metrics.items():
        print(f"# metric {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
