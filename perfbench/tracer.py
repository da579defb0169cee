"""Span tracer that wraps cohomkit's public entry points from the outside.

Nothing under ``src/`` is edited.  ``install`` replaces each traced function
or method by a wrapper in every cohomkit namespace that holds a reference to
it (``from .intmat import kernel_uniform as _kernel_uniform`` included), so a
call made through any alias is recorded.  ``check_coverage`` then proves that
no namespace still holds an unwrapped original.

A span has a name, start, end, parent span and run id (the pass number).  Self
time of a span is its duration minus the time covered by its direct child
spans; it is summed per span name as spans close, and the span log is kept
in memory and written out at exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Spans kept in the log of one traced pass for ``Tracer.dump``.
LOG_CAP = 200_000
# Spans named with these prefixes belong to the scenario front door.
FRONT_DOOR = ("scenario.", "checks.", "report.")


def layer_of(name: str) -> str:
    return "frontdoor" if name.startswith(FRONT_DOOR) else name.split(".", 1)[0]


class Tracer:
    """Span recorder.  Self times are summed as spans close; the first
    LOG_CAP spans of a traced pass are also kept for ``dump``."""

    def __init__(self):
        self.active = False
        self.run_id = 0
        self.log: list[tuple] = []  # (name, start, end, parent, run_id)
        self.stack: list[list] = []  # open spans: [name, start, child_time, log_index]
        self.counts: Counter = Counter()  # span calls plus custom counters
        self.self_s: defaultdict = defaultdict(float)
        self.keys: set = set()  # distinct cohomology (group, module, degree) keys
        self.originals: dict[int, tuple[str, object]] = {}

    def _open(self, name: str) -> list:
        parent = self.stack[-1][3] if self.stack else -1
        idx = -1
        if len(self.log) < LOG_CAP:
            idx = len(self.log)
            self.log.append((name, 0.0, 0.0, parent, self.run_id))
        self.counts[name] += 1
        rec = [name, time.perf_counter(), 0.0, idx]
        self.stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        end = time.perf_counter()
        name, start, child, idx = rec
        self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            self.log[idx] = (name, start, end, self.log[idx][3], self.log[idx][4])

    def wrap(self, name: str, fn, after=None, on_error=None):
        """Wrapper recording a span around ``fn``.

        ``after(tracer, args, result)`` adds counters on success;
        ``on_error(tracer, exc)`` adds counters when ``fn`` raises.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            else:
                if after is not None:
                    after(tracer, args, out)
                return out
            finally:
                tracer._close(rec)

        traced.__wrapped_by_perfbench__ = True
        self.originals[id(fn)] = (name, fn)
        return traced

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span around one workload item."""
        if not self.active:
            yield
            return
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def reset(self) -> None:
        self.log.clear()
        self.stack.clear()
        self.counts.clear()
        self.self_s.clear()
        self.keys.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.log:
                fh.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run})
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Counters attached to particular boundaries
# ---------------------------------------------------------------------------


def _kernel_entries(tr: Tracer, args, out):
    A = args[0]
    shape = getattr(A, "shape", None)
    if shape is None or len(shape) != 2:
        rows = len(A)
        cols = len(A[0]) if rows else 0
    else:
        rows, cols = shape
    tr.counts["intmat.kernel_uniform.entries"] += int(rows) * int(cols)


def _cohomology_built(tr: Tracer, args, out):
    H = args[0]
    if hasattr(H, "_E"):
        tr.counts["cohomology.build.tableau_entries"] += int(H._E.size)
    M = H.module
    tr.keys.add(
        (M.group.mul.tobytes(), tuple(M.ab.orders), M.act.tobytes(), H.degree)
    )


def _cohomology_refused(tr: Tracer, exc):
    from cohomkit.cohomology import BoundExceeded

    if isinstance(exc, BoundExceeded):
        tr.counts["cohomology.refused"] += 1


def _subgroups_visited(tr: Tracer, args, out):
    tr.counts["brauer.subgroups_visited"] += len(out)


def _square_comparisons(tr: Tracer, args, out):
    tr.counts["squares.comparisons"] += sum(int(r.checked) for r in out)


# ---------------------------------------------------------------------------
# The traced boundaries
# ---------------------------------------------------------------------------

# (module, attribute, span name, after, on_error) for module-level functions.
FUNCTIONS = [
    ("intmat", "kernel_uniform", "intmat.kernel_uniform", _kernel_entries, None),
    ("abelian", "kernel", "abelian.kernel", None, None),
    ("abelian", "image_size", "abelian.image_size", None, None),
    ("abelian", "solve_preimage", "abelian.solve_preimage", None, None),
    ("groups", "generated_subgroup", "groups.generated_subgroup", None, None),
    ("groups", "subgroup_group", "groups.subgroup_group", None, None),
    ("groups", "quotient_group", "groups.quotient_group", None, None),
    ("groups", "cyclic_subgroups", "groups.cyclic_subgroups", None, None),
    ("groups", "all_subgroups", "groups.all_subgroups", None, None),
    ("groups", "induced_module", "groups.induced_module", None, None),
    ("groups", "restrict_module", "groups.restrict_module", None, None),
    ("groups", "tensor_module", "groups.tensor_module", None, None),
    ("groups", "dual_module", "groups.dual_module", None, None),
    ("groups", "quotient_module", "groups.quotient_module", None, None),
    ("groups", "direct_product", "groups.direct_product", None, None),
    ("cochain", "differential", "cochain.differential", None, None),
    ("cochain", "cup", "cochain.cup", None, None),
    ("cochain", "pointwise_tensor", "cochain.pointwise_tensor", None, None),
    ("cochain", "conjugation_action", "cochain.conjugation_action", None, None),
    ("cochain", "shapiro_forward", "cochain.shapiro", None, None),
    ("cochain", "shapiro_inverse_1", "cochain.shapiro", None, None),
    ("cochain", "shapiro_inverse_2", "cochain.shapiro", None, None),
    ("cochain", "sh_prime", "cochain.shapiro", None, None),
    ("brauer", "b0_oracle", "brauer.b0_oracle", None, None),
    ("brauer", "b0_closed_form", "brauer.b0_closed_form", None, None),
    ("brauer", "b0_closed_form_cp", "brauer.b0_closed_form", None, None),
    ("brauer", "commuting_pair_subgroups", "brauer.commuting_pairs", _subgroups_visited, None),
    ("brauer", "br_nr_bk", "brauer.br_nr_bk", None, None),
    ("brauer", "sha_cyclic", "brauer.sha_cyclic", None, None),
    ("crossed", "build_bk", "crossed.build_bk", None, None),
    ("crossed", "q_power_and_relevable", "crossed.q_power_and_relevable", None, None),
    ("crossed", "delta_twisted_formula", "crossed.delta_twisted_formula", None, None),
    ("crossed", "delta_twisted_definitional", "crossed.delta_twisted_definitional", None, None),
    ("crossed", "center_equals_embedded_Z", "crossed.center_equals_embedded_Z", None, None),
    ("crossed", "is_nondegenerate", "crossed.is_nondegenerate", None, None),
    ("nonab", "is_neutral_bruteforce", "nonab.bruteforce", None, None),
    ("nonab", "neutrality_via_delta", "nonab.delta", None, None),
    ("squares", "verify_shapiro_squares", "squares.verify", _square_comparisons, None),
    ("scenario", "parse_scenarios", "scenario.parse", None, None),
    ("report", "render", "report.render", None, None),
]

# (module, class, method, span name, after, on_error) for methods.
METHODS = [
    ("intmat", "ModSpan", "__init__", "intmat.modspan.build", None, None),
    ("intmat", "ModSpan", "reduce", "intmat.modspan.query", None, None),
    ("intmat", "ModSpan", "solve", "intmat.modspan.query", None, None),
    ("abelian", "Presentation", "__init__", "abelian.presentation", None, None),
    ("cohomology", "CohomologyGroup", "__init__", "cohomology.build",
     _cohomology_built, _cohomology_refused),
    ("cohomology", "CohomologyGroup", "is_cocycle", "cohomology.query", None, None),
    ("cohomology", "CohomologyGroup", "class_of", "cohomology.query", None, None),
    ("cohomology", "CohomologyGroup", "rep", "cohomology.query", None, None),
    ("cohomology", "CohomologyGroup", "is_coboundary", "cohomology.query", None, None),
    ("cohomology", "CohomologyGroup", "classes_equal", "cohomology.query", None, None),
    ("cohomology", "CohomologyGroup", "coboundary_witness", "cohomology.query", None, None),
    ("cohomology", "CohomologyGroup", "classes", "cohomology.query", None, None),
    ("crossed", "CrossedProduct", "as_table_group", "crossed.as_table_group", None, None),
]


def _cohomkit_modules():
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "cohomkit" or name.startswith("cohomkit."))
    }


def _functions(mods):
    """Every function defined at module or class level in cohomkit, and the
    original behind each traced wrapper."""
    for mod in mods.values():
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            for fn in members:
                while hasattr(fn, "__defaults__"):
                    yield fn
                    fn = getattr(fn, "__wrapped__", None)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary in every cohomkit namespace that refers to it.

    Called once per import of cohomkit; wrappers of earlier imports are dropped."""
    import cohomkit.checks as checks

    tracer.originals.clear()
    mods = _cohomkit_modules()
    replace: dict[int, object] = {}
    for modname, attr, span, after, on_error in FUNCTIONS:
        fn = getattr(mods["cohomkit." + modname], attr)
        replace[id(fn)] = tracer.wrap(span, fn, after, on_error)
    for name, fn in checks.CHECKS.items():
        replace[id(fn)] = tracer.wrap(f"checks.{name}", fn)
    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in replace:
                setattr(mod, attr, replace[id(value)])
    # default arguments such as ``cup_fn=cup`` bind the original at definition
    for fn in _functions(mods):
        if fn.__defaults__ and any(id(d) in replace for d in fn.__defaults__):
            fn.__defaults__ = tuple(replace.get(id(d), d) for d in fn.__defaults__)
    for name, fn in list(checks.CHECKS.items()):
        checks.CHECKS[name] = replace[id(fn)]
    for modname, cls, meth, span, after, on_error in METHODS:
        klass = getattr(mods["cohomkit." + modname], cls)
        setattr(klass, meth, tracer.wrap(span, vars(klass)[meth], after, on_error))


def check_coverage(tracer: Tracer) -> list[str]:
    """Names of traced boundaries still reachable unwrapped from some namespace."""
    import cohomkit.checks as checks

    leaks = []
    mods = _cohomkit_modules()
    for mod in mods.values():
        for attr, value in vars(mod).items():
            hit = tracer.originals.get(id(value))
            if hit is not None and hit[1] is value:
                leaks.append(f"{mod.__name__}.{attr} ({hit[0]})")
    for fn in _functions(mods):
        for d in fn.__defaults__ or ():
            hit = tracer.originals.get(id(d))
            if hit is not None and hit[1] is d:
                leaks.append(f"default argument of {fn.__qualname__} ({hit[0]})")
    for name, fn in checks.CHECKS.items():
        if not getattr(fn, "__wrapped_by_perfbench__", False):
            leaks.append(f"cohomkit.checks.CHECKS[{name!r}]")
    return leaks
