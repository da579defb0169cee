"""Check implementations behind the scenario runner.

Every check returns a CheckRecord; a 'fail' always carries a witness, and a
work-bound refusal becomes 'skipped' (exit code 3), never a silent pass.
"""

from __future__ import annotations

import time

import numpy as np

from .abelian import same_invariants
from .brauer import (
    b0_closed_form,
    b0_closed_form_cp,
    b0_oracle,
    br_nr_bk,
    lambda_middle_identity,
    sha_cyclic,
)
from .cochain import Cochain
from .cohomology import BoundExceeded, cohomology
from .crossed import (
    TwistedForm,
    build_bk,
    center_equals_embedded_Z,
    delta_twisted_definitional,
    delta_twisted_formula,
    is_nondegenerate,
    q_power_and_relevable,
)
from .groups import LocalizationContext, Subgroup, dual_module, induced_module, subgroup_group, trivial_module
from .nonab import (
    Neutrality,
    bk_action_perms,
    central_shift,
    cocycle_from_action,
    is_neutral_bruteforce,
    neutrality_via_delta,
)
from .report import CheckRecord
from .scenario import CheckSpec, Scenario
from .squares import verify_shapiro_squares


def _timed(fn):
    def wrapped(sc: Scenario, spec: CheckSpec) -> CheckRecord:
        t0 = time.perf_counter()
        try:
            rec = fn(sc, spec)
        except BoundExceeded as e:
            rec = CheckRecord(spec.name, "skipped", {"reason": str(e)})
        rec.time_ms = int((time.perf_counter() - t0) * 1000)
        return rec

    return wrapped


def _datum(sc: Scenario):
    return build_bk(sc.base, sc.galois)


@_timed
def check_bk_build(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    d = _datum(sc)
    data = {
        "M": d.Mmod.ab,
        "Z": d.Z,
        "F-order": d.cp.order,
        "phi-surjective": True,
        "expected-order": d.Z.cardinality * d.Mmod.ab.cardinality ** 2,
    }
    ok = d.cp.order == data["expected-order"]
    if not ok:
        return CheckRecord(spec.name, "fail", data, {"orders": (d.cp.order, data["expected-order"])})
    return CheckRecord(spec.name, "pass", data)


def _random_triples(cp, rng) -> np.ndarray:
    """200 random triples of elements of F, shape (200, 3, kz + ka).

    Each element is a row z + a.  One call draws them all, and gives the same
    stream as drawing z, then a, for each element of each triple in turn.
    """
    highs = np.concatenate([np.maximum(cp.zmods, 1), np.maximum(cp.amods, 1)])
    return rng.integers(0, np.tile(highs, 600)).reshape(200, 3, cp.kz + cp.ka)


@_timed
def check_verify_bk(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    d = _datum(sc)
    rng = np.random.default_rng(sc.seed)
    # group axioms on random triples, before anything builds the table of F;
    # the witness is the first failing one
    cp = d.cp
    trials = _random_triples(cp, rng)
    z, a = trials[..., : cp.kz].swapaxes(0, 1), trials[..., cp.kz :].swapaxes(0, 1)
    l = cp.mul(*cp.mul(z[0], a[0], z[1], a[1]), z[2], a[2])
    r = cp.mul(z[0], a[0], *cp.mul(z[1], a[1], z[2], a[2]))
    failed = np.flatnonzero((l[0] != r[0]).any(axis=1) | (l[1] != r[1]).any(axis=1))
    if failed.size:
        witness = {"triple": trials[failed[0]].tolist()}
        return CheckRecord(spec.name, "fail", {"associativity-trials": len(trials)}, witness)
    data = {}
    rep = center_equals_embedded_Z(d)
    data["center-is-Z"] = rep["center_is_Z"]
    data["derived-is-Z"] = rep["derived_is_Z"]
    data["nondegenerate"] = is_nondegenerate(d)
    data["associativity-trials"] = len(trials)
    # the twisted connecting map: formula path vs definitional path
    H1 = cohomology(d.Msum, 1, work_bound=sc.bound)
    if sc.twist_rows is not None:
        twist = Cochain(d.Msum, 1, sc.twist_rows)
        if not H1.is_cocycle(twist):
            return CheckRecord(
                spec.name, "fail", data, {"twist": "not a cocycle on the chosen quotient"}
            )
    else:
        twist = None
    tf = TwistedForm(d, twist)
    H2z = cohomology(d.Zmod, 2, work_bound=sc.bound)
    mismatch = None
    checked = 0
    for cls in H1.classes(cap=4096):
        f1 = delta_twisted_formula(tf, cls.rep)
        f2 = delta_twisted_definitional(tf, cls.rep)
        if not H2z.classes_equal(f1, f2):
            mismatch = {"class": cls.coords.coords}
            break
        checked += 1
    data["delta-classes-checked"] = checked
    data["lambda-middle-identity"] = lambda_middle_identity(d)
    if rep["ok"] and data["nondegenerate"] and mismatch is None and data["lambda-middle-identity"]:
        return CheckRecord(spec.name, "pass", data)
    return CheckRecord(spec.name, "fail", data, mismatch or {"structure": str(rep)})


@_timed
def check_b0(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    d = _datum(sc)
    data = {}
    closed = b0_closed_form_cp(d)
    data["closed-form"] = closed
    if d.cp.order <= 256:
        F, _ = d.cp.as_table_group(cap=512)
        table_closed = b0_closed_form(F)
        oracle = b0_oracle(F, work_bound=sc.bound)
        data["closed-form-table"] = table_closed
        data["oracle"] = oracle
        ok = same_invariants(closed, table_closed) and same_invariants(closed, oracle)
        if not ok:
            return CheckRecord(
                spec.name, "fail", data, {"closed": str(closed), "oracle": str(oracle)}
            )
        return CheckRecord(spec.name, "pass", data)
    data["oracle"] = "skipped: |F| beyond oracle bound"
    status = "skipped" if closed.cardinality == 1 else "fail"
    return CheckRecord(
        spec.name,
        status,
        data,
        None if status == "skipped" else {"closed": str(closed)},
    )


@_timed
def check_br_nr(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    d = _datum(sc)
    rep = br_nr_bk(d)
    data = {
        "kernel-size": rep.kernel_size,
        "pure-span-size": rep.pure_span_size,
        "kernel-equals-pure-span": rep.kernel_equals_pure_span,
        "quotient": rep.quotient,
    }
    ok = rep.kernel_equals_pure_span and rep.quotient.cardinality == 1
    return CheckRecord(
        spec.name,
        "pass" if ok else "fail",
        data,
        None if ok else {"quotient": str(rep.quotient)},
    )


@_timed
def check_sha(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    degree = spec.params.get("degree", 1)
    g = sc.galois
    M = dual_module(induced_module(g, Subgroup.make(g, [0]), sc.base))
    rep = sha_cyclic(M, degree, work_bound=sc.bound)
    data = {
        "degree": degree,
        "total": rep.total,
        "kernel": rep.kernel,
        "cyclic-subgroups": rep.cyclic_count,
        "verified": rep.verified,
    }
    ok = rep.verified and rep.kernel.cardinality == 1
    return CheckRecord(
        spec.name, "pass" if ok else "fail", data, None if ok else {"kernel": str(rep.kernel)}
    )


@_timed
def check_cohomology(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    degree = spec.params.get("degree", 1)
    data = {"degree": degree}
    if sc.group is not None and sc.subgroup is not None:
        M = induced_module(sc.group, sc.subgroup, sc.base)
        Hgrp, _ = subgroup_group(sc.subgroup)
        hg = cohomology(M, degree, work_bound=sc.bound)
        hh = cohomology(trivial_module(Hgrp, sc.base), degree, work_bound=sc.bound)
        data["H-induced"] = hg.group
        data["H-subgroup"] = hh.group
        ok = hg.size == hh.size
        return CheckRecord(
            spec.name,
            "pass" if ok else "fail",
            data,
            None if ok else {"sizes": (hg.size, hh.size)},
        )
    G = sc.group or sc.galois
    H = cohomology(trivial_module(G, sc.base), degree, work_bound=sc.bound)
    data["H"] = H.group
    return CheckRecord(spec.name, "pass", data)


@_timed
def check_verify_shapiro(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    ctx = None
    if sc.decomposition is not None:
        ctx = LocalizationContext(sc.group, sc.subgroup, sc.decomposition)
    results = verify_shapiro_squares(sc.group, sc.subgroup, sc.base, ctx=ctx, work_bound=sc.bound)
    data = {}
    witness = None
    worst = "pass"
    for r in results:
        data[f"square.{r.name}"] = f"{r.status}({r.checked})"
        if r.status == "fail" and witness is None:
            worst = "fail"
            witness = {"square": r.name, **(r.witness or {})}
        elif r.status == "skipped" and worst == "pass":
            worst = "skipped"
    return CheckRecord(spec.name, worst, data, witness)


@_timed
def check_q_relevable(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    q = spec.params.get("q", 3)
    d = _datum(sc)
    sigma = spec.params.get("sigma", 1 if sc.galois.size > 1 else 0)
    rep = q_power_and_relevable(d.cp, sigma, q, rng=np.random.default_rng(sc.seed))
    data = {
        "q": q,
        "sigma": sigma,
        "eligible-subgroup-size": rep.eligible_size,
        "relevable-count": rep.relevable_size,
        "generated": rep.generated,
        "power-identity-checked": rep.power_identity_checked,
    }
    return CheckRecord(
        spec.name,
        "pass" if rep.generated else "fail",
        data,
        None if rep.generated else {"eligible": rep.eligible_size, "relevable": rep.relevable_size},
    )


@_timed
def check_neutrality(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    d = _datum(sc)
    H2z = cohomology(d.Zmod, 2, work_bound=sc.bound)
    budget = spec.params.get("budget", 1 << 16)
    data = {"classes": H2z.size}
    undecided = 0
    checked = 0
    table = None
    if d.cp.order ** d.ggroup.size <= budget:
        F, idx = d.cp.as_table_group(cap=512)
        perms = bk_action_perms(d, idx)
        base = cocycle_from_action(d.ggroup, F, perms)
        table = (F, idx, base)
    classes = H2z.classes(cap=256)
    image = neutrality_via_delta(d, H2z, work_bound=sc.bound)
    for cls in classes:
        delta_neutral = cls.coords in image
        if table is not None:
            coc = central_shift(table[2], table[1], cls.rep)
            verdict, _ = is_neutral_bruteforce(coc, budget=budget)
            if verdict == Neutrality.UNDECIDED:
                undecided += 1
            else:
                brute_neutral = verdict == Neutrality.NEUTRAL
                if brute_neutral != delta_neutral:
                    return CheckRecord(
                        spec.name,
                        "fail",
                        data,
                        {"class": cls.coords.coords, "delta": delta_neutral, "brute": brute_neutral},
                    )
        else:
            undecided += 1
        checked += 1
    data["checked"] = checked
    data["undecided"] = undecided
    status = "pass" if undecided == 0 else "undecided"
    return CheckRecord(spec.name, status, data)


CHECKS = {
    "bk-build": check_bk_build,
    "verify-bk": check_verify_bk,
    "b0": check_b0,
    "br-nr": check_br_nr,
    "sha": check_sha,
    "cohomology": check_cohomology,
    "verify-shapiro": check_verify_shapiro,
    "q-relevable": check_q_relevable,
    "neutrality": check_neutrality,
}


def run_check(sc: Scenario, spec: CheckSpec) -> CheckRecord:
    return CHECKS[spec.name](sc, spec)
