"""Presentations of H^r: sizes, class decisions, connecting maps."""

import functools
import itertools
import pathlib
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cohomkit.abelian import (
    AbHom,
    FinAbGroup,
    Presentation,
    cached_preimage,
    same_invariants,
    scaled_rows,
    subgroup_span,
)
from cohomkit.checks import run_check
from cohomkit.cochain import Cochain, differential, random_cochain, zero_cochain
from cohomkit.cohomology import (
    BoundExceeded,
    CohomologyGroup,
    ShortExactSequence,
    cohomology,
    connecting_cochain,
    connecting_map,
    cyclic_cohomology_size,
)
from cohomkit.crossed import build_bk
from cohomkit.fixtures import shapiro_fixtures
from cohomkit.groups import (
    GModule,
    Subgroup,
    alternating_subgroup_s3,
    center_subgroup,
    cyclic_group,
    direct_product,
    generated_subgroup,
    induced_module,
    minimal_generating_set,
    named_group,
    subgroup_group,
    trivial_module,
)
from cohomkit.intmat import kernel_uniform, matmul_mod
from cohomkit.scenario import parse_scenarios


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 2), (4, 6), (6, 4), (2, 3)])
def test_h1_cyclic_trivial_is_hom(n, m):
    M = trivial_module(cyclic_group(n), FinAbGroup((m,)))
    assert cohomology(M, 1).size == gcd(n, m)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_h2_cyclic_matches_norm_oracle(n):
    M = trivial_module(cyclic_group(n), FinAbGroup((n,)))
    assert cohomology(M, 2).size == n == cyclic_cohomology_size(M, 2)


def test_cyclic_oracle_nontrivial_action():
    C2 = cyclic_group(2)
    M = GModule(C2, FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]])
    for r in (0, 1, 2):
        assert cohomology(M, r).size == cyclic_cohomology_size(M, r)


@pytest.mark.parametrize("degree,size", [(1, 16), (2, 64)])
def test_mixed_order_coefficients(degree, size):
    # trivial C2 x C4 coefficients: Hom(C2^2, C2xC4) has order 16, and
    # Hom(C2, C2xC4) + Ext(C2^2, C2xC4) has order 4 * 16 = 64
    M = trivial_module(named_group("C2xC2"), FinAbGroup((2, 4)))
    H = cohomology(M, degree)
    assert H.size == size
    rng = np.random.default_rng(degree)
    for _ in range(4):
        db = differential(random_cochain(M, degree - 1, rng))
        assert H.class_of(db).is_zero
        witness = H.coboundary_witness(db)
        assert witness is not None and (differential(witness).table == db.table).all()
        x = H.group.random_element(random.Random(int(rng.integers(1 << 30))))
        assert H.class_of(H.rep(x) + db).coords == x


def test_sampling_that_does_not_converge_exceeds_the_bound(monkeypatch):
    # a certificate that always flags a pair, with a condition every row meets
    def flag_one_pair(self, kern):
        return [(0, 0)], np.zeros((1, kern.shape[0]), dtype=np.int64)

    monkeypatch.setattr(CohomologyGroup, "_certificate", flag_one_pair)
    with pytest.raises(BoundExceeded, match="did not converge"):
        cohomology(trivial_module(cyclic_group(4), FinAbGroup((2,))), 2)


def _slice_conditions(H):
    """Every generator-slot condition on the slices, from the differential.

    Entry [xi, g] holds the W * k conditions of the pair (x, g), x = X[xi]:
    column j is the cocycle law's defect at (x, g) on u = H.cochain(e_j),
    u(x g, .) - x.u(g, .) - ... = -d(u)(x, g, .), scaled from Z/o_i to Z/L.
    """
    d = np.stack([-differential(H.cochain(e)).table[H.X] for e in np.eye(H.s, dtype=np.int64)], axis=-1)
    orders = np.tile(H.module.ab.orders, len(H.X) * H.n * H.W)
    return scaled_rows(d.reshape(-1, H.s), orders, H.L).reshape(len(H.X), H.n, H.W * H.k, H.s)


# H^2 builds whose sampled conditions miss some: each takes a second round
TWO_ROUND_BUILDS = {
    "D8xD8 on Z2": (("D8", "D8"), (2,)),
    "C2xC2xC4xC4 on Z2": (("C2xC2", "C4", "C4"), (2,)),
    "C2xC2xC4xC4 on Z4": (("C2xC2", "C4", "C4"), (4,)),
    "Q8xC4 on C2xC2": (("Q8", "C4"), (2, 2)),
}


def _two_round_module(name):
    factors, coeffs = TWO_ROUND_BUILDS[name]
    G = named_group(factors[0])
    for factor in factors[1:]:
        G = direct_product(G, named_group(factor))
    return trivial_module(G, FinAbGroup(coeffs))


def _record_builds(monkeypatch) -> list:
    """Record each H^1 and H^2 build once its cocycles are found."""
    seen = []
    compute = CohomologyGroup._compute_cocycles

    def recorded(self):
        compute(self)
        seen.append(self)

    monkeypatch.setattr(CohomologyGroup, "_compute_cocycles", recorded)
    return seen


def _same_subgroup(H, rows_a, rows_b) -> bool:
    orders = H.ambient_orders
    return np.array_equal(subgroup_span(orders, rows_a).basis, subgroup_span(orders, rows_b).basis)


def _is_cocycle_by_differential(H, vec) -> bool:
    return not differential(H.cochain(vec)).table.any()


def _tree_slots(H) -> np.ndarray:
    """Mask of the slice entries u(x, g) on the tree edges (x g, x, g); none in degree 1."""
    slots = np.zeros((len(H.X), H.W, H.k), dtype=bool)
    if H.degree == 2:
        for _, xis, gs in H._levels:
            slots[xis, gs] = True
    return slots.reshape(-1)


def _check_gauge(seen):
    """z_rows = [B; Z'] with Z' cocycles that vanish on the tree edges, and
    span(z_rows) is the solution set of every generator-slot condition."""
    assert seen
    for H in seen:
        nb = len(H.b_rows)
        assert np.array_equal(H.z_rows[:nb], H.b_rows)
        assert not H.z_rows[nb:, _tree_slots(H)].any()
        assert all(_is_cocycle_by_differential(H, z) for z in H.z_rows[nb:])
        every = _slice_conditions(H).reshape(-1, H.s)
        assert _same_subgroup(H, H.z_rows, kernel_uniform(every, H.L))


def _conformance_builds():
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.scn")):
        for sc in parse_scenarios(path.read_text()):
            for spec in sc.checks:
                run_check(sc, spec)


GAUGE_BUILDS = {
    "conformance vectors": _conformance_builds,
    "C2xC2 on C2xC4": lambda: [cohomology(trivial_module(named_group("C2xC2"), FinAbGroup((2, 4))), r) for r in (1, 2)],
    "C4 on C2xC4": lambda: [cohomology(_mixed_order_module_with_action(), r) for r in (1, 2)],
    "S3 on Ind C3": lambda: [cohomology(CERTIFICATE_MODULES["S3 on Ind C3"](), r) for r in (1, 2)],
    "C2 acting by -1 on Z4": lambda: [
        cohomology(GModule(cyclic_group(2), FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]]), r) for r in (1, 2)
    ],
}


@pytest.mark.parametrize("name", sorted(GAUGE_BUILDS))
def test_first_kernel_is_the_coboundaries_plus_a_few_generators(monkeypatch, name):
    """Z is spanned by B and a few gauge rows, each a cocycle vanishing on the tree edges."""
    seen = _record_builds(monkeypatch)
    GAUGE_BUILDS[name]()
    _check_gauge(seen)


def test_a_non_cocycle_in_the_first_kernel_takes_a_later_round(monkeypatch):
    # add to the first kernel a gauge vector that is not a cocycle: the
    # certificate must catch it and the next round must remove it
    M = trivial_module(named_group("C2xC2"), FinAbGroup((2, 4)))
    reference = cohomology(M, 2)
    # the first kernel is over the coefficients of the free unit slice vectors
    free = np.eye(reference.s, dtype=np.int64)[~_tree_slots(reference)]
    coeffs = np.eye(len(free), dtype=np.int64)
    stray = next(e for e, u in zip(coeffs, free) if not _is_cocycle_by_differential(reference, u))
    calls = []

    def widened(A, L):
        K = kernel_uniform(A, L)
        calls.append(K)
        return np.concatenate([K, stray[None]]) if len(calls) == 1 else K

    monkeypatch.setattr("cohomkit.cohomology._kernel_uniform", widened)
    seen = _record_builds(monkeypatch)
    H = cohomology(M, 2)
    assert len(calls) == 2
    _check_gauge(seen)
    assert _same_subgroup(H, H.z_rows, reference.z_rows)
    assert H.group == reference.group


def test_coboundary_witnesses_share_one_span(monkeypatch):
    import cohomkit.cohomology as C

    built = []
    monkeypatch.setattr(C, "subgroup_span", lambda *a, **kw: built.append(a) or subgroup_span(*a, **kw))
    M = trivial_module(named_group("D8"), FinAbGroup((2, 4)))
    H = cohomology(M, 2)
    rng = np.random.default_rng(7)
    for _ in range(4):
        db = differential(random_cochain(M, 1, rng))
        assert (differential(H.coboundary_witness(db)).table == db.table).all()
    assert H.group.cardinality == H.size
    assert len(built) == 1


def test_a_build_that_only_tests_cocycles_sweeps_no_coboundary_span():
    H = cohomology(trivial_module(named_group("D8"), FinAbGroup((2, 4))), 2)
    assert H.is_cocycle(H.cochain(H.z_rows[-1]))
    stray = next(e for e in np.eye(H.s, dtype=np.int64) if not _is_cocycle_by_differential(H, e))
    assert not H.is_cocycle(H.cochain(stray))
    assert "_b_span" not in vars(H)


def test_b0_oracle_sweeps_no_coboundary_span(monkeypatch):
    """The oracle presents Z/(B + carries) itself, so its build never sweeps B alone."""
    import cohomkit.cohomology as C
    from cohomkit.brauer import b0_oracle

    built = []
    monkeypatch.setattr(C, "subgroup_span", lambda *a, **kw: built.append(a) or subgroup_span(*a, **kw))
    assert b0_oracle(direct_product(named_group("D8"), cyclic_group(2))).is_trivial
    assert built == []


def _ind_from_c2_of_d8xc2(A):
    G = direct_product(named_group("D8"), cyclic_group(2))
    return induced_module(G, generated_subgroup(G, [1]), A)


GAUGE_MODULES = {
    **{f"Ind {fx.name}": (lambda fx=fx: induced_module(fx.G, fx.H, fx.A)) for fx in shapiro_fixtures()},
    **{f"Ind C2 to D8xC2 on {a}": (lambda a=a: _ind_from_c2_of_d8xc2(FinAbGroup(a))) for a in [(2,), (4,), (3,)]},
    "C2xC2 on C2xC4": lambda: trivial_module(named_group("C2xC2"), FinAbGroup((2, 4))),
    "C4 on C2xC4": lambda: _mixed_order_module_with_action(),
    "C2 acting by -1 on Z4": lambda: GModule(cyclic_group(2), FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]]),
}


def _check_class_decisions_in_the_gauge(H, rng, most=64):
    """The gauge presentation against the full one, and every class decision
    on up to ``most`` classes x: rep(x) plus a coboundary is read as x."""
    orders = H.ambient_orders
    full = Presentation(orders, H.z_rows, H.b_rows)
    assert full.group.orders == H.group.orders
    span_b = subgroup_span(orders, H.b_rows)
    assert all(span_b.contains(row) for row in H.b_gauge)  # B' is inside B
    assert _same_subgroup(H, np.concatenate([H.z_gauge, H.b_rows]), H.z_rows)
    for x in itertools.islice(H.group.elements(), most):
        db = differential(random_cochain(H.module, H.degree - 1, rng))
        assert H.class_of(H.rep(x) + db).coords == x
        assert H.is_coboundary(db) and H.classes_equal(H.rep(x) + db, H.rep(x))
        witness = H.coboundary_witness(db)
        assert witness is not None and differential(witness) == db


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(GAUGE_MODULES))
def test_class_decisions_in_the_gauge_match_the_full_coordinates(name, degree):
    H = cohomology(GAUGE_MODULES[name](), degree)
    _check_class_decisions_in_the_gauge(H, np.random.default_rng(degree))


def test_class_decisions_in_the_gauge_on_the_conformance_builds(monkeypatch):
    seen = _record_builds(monkeypatch)
    _conformance_builds()
    monkeypatch.undo()
    rng = np.random.default_rng(0)
    checked = {}
    for H in seen:  # one build per module and degree
        key = (H.degree, H.n, H.module.ab.orders, H.module.act.tobytes())
        if key not in checked:
            _check_class_decisions_in_the_gauge(H, rng, most=8)
            checked[key] = not (H.module.act == np.eye(H.k, dtype=np.int64)).all()
    assert len(checked) == 11 and sum(checked.values()) == 4  # 4 with a nontrivial action


def test_the_full_coboundaries_are_formed_only_where_read(monkeypatch):
    """The oracle and a build that reads only ``group`` take |X| k
    differentials each and never form B; read, b_rows and z_rows are d of
    every unit 1-cochain, and those rows followed by Z'."""
    import cohomkit.cohomology as C
    from cohomkit.brauer import b0_oracle

    calls = []
    monkeypatch.setattr(C, "differential", lambda c: calls.append(c.degree) or differential(c))
    seen = _record_builds(monkeypatch)
    G = direct_product(named_group("D8"), cyclic_group(2))
    assert b0_oracle(G).is_trivial
    H = cohomology(trivial_module(G, FinAbGroup((2, 4))), 2)
    assert H.group.orders
    assert len(seen) == 2 and all(K.degree == 2 for K in seen)
    assert calls == [1] * sum(len(K.X) * K.k for K in seen) == [1] * 9
    assert not any({"b_rows", "z_rows"} & set(vars(K)) for K in seen)
    units = np.eye(H.n * H.k, dtype=np.int64).reshape(-1, H.n, H.k)
    want = np.array([H.slice_coords(differential(Cochain(H.module, 1, e))) for e in units], dtype=np.int64)
    assert H.b_rows.dtype == want.dtype and H.b_rows.tobytes() == want.tobytes()
    assert H.z_rows.tobytes() == np.concatenate([want, H.z_gauge]).tobytes()


def test_class_decisions_refuse_a_cochain_of_another_kind():
    C2 = cyclic_group(2)
    H2 = cohomology(trivial_module(C2, FinAbGroup((2,))), 2)
    H4 = cohomology(trivial_module(C2, FinAbGroup((4,))), 2)
    u = np.zeros((2, 2, 1), dtype=np.int64)
    u[1, 1] = 2  # a Z/4 coboundary of C2 read mod 2 would look like one
    negated = GModule(C2, FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]])
    strangers = [
        (H2, zero_cochain(H2.module, 1), "a 1-cochain over a group of order 2 with coefficients \\(2,\\) is not"),
        (H2, Cochain(trivial_module(C2, FinAbGroup((4,))), 2, u), "coefficients \\(4,\\) is not a cochain of H\\^2"),
        (H2, zero_cochain(trivial_module(cyclic_group(4), FinAbGroup((2,))), 2), "a group of order 4"),
        (H4, zero_cochain(negated, 2), "\\(4,\\) and another action is not"),
    ]
    for H, c, message in strangers:
        mine = zero_cochain(H.module, 2)
        for decide in (
            H.is_cocycle, H.class_of, H.is_coboundary, H.coboundary_witness,
            lambda c: H.classes_equal(c, mine), lambda c: H.classes_equal(mine, c),
        ):
            with pytest.raises(ValueError, match=message):
                decide(c)
    # a module equal by value to the group's own is accepted
    twin = Cochain(trivial_module(C2, FinAbGroup((2,))), 2, np.zeros((2, 2, 1), dtype=np.int64))
    assert H2.is_coboundary(twin) and H2.class_of(twin).is_zero
    assert H2.coboundary_witness(twin) is not None


def test_a_cochain_that_is_no_cocycle_has_no_witness():
    # a coboundary changed off the generator slices keeps its slices in B
    M = trivial_module(named_group("D8"), FinAbGroup((2, 4)))
    H = cohomology(M, 2)
    db = differential(random_cochain(M, 1, np.random.default_rng(3)))
    table = db.table.copy()
    table[next(g for g in range(H.n) if g not in H.X), 1] += 1
    c = Cochain(M, 2, table)
    assert not H.is_cocycle(c)
    assert H.coboundary_witness(c) is None


def test_a_class_is_unequal_to_other_types():
    H = cohomology(trivial_module(cyclic_group(2), FinAbGroup((2,))), 1)
    zero, cls = sorted(H.classes(), key=lambda c: not c.is_zero)
    assert cls in [None, cls]
    assert cls != None and cls != 1 and cls != cls.rep  # noqa: E711
    assert cls == H.classes()[1] and cls != zero


def _free_slices(H) -> np.ndarray:
    """The mask (|X|, W, k) of the slices the gauge leaves free: all but the tree slots."""
    return ~_tree_slots(H).reshape(len(H.X), H.W, H.k)


def _listed(certified, listed):
    """The pairs of an every-pair certificate that ``listed`` names, in list
    order, with their rows."""
    flagged, rows = certified
    per_pair = len(rows) // max(len(flagged), 1)
    at = {p: i for i, p in enumerate(flagged)}
    keep = [p for p in map(tuple, np.asarray(listed).tolist()) if p in at]
    picked = [rows[at[p] * per_pair : (at[p] + 1) * per_pair] for p in keep]
    return keep, np.concatenate(picked) if picked else rows[:0]


def _assert_same_certificate(got, want):
    assert got[0] == want[0]
    assert got[1].shape == want[1].shape and got[1].dtype == want[1].dtype
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(["C2xC2 on C2xC4", "S3 on Ind C3"]))
def test_a_blocked_certificate_equals_one_block(monkeypatch, name, degree):
    import cohomkit.cohomology as C

    H = cohomology(CERTIFICATE_MODULES[name](), degree)
    rng = np.random.default_rng(degree)
    V = rng.integers(0, np.array(H.ambient_orders), size=(7, H.s))
    pairs = np.argwhere(np.ones((len(H.X), H.n), dtype=bool))[rng.permutation(len(H.X) * H.n)[: H.n]]
    eye = np.eye(H.s, dtype=np.int64)
    free = _free_slices(H)
    units = eye[free.reshape(-1)]
    whole = [H._certificate(V), H._certificate(eye), H._certificate(units)]
    assert whole[0][0]  # some pair is violated
    # the listed pairs' conditions on the free slices, read off the tree paths
    listed = H._path_conditions(pairs, free)
    assert listed[0]
    tables = H._tables_from_slices
    for rows in (1, 2, 3, 7):  # 2 and 3 do not divide the 7 rows of V
        blocks = []
        monkeypatch.setattr(H, "_tables_from_slices", lambda S: blocks.append(len(S)) or tables(S))
        monkeypatch.setattr(C, "TABLE_BLOCK", rows * H.n * H.W * H.k)
        blocked = [H._certificate(V), H._certificate(eye), H._certificate(units)]
        for got, want in zip(blocked, whole):
            _assert_same_certificate(got, want)
        _assert_same_certificate(listed, _listed(blocked[2], pairs))
        # per call, the fewest blocks of at most ``rows`` rows, the largest as
        # small as that number of blocks allows
        for b in (7, H.s, len(units)):
            count = -(-b // rows)
            sizes, blocks[:count] = blocks[:count], []
            assert sum(sizes) == b and max(sizes) == -(-b // count)


@pytest.mark.parametrize("name", sorted(TWO_ROUND_BUILDS))
def test_later_rounds_solve_on_the_previous_kernel(monkeypatch, name):
    calls = []

    def counted(A, L):
        calls.append(np.shape(A))
        return kernel_uniform(A, L)

    monkeypatch.setattr("cohomkit.cohomology._kernel_uniform", counted)
    seen = _record_builds(monkeypatch)
    H = cohomology(_two_round_module(name), 2)
    assert len(calls) == 2
    # the second round solves over the generators of the first kernel, not the slices
    assert calls[1][1] < H.s
    # the cocycles are the solutions of every pair's conditions, and the
    # rows past B vanish on the tree edges
    _check_gauge(seen)


def _brute_hr(M, r):
    n = M.group.size
    k = M.ab.rank
    zs = 0
    for vals in itertools.product(*[range(o) for o in list(M.ab.orders) * (n**r)]):
        c = Cochain(M, r, np.array(vals).reshape((n,) * r + (k,)))
        if differential(c).is_zero:
            zs += 1
    bs = set()
    for vals in itertools.product(*[range(o) for o in list(M.ab.orders) * (n ** (r - 1))]):
        c = Cochain(M, r - 1, np.array(vals).reshape((n,) * (r - 1) + (k,)))
        bs.add(differential(c).table.tobytes())
    return zs // len(bs)


def test_hr_against_brute_enumeration():
    C2, C3 = cyclic_group(2), cyclic_group(3)
    S3 = named_group("S3")
    K4 = named_group("C2xC2")
    cases = [
        (GModule(C2, FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]]), 1),
        (GModule(C2, FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]]), 2),
        (GModule(C2, FinAbGroup((2, 2)), [np.eye(2, dtype=int), [[0, 1], [1, 0]]]), 1),
        (induced_module(C3, Subgroup.make(C3, [0]), FinAbGroup((2,))), 1),
        (trivial_module(C2, FinAbGroup((2,))), 2),
        (trivial_module(S3, FinAbGroup((2,))), 1),
        (trivial_module(K4, FinAbGroup((2,))), 1),
        (trivial_module(C3, FinAbGroup((3,))), 2),
        (induced_module(K4, Subgroup.make(K4, [0, 3]), FinAbGroup((2,))), 1),
    ]
    for M, r in cases:
        assert cohomology(M, r).size == _brute_hr(M, r)


def test_cocycle_enumeration_matches_brute_filter():
    C2 = cyclic_group(2)
    cases = [
        (GModule(C2, FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]]), 1),
        (trivial_module(C2, FinAbGroup((2,))), 2),
        (induced_module(cyclic_group(3), Subgroup.make(cyclic_group(3), [0]), FinAbGroup((2,))), 1),
    ]
    for M, r in cases:
        H = cohomology(M, r)
        got = {c.table.tobytes() for c in H.cocycles()}
        n, k = M.group.size, M.ab.rank
        want = set()
        for vals in itertools.product(*[range(o) for o in list(M.ab.orders) * (n**r)]):
            c = Cochain(M, r, np.array(vals).reshape((n,) * r + (k,)))
            if differential(c).is_zero:
                want.add(c.table.tobytes())
        assert got == want


def test_shapiro_cardinalities_all_fixtures():
    from cohomkit.fixtures import shapiro_fixtures

    for fx in shapiro_fixtures():
        M = induced_module(fx.G, fx.H, fx.A)
        Hgrp, _ = subgroup_group(fx.H)
        tH = trivial_module(Hgrp, fx.A)
        for r in (1, 2):
            assert cohomology(M, r).size == cohomology(tH, r).size, (fx.name, r)


def test_shapiro_class_bijection():
    S3 = named_group("S3")
    A3 = alternating_subgroup_s3(S3)
    M = induced_module(S3, A3, FinAbGroup((3,)))
    Hgrp, embed = subgroup_group(A3)
    tH = trivial_module(Hgrp, FinAbGroup((3,)))
    from cohomkit.cochain import shapiro_forward

    HG = cohomology(M, 1)
    HH = cohomology(tH, 1)
    images = set()
    for cls in HG.classes():
        img = HH.class_of(shapiro_forward(cls.rep, tH, embed))
        images.add(img.coords.coords)
    assert len(images) == HG.size == HH.size


def test_class_machinery_roundtrip():
    S3 = named_group("S3")
    M = induced_module(S3, alternating_subgroup_s3(S3), FinAbGroup((3,)))
    H1 = cohomology(M, 1)
    assert H1.size == 3
    for cls in H1.classes():
        assert H1.is_cocycle(cls.rep)
        assert H1.class_of(cls.rep).coords == cls.coords
    nz = [c for c in H1.classes() if not c.is_zero]
    assert nz and all(not H1.is_coboundary(c.rep) for c in nz)


def test_coboundary_witness_exact():
    C4 = cyclic_group(4)
    M = trivial_module(C4, FinAbGroup((4,)))
    H2 = cohomology(M, 2)
    rng = np.random.default_rng(0)
    for _ in range(10):
        b = random_cochain(M, 1, rng)
        db = differential(b)
        w = H2.coboundary_witness(db)
        assert w is not None and differential(w) == db


def test_trivial_group_full_bar_complex():
    G1 = cyclic_group(1)
    M = trivial_module(G1, FinAbGroup((4,)))
    assert cohomology(M, 0).size == 4
    assert cohomology(M, 1).size == 1
    H2 = cohomology(M, 2)
    assert H2.size == 1
    c = Cochain(M, 2, np.array([3]).reshape(1, 1, 1))
    assert H2.is_cocycle(c)  # unnormalized 2-cochains over 1 are all cocycles
    w = H2.coboundary_witness(c)
    assert w is not None and differential(w) == c


@pytest.mark.parametrize("orders", [(2,), (2, 4), (6, 2)])
def test_trivial_group_runs_the_generator_slot_path(orders):
    """Over the trivial group X = {e}: H^0 = M, H^1 = H^2 = 0, every 2-cochain
    is a cocycle and the 1-cocycles are zero."""
    M = trivial_module(cyclic_group(1), FinAbGroup(orders))
    k = len(orders)
    H0, H1, H2 = (cohomology(M, r) for r in range(3))
    for r, H in enumerate((H0, H1, H2)):
        assert H.size == cyclic_cohomology_size(M, r)
        assert H.X == [0]
    zero, one = np.zeros(k, dtype=np.int64), np.ones(k, dtype=np.int64)
    assert same_invariants(H0.group, FinAbGroup(orders))
    m = Cochain(M, 0, one)
    assert H0.is_cocycle(m) and not H0.is_coboundary(m) and H0.coboundary_witness(m) is None
    u0, u1 = Cochain(M, 1, zero.reshape(1, k)), Cochain(M, 1, one.reshape(1, k))
    assert H1.is_cocycle(u0) and H1.is_coboundary(u0)
    assert H1.coboundary_witness(u0) == Cochain(M, 0, zero)
    assert not H1.is_cocycle(u1)  # du(e, e) = u(e)
    with pytest.raises(ValueError, match="not a cocycle"):
        H1.is_coboundary(u1)
    for vals in (zero, one, np.array(orders) - 1):
        c = Cochain(M, 2, vals.reshape(1, 1, k))
        assert H2.is_cocycle(c) and H2.is_coboundary(c)
        w = H2.coboundary_witness(c)
        assert w == Cochain(M, 1, vals.reshape(1, k)) and differential(w) == c


def _count_presentations(monkeypatch) -> list:
    import cohomkit.abelian as abelian

    built, init = [], abelian.Presentation.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(abelian.Presentation, "__init__", counted)
    return built


def test_b0_oracle_presents_only_the_groups_it_reads(monkeypatch):
    """The oracle reads Z/(B + carries) of its one H^2, never Z/B.

    Three presentations: the abelianization behind the character carries,
    H^2(F, Q/Z) = Z/(B + carries), and the kernel of omega on it.
    """
    from cohomkit.brauer import b0_oracle

    built = _count_presentations(monkeypatch)
    assert b0_oracle(direct_product(named_group("D8"), cyclic_group(2))).is_trivial
    assert len(built) == 3


def test_twisted_form_builds_no_presentation(monkeypatch):
    """The twist check reads only the cocycle certificate of H^1."""
    from cohomkit.crossed import TwistedForm, build_bk

    d = build_bk(FinAbGroup((2,)), cyclic_group(2))
    built = _count_presentations(monkeypatch)
    TwistedForm(d)
    assert built == []


def test_work_bound_raises():
    G = named_group("Heis27")
    M = trivial_module(G, FinAbGroup((27,)))
    with pytest.raises(BoundExceeded):
        cohomology(M, 2, work_bound=10)


def test_a_refused_build_states_the_count_it_compared():
    # rank 0: the bound is compared with n W max(k, 1) max(s, 1) = 27 * 27
    (sc,) = parse_scenarios("scenario s\nbound 100\nbase 1\ngroup Heis27\ncheck cohomology degree=2\n")
    rec = run_check(sc, sc.checks[0])
    assert rec.status == "skipped"
    assert rec.data == {"reason": "slice tableau of 729 entries exceeds bound 100"}


def _bockstein_ses():
    G = cyclic_group(2)
    sub = trivial_module(G, FinAbGroup((2,)))
    mid = trivial_module(G, FinAbGroup((4,)))
    quo = trivial_module(G, FinAbGroup((2,)))
    return ShortExactSequence(
        sub, mid, quo, AbHom(sub.ab, mid.ab, [[2]]), AbHom(mid.ab, quo.ab, [[1]])
    )


def test_connecting_map_bockstein():
    ses = _bockstein_ses()
    delta, Hq, Hs = connecting_map(ses, 1)
    nz = [c for c in Hq.classes() if not c.is_zero][0]
    assert not delta(nz).is_zero
    z = [c for c in Hq.classes() if c.is_zero][0]
    assert delta(z).is_zero


def test_connecting_independent_of_lift_and_lands_in_cocycles():
    ses = _bockstein_ses()
    Hq = cohomology(ses.quot, 1)
    Hs = cohomology(ses.sub, 2)
    rng = np.random.default_rng(4)
    for cls in Hq.classes():
        out = connecting_cochain(ses, cls.rep)
        assert Hs.is_cocycle(out)
        # shifting the representative by a coboundary does not move the class
        shifted = cls.rep + differential(random_cochain(ses.quot, 0, rng))
        out2 = connecting_cochain(ses, shifted)
        assert Hs.classes_equal(out, out2)
        # an alternate pointwise lift (shifted by a subobject-valued cochain)
        # moves the connecting cochain by an exact coboundary
        lift = cached_preimage(ses.proj)
        pull = cached_preimage(ses.incl)
        shift = random_cochain(ses.sub, 1, rng)
        lifted = np.array([lift(v) for v in cls.rep.table], dtype=np.int64)
        alt = Cochain(ses.mid, 1, lifted) + shift.mapped(ses.incl, ses.mid)
        dalt = differential(alt)
        pulled = np.array(
            [[pull(v) for v in row] for row in dalt.table], dtype=np.int64
        )
        out3 = Cochain(ses.sub, 2, pulled)
        assert Hs.classes_equal(out, out3)


def test_split_sequence_gives_zero_connecting():
    G = cyclic_group(2)
    sub = trivial_module(G, FinAbGroup((2,)))
    mid = trivial_module(G, FinAbGroup((2, 3)))
    quo = trivial_module(G, FinAbGroup((3,)))
    ses = ShortExactSequence(
        sub, mid, quo, AbHom(sub.ab, mid.ab, [[1], [0]]), AbHom(mid.ab, quo.ab, [[0, 1]])
    )
    Hq = cohomology(quo, 1)
    Hs = cohomology(sub, 2)
    for cls in Hq.classes():
        assert Hs.is_coboundary(connecting_cochain(ses, cls.rep))


def test_ses_exactness_validated():
    G = cyclic_group(2)
    sub = trivial_module(G, FinAbGroup((2,)))
    mid = trivial_module(G, FinAbGroup((4,)))
    quo = trivial_module(G, FinAbGroup((4,)))
    with pytest.raises(ValueError):
        ShortExactSequence(
            sub, mid, quo, AbHom(sub.ab, mid.ab, [[2]]), AbHom(mid.ab, quo.ab, [[1]])
        )


def test_delta_vanishes_on_image_from_middle():
    ses = _bockstein_ses()
    Hm = cohomology(ses.mid, 1)
    Hs = cohomology(ses.sub, 2)
    for cls in Hm.classes():
        pushed = cls.rep.mapped(ses.proj, ses.quot)
        out = connecting_cochain(ses, pushed)
        assert Hs.is_coboundary(out)


def _power_action(n, orders, P):
    """C_n acting on the product of cyclic groups of the given orders, g by P^g."""
    act = [np.linalg.matrix_power(P, g) for g in range(n)]
    return GModule(cyclic_group(n), FinAbGroup(orders), act)


def _mixed_order_module_with_action():
    # C4 acting on C2 x C4 through (a, b) -> (a, 2a + b), an automorphism of order 2
    return _power_action(4, (2, 4), np.array([[1, 0], [2, 1]], dtype=np.int64))


CERTIFICATE_MODULES = {
    "C2xC2 on C2xC4": lambda: trivial_module(named_group("C2xC2"), FinAbGroup((2, 4))),
    "C4 on C2xC4": _mixed_order_module_with_action,
    "S3 on Ind C3": lambda: induced_module(
        named_group("S3"), alternating_subgroup_s3(named_group("S3")), FinAbGroup((3,))
    ),
}


def _sign_module():
    """C2 x C2 on Z/3 + Z/3, each generator negating one coordinate: either
    generator alone fixes a line, the two together only 0."""
    G = named_group("C2xC2")
    a, b = minimal_generating_set(G)
    act = np.broadcast_to(np.eye(2, dtype=np.int64), (4, 2, 2)).copy()
    for g, signs in ((a, [2, 1]), (b, [1, 2]), (G.op(a, b), [2, 2])):
        act[g] = np.diag(signs)
    return GModule(G, FinAbGroup((3, 3)), act)


@pytest.mark.parametrize("name", sorted(CERTIFICATE_MODULES) + ["C2xC2 by signs on C3xC3"])
def test_degree_zero_reads_the_fixed_points_on_the_generators(name):
    """H^0 solves (x - 1) m = 0 for x in the generating set X only:
    span(z_gauge) is the kernel of the conditions of every element, and
    is_cocycle agrees with m being fixed by every element."""
    M = CERTIFICATE_MODULES.get(name, _sign_module)()
    H = cohomology(M, 0)
    assert H.X == minimal_generating_set(M.group)
    n, k, orders = M.group.size, M.ab.rank, M.ab.orders
    every = scaled_rows((M.act - np.eye(k, dtype=np.int64)).reshape(n * k, k), orders * n, H.L)
    assert _same_subgroup(H, H.z_gauge, kernel_uniform(every, H.L))
    verdicts = set()
    for m in itertools.product(*map(range, orders)):
        m = np.array(m, dtype=np.int64)
        fixed = all((M.apply(g, m) == m).all() for g in M.group.elements())
        assert H.is_cocycle(Cochain(M, 0, m)) == fixed
        verdicts.add(fixed)
    assert verdicts == ({True, False} if (M.act != np.eye(k, dtype=np.int64)).any() else {True})


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(CERTIFICATE_MODULES))
def test_violating_pairs_match_the_differential(name, degree):
    # the certificate flags (x, g) exactly when d(u)(x, g, ...) != 0 for
    # some row, u being the table rebuilt from the slice vector
    M = CERTIFICATE_MODULES[name]()
    H = cohomology(M, degree)
    rng = np.random.default_rng(degree)
    orders = np.array(H.ambient_orders, dtype=np.int64)
    vectors = [H.z_rows] + [rng.integers(0, orders, size=(3, H.s)) for _ in range(4)]
    vectors += [H.z_rows[:1] + rng.integers(0, orders, size=(1, H.s))]
    mods = np.array(M.ab.orders, dtype=np.int64)
    shape = (H.n,) * degree + (H.k,)
    conditions = _slice_conditions(H)
    free = _free_slices(H)
    units = np.eye(H.s, dtype=np.int64)[free.reshape(-1)]
    for V in vectors:
        T = H._tables_from_slices(V)
        expected = set()
        for j in range(V.shape[0]):
            d = differential(Cochain(M, degree, T[..., j].reshape(shape))).table % mods
            for xi, x in enumerate(H.X):
                hit = d[x].reshape(H.n, -1).any(axis=1)
                expected |= {(xi, int(g)) for g in np.flatnonzero(hit)}
        got, rows = H._certificate(V)
        assert len(got) == len(set(got))
        assert set(got) == expected
        # a shuffled list of pairs is checked in its own order on the unit
        # vectors of the free slices, read off the tree paths
        listed = [(int(xi), int(g)) for xi in range(len(H.X)) for g in range(H.n)]
        listed = [listed[i] for i in rng.permutation(len(listed))[: H.n]]
        got_listed, rows_listed = H._path_conditions(np.array(listed), free)
        assert got_listed == [p for p in listed if conditions[p][:, free.reshape(-1)].any()]
        # each flagged pair's rows are its conditions evaluated on V
        per_pair = H.W * H.k
        for flagged, flagged_rows, vecs in ((got, rows, V), (got_listed, rows_listed, units)):
            assert flagged_rows.shape == (len(flagged) * per_pair, vecs.shape[0])
            for p, (xi, g) in enumerate(flagged):
                want = matmul_mod(conditions[xi, g], vecs.T % H.L, H.L)
                assert (flagged_rows[p * per_pair : (p + 1) * per_pair] == want).all()
    assert H._certificate(H.z_rows)[0] == []


# builds whose first pass is checked against the every-pair certificate
ROUND_ONE_BUILDS = {
    **{f"{name}, degree {d}": (CERTIFICATE_MODULES[name], d) for name in CERTIFICATE_MODULES for d in (1, 2)},
    **{name: (functools.partial(_two_round_module, name), 2) for name in TWO_ROUND_BUILDS},
    **{
        f"trivial group on C2xC4, degree {d}": (lambda: trivial_module(cyclic_group(1), FinAbGroup((2, 4))), d)
        for d in (1, 2)
    },
    **{f"D8 on rank 0, degree {d}": (lambda: trivial_module(named_group("D8"), FinAbGroup(())), d) for d in (1, 2)},
}


@pytest.mark.parametrize("name", sorted(ROUND_ONE_BUILDS))
def test_round_one_reads_the_certificate_rows_off_the_tree_paths(monkeypatch, name):
    """The first pass's rows, on the pairs the build drew and on a shuffled
    list of every pair, equal the every-pair certificate's rows on the unit
    vectors of the free slices, restricted to the listed pairs in list order."""
    module, degree = ROUND_ONE_BUILDS[name]
    drawn = []
    conditions = CohomologyGroup._path_conditions

    def recorded(self, pairs, free):
        drawn.append((pairs, free))
        return conditions(self, pairs, free)

    monkeypatch.setattr(CohomologyGroup, "_path_conditions", recorded)
    H = cohomology(module(), degree)
    ((pairs, free),) = drawn
    assert np.array_equal(free, _free_slices(H))
    if name == "D8xD8 on Z2":  # a sampled build: fewer pairs than the off-tree ones
        assert len(pairs) < len(H.X) * H.n - sum(len(fs) for fs, _, _ in H._levels)
    every = H._certificate(np.eye(H.s, dtype=np.int64)[free.reshape(-1)])
    everything = np.argwhere(np.ones((len(H.X), H.n), dtype=bool))
    shuffled = everything[np.random.default_rng(H.n).permutation(len(everything))]
    for listed in (pairs, shuffled, shuffled[: len(shuffled) // 2]):
        _assert_same_certificate(H._path_conditions(listed, free), _listed(every, listed))


def test_a_large_build_forms_no_tables_of_the_free_slices(monkeypatch):
    # round 1 of H^2(F128, Z/2) reads its conditions off the tree paths:
    # no table of the s' unit slice vectors is formed
    f128 = build_bk(FinAbGroup((2,)), cyclic_group(2)).cp.as_table_group(cap=512)[0]
    calls = []
    tables = CohomologyGroup._tables_from_slices
    monkeypatch.setattr(
        CohomologyGroup, "_tables_from_slices", lambda self, S: calls.append(len(S)) or tables(self, S)
    )
    H = cohomology(trivial_module(f128, FinAbGroup((2,))), 2)
    width = int(_free_slices(H).sum())
    # only the later passes form tables, of the generators they check
    assert calls and sum(calls) < width
    assert len(H.z_gauge) == calls[-1]


# mixed-order trivial coefficients and induced modules with a nontrivial
# action, over cyclic groups and over groups with two generators
COCYCLE_LAW_MODULES = {
    **CERTIFICATE_MODULES,
    "C4 on trivial C2xC4": lambda: trivial_module(cyclic_group(4), FinAbGroup((2, 4))),
    "Q8 on C4": lambda: trivial_module(named_group("Q8"), FinAbGroup((4,))),
    "D8 on Ind C2xC4 from the center": lambda: induced_module(
        named_group("D8"), center_subgroup(named_group("D8")), FinAbGroup((2, 4))
    ),
}


def _meets_the_law_at_the_first_generator(H, c: Cochain, rng) -> Cochain:
    """c + v with v = 0 on <x> and v(x g, .) = x.v(g, .), x = X[0], from random
    values on the other cosets <x> g: the law still holds at x, and in
    general fails at the other generators."""
    M, mul, x = H.module, H.module.group.mul, H.X[0]
    powers = [0]  # x^0, x^1, ... up to the order of x
    while mul[x, powers[-1]]:
        powers.append(int(mul[x, powers[-1]]))
    v = np.zeros_like(c.table)
    done = set(powers)
    for g in range(H.n):
        if g in done:
            continue
        v[g] = random_cochain(M, H.degree - 1, rng).table
        h = g
        for _ in powers[1:]:
            v[mul[x, h]] = M.apply(x, v[h])
            h = int(mul[x, h])
            done.add(h)
    return c + Cochain(M, H.degree, v)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", sorted(COCYCLE_LAW_MODULES))
def test_is_cocycle_agrees_with_the_differential(name, degree):
    """is_cocycle(c) exactly when d(c) = 0, on cochains that meet the law at
    some generator slots and break it at others."""
    M = COCYCLE_LAW_MODULES[name]()
    H = cohomology(M, degree)
    rng = np.random.default_rng(degree)
    orders = np.array(H.ambient_orders, dtype=np.int64)
    reps = [H.rep(x) for x in itertools.islice(H.group.elements(), 4)]
    cocycles = [u + differential(random_cochain(M, degree - 1, rng)) for u in reps]
    cochains = cocycles + [random_cochain(M, degree, rng) for _ in range(4)]
    cochains += [H.cochain(rng.integers(0, orders, size=H.s)) for _ in range(4)]
    cochains += [_meets_the_law_at_the_first_generator(H, u, rng) for u in cocycles]
    # the first cocycle with one entry changed, at every entry in turn
    for idx in np.ndindex(cocycles[0].table.shape):
        table = cocycles[0].table.copy()
        table[idx] += 1
        cochains.append(Cochain(M, degree, table))
    verdicts = [H.is_cocycle(c) for c in cochains]
    assert verdicts == [differential(c).is_zero for c in cochains]
    assert all(verdicts[: len(cocycles)]) and not all(verdicts)


def test_is_cocycle_expands_no_tables(monkeypatch):
    # the law is read on the cochain's own table: no slice vector is expanded
    H = cohomology(trivial_module(named_group("D8"), FinAbGroup((2, 4))), 2)
    c = H.rep(list(H.group.elements())[-1])
    assert not c.is_zero
    calls = []
    tables = H._tables_from_slices
    monkeypatch.setattr(H, "_tables_from_slices", lambda S: calls.append(len(S)) or tables(S))
    assert H.is_cocycle(c)
    assert calls == []


@st.composite
def _cyclic_module(draw):
    """A cyclic group C_n acting on C_m or on C_o1 x C_o2 through a random automorphism."""
    orders = draw(
        st.sampled_from([(2,), (3,), (4,), (6,), (8,), (9,), (2, 2), (2, 4), (3, 3), (4, 4)])
    )
    k = len(orders)
    # entry (i, j) must be a multiple of o_i / gcd(o_i, o_j) to be well defined
    P = np.array(
        [
            [draw(st.integers(0, o_i - 1)) * (o_i // gcd(o_i, o_j)) % o_i for o_j in orders]
            for o_i in orders
        ],
        dtype=np.int64,
    )
    mods = np.array(orders, dtype=np.int64).reshape(-1, 1)
    power, t = P % mods, 1
    while not np.array_equal(power, np.eye(k, dtype=np.int64) % mods) and t <= 6:
        power, t = (power @ P) % mods, t + 1
    assume(t <= 6)  # P^t = 1, so P is an automorphism, and C_n acts for every multiple n of t
    n = t * draw(st.sampled_from([j for j in (1, 2, 3) if t * j <= 6]))
    assume(n >= 2)
    return _power_action(n, orders, P)


@given(_cyclic_module(), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_cyclic_modules_match_the_norm_oracle(M, degree):
    assert cohomology(M, degree).size == cyclic_cohomology_size(M, degree)


# -- cocycle enumeration against the breadth-first search it replaced -------


def _bfs_cocycle_vectors(H):
    """Closure of {0} under adding the reduced basis rows of the cocycle span."""
    mods = np.array((tuple(H.module.ab.orders) * (H.s // max(H.k, 1)))[: H.s], dtype=np.int64)
    seen = {tuple([0] * H.s)}
    frontier = [np.zeros(H.s, dtype=np.int64)]
    basis = [b % mods for b in subgroup_span(H.ambient_orders, H.z_rows).basis]
    while frontier:
        v = frontier.pop()
        for b in basis:
            t = tuple(int(x) for x in (v + b) % mods)
            if t not in seen:
                seen.add(t)
                frontier.append(np.array(t, dtype=np.int64))
    return sorted(seen)


def _enumeration_modules():
    for name in ["1", "C2", "C3", "C4", "C2xC2", "S3", "C6"]:
        G = named_group(name)
        for orders in [(2,), (3,), (4,), (2, 2), (2, 4)]:
            yield trivial_module(G, FinAbGroup(orders))
    C2 = cyclic_group(2)
    yield GModule(C2, FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]])
    yield GModule(C2, FinAbGroup((2, 2)), [np.eye(2, dtype=int), [[0, 1], [1, 0]]])
    yield induced_module(cyclic_group(3), Subgroup.make(cyclic_group(3), [0]), FinAbGroup((2,)))


def test_cocycles_match_the_bfs_in_content_and_order():
    compared = 0
    for M in _enumeration_modules():
        for r in (0, 1, 2):
            H = cohomology(M, r)
            try:
                got = H.cocycles(cap=1024)
            except BoundExceeded:
                continue
            assert [tuple(int(x) for x in H.slice_coords(c)) for c in got] == _bfs_cocycle_vectors(H)
            assert all(H.is_cocycle(c) for c in got)
            compared += 1
    assert compared == 106


def test_cocycle_cap_boundary():
    H = cohomology(trivial_module(named_group("C2xC2"), FinAbGroup((2,))), 2)
    count = len(H.cocycles())
    assert count == 4 * H.size == 32  # |B^2| = |C^1| / |Hom(K4, C2)| = 16 / 4, |H^2| = 8
    with pytest.raises(BoundExceeded):
        H.cocycles(cap=count - 1)
    assert len(H.cocycles(cap=count)) == count


def test_cohomology_submodule_is_importable_as_a_module():
    import types

    import cohomkit
    import cohomkit.cohomology as C

    assert isinstance(C, types.ModuleType)
    assert cohomkit.cohomology is C
    assert callable(C.cohomology) and not callable(cohomkit.cohomology)
