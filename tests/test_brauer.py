"""Bogomolov multipliers both ways, the pure-tensor quotient, cyclic kernels."""

import itertools
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import cohomkit.cohomology
from cohomkit.abelian import (
    AbHom,
    FinAbGroup,
    Presentation,
    TensorProduct,
    kernel,
    same_invariants,
    subgroup_order,
    subgroup_span,
    vanishing_products,
)
from cohomkit.brauer import (
    _qz_presentation,
    _restriction_kernel,
    abelian_structure,
    b0_closed_form,
    b0_closed_form_cp,
    b0_oracle,
    br_nr_bk,
    center_subgroup,
    commuting_pair_subgroups,
    cyclic_span_detect,
    derived_subgroup,
    global_span_membership,
    hom_value,
    lambda_map,
    lambda_middle_identity,
    not_supersolvable_probe,
    sha_cyclic,
)
from cohomkit.crossed import build_bk
from cohomkit.fixtures import class_two_group
from cohomkit.intmat import ModSpan
from cohomkit.cochain import Cochain
from cohomkit.cohomology import BoundExceeded
from cohomkit.groups import (
    GModule,
    Subgroup,
    all_subgroups,
    cyclic_group,
    cyclic_subgroups,
    direct_product,
    generated_subgroup,
    dual_module,
    induced_module,
    minimal_generating_set,
    named_group,
    quotient_group,
    quotient_module,
    restrict_module,
    subgroup_group,
    trivial_module,
)

B0_GROUPS = ["D8", "Q8", "Heis8", "Heis27"]


def _box_structure(G):
    """Reference: every vector of the box of generator powers, multiplied out.

    The first vector reaching an element is its exponent vector, and the
    vectors reaching the identity are the relations.  Returns the group,
    coordinates and representatives as ``abelian_structure`` does.
    """

    def power(g, k):
        out = 0
        for _ in range(int(k)):
            out = G.op(out, g)
        return out

    def word(vec):
        g = 0
        for gi, e in zip(gens, vec):
            g = G.op(g, power(gi, e))
        return g

    gens = minimal_generating_set(G)
    box = [G.order_of(g) for g in gens]
    elem_of, relations = {}, []
    for vec in itertools.product(*(range(b) for b in box)):
        g = word(vec)
        elem_of.setdefault(g, vec)
        if g == 0 and any(vec):
            relations.append(vec)
    assert len(elem_of) == G.size
    pres = Presentation(tuple(box), np.eye(len(box), dtype=np.int64), relations)
    coords = np.zeros((G.size, pres.group.rank), dtype=np.int64)
    for g, vec in elem_of.items():
        coords[g] = pres.class_coords(np.array(vec, dtype=np.int64)).coords
    return pres.group, coords, [word(pres.rep(unit)) for unit in pres.group.generators()]


def _abelianization_table(F):
    return quotient_group(F, derived_subgroup(F))[0]


# C4, C6, C2 x C2, mixed orders, order 64, and the abelianizations of F128 and P512
ABELIAN_TABLES = [
    lambda: named_group("C4"),
    lambda: named_group("C6"),
    lambda: named_group("C2xC2"),
    lambda: direct_product(direct_product(cyclic_group(4), cyclic_group(2)), cyclic_group(3)),
    lambda: direct_product(direct_product(named_group("C2xC2"), cyclic_group(4)), cyclic_group(4)),
    lambda: _abelianization_table(_ladder_group("F128")),
    lambda: _abelianization_table(p512(P512_RELATIONS["e1^e2+e3^e4"])),
]


def test_abelian_structure_is_isomorphism():
    """An isomorphism onto its group, equal to the box enumeration's."""
    for make in ABELIAN_TABLES:
        G = make()
        ab = abelian_structure(G)
        mods = np.array(ab.group.orders, dtype=np.int64)
        assert ab.group.cardinality == G.size
        assert (ab.coords[G.mul] == (ab.coords[:, None] + ab.coords[None, :]) % mods).all()
        assert (ab.coords[ab.reps] == np.eye(ab.group.rank, dtype=np.int64)).all()
        group, coords, reps = _box_structure(G)
        assert (ab.group.orders, ab.reps) == (group.orders, reps)
        assert (ab.coords == coords).all()


@pytest.mark.parametrize("name", B0_GROUPS)
def test_lambda_and_closed_form_extraspecial(name):
    G = named_group(name)
    ld = lambda_map(G)
    # lambda is onto the center for these groups and has trivial wedge kernel
    assert ld.b0.cardinality == 1
    assert b0_closed_form(G).cardinality == 1


def test_lambda_abelian_group_is_zero():
    G = named_group("C2xC2")
    ld = lambda_map(G)
    assert ld.lam.is_zero
    assert ld.S.cardinality == ld.wedge.group.cardinality
    assert ld.b0.cardinality == 1  # all wedges are pure


def test_lambda_requires_class_two():
    with pytest.raises(ValueError, match="class <= 2"):
        lambda_map(named_group("S3"))


@pytest.mark.parametrize("name", B0_GROUPS + ["C4", "C6"])
def test_oracle_matches_closed_form_small(name):
    G = named_group(name)
    oracle = b0_oracle(G)
    assert oracle.cardinality == 1
    if not G.is_abelian():
        assert same_invariants(oracle, b0_closed_form(G))


def _restriction_reference(F, subgroups):
    """B0(F) as the common kernel of H^2(F, Q/Z) -> H^2(A, Q/Z) over the given A.

    The definitional route, the reference for b0_oracle: it builds
    H^2(A, Q/Z) once per distinct multiplication table among the subgroups
    and restricts each generator of H^2(F, Q/Z) through every embedding.
    """
    N = F.size
    H2, pres, _ = _qz_presentation(F, N)
    P = pres.group
    if P.is_trivial:
        return P
    reps = [H2.cochain(pres.rep(g)) for g in P.generators()]
    local, solved = [], {}
    for sub in subgroups:
        A, embed = subgroup_group(sub)
        key = A.mul.tobytes()
        if key not in solved:
            solved[key] = _qz_presentation(A, N)[:2]
        local.append((embed, *solved[key]))
    return _restriction_kernel(P, reps, local)[0]


def _abelian_subgroups(G):
    return [
        s for s in all_subgroups(G)
        if all(G.op(a, b) == G.op(b, a) for a in s.members for b in s.members)
    ]


@pytest.mark.parametrize("name", ["D8", "Q8", "Heis27"])
def test_oracle_full_abelian_sweep_meta_check(name):
    G = named_group(name)
    assert same_invariants(b0_oracle(G), _restriction_reference(G, _abelian_subgroups(G)))


def test_oracle_bound_rejected():
    d = build_bk(FinAbGroup((2,)), cyclic_group(2))
    F, _ = d.cp.as_table_group(cap=512)
    with pytest.raises(BoundExceeded, match="exceeds bound"):
        b0_oracle(F, work_bound=1 << 20)
    # the 2^14 instance cannot even be materialized as a table
    d3 = build_bk(FinAbGroup((2,)), cyclic_group(3))
    with pytest.raises(ValueError):
        d3.cp.as_table_group(cap=512)


def test_b0_bk_128_both_ways():
    d = build_bk(FinAbGroup((2,)), cyclic_group(2))
    F, _ = d.cp.as_table_group(cap=512)
    closed = b0_closed_form(F)
    cp_closed = b0_closed_form_cp(d)
    oracle = b0_oracle(F)
    assert closed.cardinality == cp_closed.cardinality == oracle.cardinality == 1


def test_b0_closed_form_cp_matches_table_route():
    for orders, gname in [((2,), "C2"), ((2,), "1")]:
        d = build_bk(FinAbGroup(orders), named_group(gname))
        F, _ = d.cp.as_table_group(cap=512)
        assert same_invariants(b0_closed_form_cp(d), b0_closed_form(F))


def p512(relation):
    """V x W for V = (Z/2)^4 and W = wedge^2 V / <e1^e2 + relation>, order 512.

    W has the basis e1^e3, e1^e4, e2^e3, e2^e4, e3^e4, and e1^e2 is sent to
    the W-vector ``relation``: e3^e4 for the group with B0 = C2, zero for its
    negative control, where Ker lambda is spanned by the pure wedge e1^e2.
    """
    pairs = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    beta = np.zeros((4, 4, 5), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        beta[i, j, k] = 1
    beta[0, 1] = relation
    return class_two_group((2,) * 4, (2,) * 5, beta, name="P512")


P512_RELATIONS = {"e1^e2+e3^e4": [0, 0, 0, 0, 1], "e1^e2": [0, 0, 0, 0, 0]}


@pytest.mark.parametrize("relation,b0_order", [("e1^e2+e3^e4", 2), ("e1^e2", 1)])
def test_b0_closed_form_on_p512(relation, b0_order):
    F = p512(P512_RELATIONS[relation])
    assert F.size == 512
    assert same_invariants(b0_closed_form(F), FinAbGroup((b0_order,)))


@pytest.mark.parametrize("relation", sorted(P512_RELATIONS))
def test_vanishing_wedges_on_p512_match_pair_loop(relation):
    ld = lambda_map(p512(P512_RELATIONS[relation]))
    rows = []
    for a in ld.Fab.group.elements():
        for b in ld.Fab.group.elements():
            w = ld.wedge.wedge(a, b)
            if ld.lam(w).is_zero:
                rows.append(w.coords)
    lattice = 2 * np.eye(ld.wedge.group.rank, dtype=np.int64)
    want = ModSpan(np.concatenate([np.array(rows), lattice]), 2).basis
    got = ModSpan(np.concatenate([vanishing_products(ld.wedge, ld.lam), lattice]), 2).basis
    assert (got == want).all()


LAMBDA_GROUPS = {
    **{name: (lambda name=name: _ladder_group(name)) for name in ["D8xC2", "Q8xC4", "Heis27xC2", "F128"]},
    **{f"P512 {rel}": (lambda rel=rel: p512(P512_RELATIONS[rel])) for rel in P512_RELATIONS},
}


@pytest.mark.parametrize("name", sorted(LAMBDA_GROUPS))
def test_lambda_is_the_commutator_on_every_pair(name):
    """lambda(abar ^ bbar) = [a, b] on all of F x F.

    lambda_map checks every a against the generator lifts only; in class 2
    that covers every pair, which this test reads directly.
    """
    F = LAMBDA_GROUPS[name]()
    ld = lambda_map(F)
    x = ld.ab_proj
    wedges = np.einsum("pij,ai,bj->abp", ld.wedge.coefficients, x, x)
    values = np.einsum("kp,abp->abk", ld.lam.matrix, wedges) % np.array(ld.Zc.group.orders)
    pos = center_subgroup(F).positions[F.mul[F.mul, F.mul[np.ix_(F.inv, F.inv)]]]
    assert (pos >= 0).all()
    assert (values == ld.Zc.coords[pos]).all()


def test_class_two_group_rejects_bad_maps():
    with pytest.raises(ValueError):  # below the diagonal
        class_two_group((2, 2), (2,), [[[0], [0]], [[1], [0]]])
    with pytest.raises(ValueError):  # 2 * beta(e1, e2) = 1 in Z/4
        class_two_group((2, 2), (4,), [[[0], [1]], [[0], [0]]])
    with pytest.raises(ValueError):  # no V
        class_two_group((), (3,), np.zeros((0, 0, 1)))


def test_lambda_middle_identity_on_family():
    for orders, gname in [((2,), "C2"), ((2,), "C3"), ((3,), "C2")]:
        d = build_bk(FinAbGroup(orders), named_group(gname))
        assert lambda_middle_identity(d)


@pytest.mark.parametrize("block", ["mixed", "wedge x", "wedge y"])
def test_lambda_middle_identity_fails_after_a_one_entry_change(block):
    d = build_bk(FinAbGroup((2,)), named_group("C2"))
    km = d.cp.ka // 2
    i, j = {"mixed": (0, km), "wedge x": (0, 1), "wedge y": (km, km + 1)}[block]
    d.cp.phi_tensor[0, i, j] += 1
    assert not lambda_middle_identity(d)


def test_commuting_pair_subgroups_are_abelian_and_maximal():
    G = named_group("D8")
    subs = commuting_pair_subgroups(G)
    for s in subs:
        assert all(G.op(a, b) == G.op(b, a) for a in s.members for b in s.members)
    for i, s in enumerate(subs):
        for j, t in enumerate(subs):
            if i != j:
                assert not set(s.members) < set(t.members)


def _all_pairs_maximal(G):
    """Reference sweep: <a, b> for every commuting pair, then the maximal ones."""
    found = {}
    for a in G.elements():
        for b in G.elements():
            if G.op(a, b) == G.op(b, a):
                sub = generated_subgroup(G, [a, b])
                found.setdefault(sub.members, sub)
    sets = [set(m) for m in found]
    return sorted(m for m, s in zip(found, sets) if not any(s < t for t in sets))


def _ladder_group(name):
    if name == "F128":
        return build_bk(FinAbGroup((2,)), cyclic_group(2)).cp.as_table_group(cap=512)[0]
    left, right = name.split("x")
    return direct_product(named_group(left), named_group(right))


@pytest.mark.parametrize("name", ["D8xC2", "Q8xC4", "S3xS3", "Heis27xC2", "F128"])
def test_pruned_commuting_pair_sweep_matches_all_pairs(name):
    G = _ladder_group(name)
    assert [s.members for s in commuting_pair_subgroups(G)] == _all_pairs_maximal(G)


@pytest.mark.parametrize("name", ["D8xC2", "Q8xC4", "S3xS3", "Heis27xC2", "F128"])
def test_oracle_matches_restriction_reference(name):
    G = _ladder_group(name)
    assert same_invariants(b0_oracle(G), _restriction_reference(G, commuting_pair_subgroups(G)))


def g128(control):
    """V x W for V = (Z/2)^4 and W = (Z/2)^3 = <f1, f2, f3>, order 128.

    beta(e1, e4) = beta(e2, e3) = f3, beta(e2, e4) = f2, beta(e3, e4) = f1.
    Ker lambda is spanned by e1^e2, e1^e3 and e1^e4 + e2^e3, and the last is
    no pure wedge modulo the first two, so B0 = C2.  The control adds
    beta(e1, e2) = f3: then Ker lambda is spanned by the pure wedges e1^e3,
    e1^(e2 + e4) and e2^(e1 + e3), and B0 = 0.
    """
    f = np.eye(3, dtype=np.int64)
    beta = np.zeros((4, 4, 3), dtype=np.int64)
    beta[0, 3] = beta[1, 2] = f[2]
    beta[1, 3] = f[1]
    beta[2, 3] = f[0]
    if control:
        beta[0, 1] = f[2]
    return class_two_group((2,) * 4, (2,) * 3, beta, name="G128")


@pytest.mark.parametrize("control,b0_order", [(False, 2), (True, 1)], ids=["G128", "control"])
def test_b0_nonzero_on_g128_three_ways(control, b0_order):
    G = g128(control)
    want = FinAbGroup((b0_order,))
    assert same_invariants(b0_oracle(G), want)
    assert same_invariants(b0_closed_form(G), want)
    assert same_invariants(_restriction_reference(G, commuting_pair_subgroups(G)), want)


def test_oracle_rejects_a_carry_not_symmetric_on_commuting_pairs():
    """A carry with omega != 0 on a commuting pair raises, also under python -O.

    alpha(a, b) = 2 a_1 b_2 on C2 x C2 with values in Z/4 is bilinear, so it
    passes the cocycle check of the carries, but alpha(a, b) != alpha(b, a).
    """
    script = """
import numpy as np
import cohomkit.brauer as B
from cohomkit.groups import named_group

G = named_group("C2xC2")
x = B.abelian_structure(G).coords
carries = B._character_carries
B._character_carries = lambda G, N: carries(G, N) + [2 * np.outer(x[:, 0], x[:, 1]) % N]
try:
    B.b0_oracle(G)
except AssertionError as exc:
    print(exc)
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["a character carry is not symmetric on commuting pairs"]


def test_oracle_builds_one_cohomology_group(monkeypatch):
    CG = cohomkit.cohomology.CohomologyGroup
    built = []
    init = CG.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CG, "__init__", counting_init)
    G = _ladder_group("D8xC2")
    assert b0_oracle(G).cardinality == 1
    # H^2 of G itself, and no cohomology of any of the 13 subgroups
    assert len(commuting_pair_subgroups(G)) == 13
    assert len(built) == 1


@pytest.mark.parametrize(
    "orders,gname", [((2,), "1"), ((2,), "C2"), ((2,), "C3"), ((3,), "C2")]
)
def test_br_nr_zero_on_family(orders, gname):
    d = build_bk(FinAbGroup(orders), named_group(gname))
    rep = br_nr_bk(d)
    assert rep.kernel_equals_pure_span
    assert rep.quotient.cardinality == 1
    assert rep.kernel_size == d.AA.group.cardinality  # Ker phi = j(A (x) A)


def test_br_nr_not_constant_on_non_induced_pairings():
    """A pairing whose kernel is not generated by vanishing pure tensors."""
    Mab = FinAbGroup((2, 2))
    tens = TensorProduct(Mab, Mab)
    phi = AbHom(tens.group, FinAbGroup((2, 2)), [[0, 1, 1, 0], [1, 0, 0, 0]])
    K, incl = kernel(phi)
    rows = []
    for xc in itertools.product(range(2), repeat=2):
        for yc in itertools.product(range(2), repeat=2):
            t = tens.pair_coords(np.array(xc, dtype=np.int64), np.array(yc, dtype=np.int64))
            if not phi.apply_coords(t).any():
                rows.append(t)
    lattice = 2 * np.eye(4, dtype=np.int64)
    span = ModSpan(np.concatenate([np.array(rows), lattice]), 2, n=4)
    pure = span.size() // ModSpan(lattice, 2, n=4).size()
    assert K.cardinality == 4 and pure == 2  # quotient C2, pinned by the search
    # the same pairing through br_nr_bk, on a datum-shaped namespace
    datum = SimpleNamespace(
        phi=phi, Mmod=SimpleNamespace(ab=Mab), MMmod=SimpleNamespace(ab=tens.group), tensorMM=tens
    )
    rep = br_nr_bk(datum)
    assert (rep.kernel_size, rep.pure_span_size) == (4, 2)
    assert not rep.kernel_equals_pure_span
    assert same_invariants(rep.quotient, FinAbGroup((2,)))


# -- cyclic kernels ----------------------------------------------------------


def test_sha_trivial_action_zero():
    for name in ["C4", "C2xC2", "S3", "C6"]:
        rep = sha_cyclic(trivial_module(named_group(name), FinAbGroup((2,))), 1)
        assert rep.kernel.cardinality == 1 and rep.verified


def test_sha_induced_zero_by_shapiro():
    for name in ["C2", "C3", "C2xC2", "S3"]:
        G = named_group(name)
        M = induced_module(G, Subgroup.make(G, [0]), FinAbGroup((2,)))
        rep = sha_cyclic(M, 1)
        assert rep.total.cardinality == 1 and rep.kernel.cardinality == 1


def test_sha_dual_of_induced_zero():
    for name in ["C2", "C3", "S3", "C2xC2"]:
        G = named_group(name)
        M = dual_module(induced_module(G, Subgroup.make(G, [0]), FinAbGroup((2,))))
        rep = sha_cyclic(M, 1)
        assert rep.kernel.cardinality == 1 and rep.verified


def test_sha_nonzero_regression():
    """Klein four acting on Z/8 through its full unit group: kernel C2.

    Found by exhaustive search over small modules; pinned as a regression so
    the kernel computation can never silently become constant.
    """
    K4 = named_group("C2xC2")
    acts = np.zeros((4, 1, 1), dtype=np.int64)
    acts[0, 0, 0] = 1
    acts[1, 0, 0] = 3
    acts[2, 0, 0] = 5
    acts[3, 0, 0] = 7
    M = GModule(K4, FinAbGroup((8,)), acts)
    rep = sha_cyclic(M, 1)
    assert rep.verified
    assert same_invariants(rep.kernel, FinAbGroup((2,)))


def _klein_on_z8():
    acts = np.array([1, 3, 5, 7], dtype=np.int64).reshape(4, 1, 1)
    return GModule(named_group("C2xC2"), FinAbGroup((8,)), acts)


@pytest.mark.parametrize(
    "make,degree,kernel_size",
    [
        (_klein_on_z8, 1, 2),
        # x1 u x2 restricts to a1 a2 (x u x) = 0 on every cyclic subgroup
        (lambda: trivial_module(direct_product(cyclic_group(3), cyclic_group(3)), FinAbGroup((3,))), 2, 3),
        (lambda: trivial_module(named_group("C4"), FinAbGroup((2,))), 2, 1),
        # H^1(S3, Z/3) = 0 while H^1(C3, Z/3) = Z/3: P is trivial
        (lambda: trivial_module(named_group("S3"), FinAbGroup((3,))), 1, 1),
    ],
    ids=["klein-z8", "c3xc3-deg2", "c4-deg2", "trivial-P"],
)
def test_restriction_kernel_matches_enumeration(make, degree, kernel_size):
    """Kernel of restriction to cyclic subgroups, against a loop over every class."""
    M = make()
    H = cohomkit.cohomology.cohomology(M, degree)
    P = H.group
    local = []
    for sub in cyclic_subgroups(M.group):
        Mres, embed = restrict_module(M, sub)
        HC = cohomkit.cohomology.cohomology(Mres, degree)
        local.append((embed, HC, HC.presentation))
    K, kgens = _restriction_kernel(P, [H.rep(c) for c in P.generators()], local)

    def restriction(c, embed, HC):
        args = itertools.product(embed, repeat=degree)
        return Cochain(HC.module, degree, np.array([c.table[a] for a in args]))

    want = [
        cls.coords
        for cls in P.elements()
        if all(HC.is_coboundary(restriction(H.rep(cls), embed, HC)) for embed, HC, _ in local)
    ]
    assert K.cardinality == len(want) == kernel_size
    span = subgroup_span(P.orders, [g.coords for g in kgens])
    assert subgroup_order(span, P.orders) == len(want)
    assert all(span.contains(c) for c in want)


def test_sha_broken_restriction_reads_unverified(monkeypatch):
    """A restriction that leaves the cocycles gives verified false, not a traceback.

    The first shift sits at the identity of each nontrivial subgroup, off
    the generator slices, so the class coordinates would read as before.
    The second moves the last entry of every restricted table, a
    generator-slice value, so no class coordinates can be read; the kernel
    is then reported as all of H^1.
    """
    restricted_table = Cochain.restricted_table

    def at_identity(self, embed):
        table = restricted_table(self, embed).copy()
        if len(embed) > 1:
            table[0] += 1
        return table

    def at_last_entry(self, embed):
        table = restricted_table(self, embed).copy()
        table.reshape(-1)[-1] += 1
        return table

    for shifted in (at_identity, at_last_entry):
        monkeypatch.setattr(Cochain, "restricted_table", shifted)
        rep = sha_cyclic(_klein_on_z8(), 1)
        assert not rep.verified
        assert rep.kernel.cardinality == rep.total.cardinality


# -- cyclic span detection ----------------------------------------------------


def _all_families(G, n):
    homs = list(G.elements())  # characters encoded as coordinate vectors
    for r in range(0, 3):
        for fam in itertools.combinations(homs, r):
            yield list(fam)


@pytest.mark.parametrize("orders,n", [((2, 2), 2), ((2, 2), 4), ((4,), 4), ((3,), 3), ((2,), 4)])
def test_cyclic_detection_equals_global_membership(orders, n):
    G = FinAbGroup(orders)
    for fam in _all_families(G, n):
        for a in G.elements():
            got = cyclic_span_detect(G, fam, a, n)
            want = global_span_membership(G, fam, a, n)
            assert got == want, (fam, a)


def test_cyclic_detection_examples():
    G = FinAbGroup((2, 2))
    a1 = G.element([1, 0])
    a2 = G.element([0, 1])
    assert cyclic_span_detect(G, [a1], a1, 2)
    assert not cyclic_span_detect(G, [a1], a2, 2)  # witness: the second factor
    assert cyclic_span_detect(G, [a1, a2], G.element([1, 1]), 2)


# -- structure probes ----------------------------------------------------------


def test_not_supersolvable_probe_paper_module():
    C3 = cyclic_group(3)
    M = induced_module(C3, Subgroup.make(C3, [0]), FinAbGroup((2,)))
    Mbar, _, _ = quotient_module(M, [[1, 1, 1]])
    rep = not_supersolvable_probe(Mbar)
    assert (rep.simple, rep.cyclic, rep.order) == (True, False, 4)


def test_probe_baselines():
    assert not_supersolvable_probe(trivial_module(cyclic_group(1), FinAbGroup((5,)))) == \
        not_supersolvable_probe(trivial_module(cyclic_group(1), FinAbGroup((5,))))
    p = not_supersolvable_probe(trivial_module(cyclic_group(1), FinAbGroup((5,))))
    assert (p.simple, p.cyclic, p.order) == (True, True, 5)
    q = not_supersolvable_probe(trivial_module(cyclic_group(1), FinAbGroup((2, 2))))
    assert (q.simple, q.cyclic, q.order) == (False, False, 4)


def test_center_and_derived_subgroup_helpers():
    D8 = named_group("D8")
    assert center_subgroup(D8).size == 2
    assert derived_subgroup(D8).size == 2
    Q8 = named_group("Q8")
    assert center_subgroup(Q8).size == 2 and derived_subgroup(Q8).size == 2
