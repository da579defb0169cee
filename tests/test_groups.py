"""Table groups, induced modules, sections, and the decomposition isos."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomkit.abelian import FinAbGroup, is_cyclic
from cohomkit.groups import (
    GROUP_CATALOG,
    GModule,
    LocalizationContext,
    Subgroup,
    alternating_subgroup_s3,
    center_subgroup,
    coset_section,
    cyclic_group,
    cyclic_subgroups,
    derived_subgroup,
    direct_product,
    dual_module,
    generated_subgroup,
    induced_module,
    is_simple_module,
    named_group,
    omega_decomposition,
    quotient_group,
    quotient_module,
    restrict_module,
    subgroup_group,
    submodule_lattice,
    tensor_module,
    trivial_module,
    varsigma_decomposition,
)

ALL_NAMES = ["1", "C2", "C3", "C4", "C6", "C2xC2", "S3", "D8", "Q8", "Heis8", "Heis27"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_groups_validate(name):
    G = named_group(name)
    assert G.op(0, 0) == 0
    for g in G.elements():
        assert G.op(g, int(G.inv[g])) == 0


def test_bad_table_rejected_with_triple():
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        named_group("C2").__class__(bad)


def test_quotient_s3_by_a3():
    S3 = named_group("S3")
    A3 = alternating_subgroup_s3(S3)
    assert A3.normal and A3.size == 3
    Q, proj = quotient_group(S3, A3)
    assert len(Q) == 2
    for g in S3.elements():
        for h in S3.elements():
            assert proj[S3.op(g, h)] == Q.op(int(proj[g]), int(proj[h]))


def test_induced_module_cyclic_shift():
    C3 = cyclic_group(3)
    M = induced_module(C3, Subgroup.make(C3, [0]), FinAbGroup((2,)))
    assert M.ab.cardinality == 8
    moved = M.apply(1, np.array([1, 0, 0]))
    assert tuple(moved) == (0, 0, 1)  # right translation of the argument


def test_induced_module_full_subgroup_is_trivial():
    C3 = cyclic_group(3)
    M = induced_module(C3, Subgroup.make(C3, [0, 1, 2]), FinAbGroup((2,)))
    assert M.ab.cardinality == 2 and M.is_trivial_action()


def test_induced_module_s3_swap():
    S3 = named_group("S3")
    A3 = alternating_subgroup_s3(S3)
    M = induced_module(S3, A3, FinAbGroup((3,)))
    assert M.ab.cardinality == 9
    for g in S3.elements():
        if S3.order_of(g) == 2:
            assert tuple(M.apply(g, np.array([1, 0]))) == (0, 1)
    # restriction to H acts trivially
    Mres, _ = restrict_module(M, A3)
    assert Mres.is_trivial_action()


def test_induced_requires_normal_subgroup():
    S3 = named_group("S3")
    t = [g for g in S3.elements() if S3.order_of(g) == 2][0]
    with pytest.raises(AssertionError):
        induced_module(S3, generated_subgroup(S3, [t]), FinAbGroup((2,)))


@pytest.mark.parametrize(
    "gname,members",
    [("C4", [0, 2]), ("S3", None), ("C2xC2", [0, 3])],
)
def test_coset_sections_validate(gname, members):
    G = named_group(gname)
    H = alternating_subgroup_s3(G) if members is None else Subgroup.make(G, members)
    sec = coset_section(G, H)  # constructor checks the section cocycle law
    assert sec.u[0] == 0


def test_coset_section_full_subgroup():
    S3 = named_group("S3")
    sec = coset_section(S3, Subgroup.make(S3, list(S3.elements())))
    assert sec.n_cosets == 1
    for s in S3.elements():
        assert int(sec.Hembed[sec.gamma[0, s]]) == s  # gamma(., s) = s


@pytest.mark.parametrize(
    "gname,hmem,aorders",
    [
        ("C2", [0], (2,)),
        ("C3", [0], (2,)),
        ("S3", None, (3,)),
        ("C3", [0, 1, 2], (2,)),
        ("C2xC2", [0, 3], (2, 2)),
    ],
)
def test_omega_is_equivariant_isomorphism(gname, hmem, aorders):
    G = named_group(gname)
    H = alternating_subgroup_s3(G) if hmem is None else Subgroup.make(G, hmem)
    omega_decomposition(G, H, FinAbGroup(aorders)).verify()


def test_varsigma_fixtures():
    S3 = named_group("S3")
    A3 = alternating_subgroup_s3(S3)
    t = [g for g in S3.elements() if S3.order_of(g) == 2][0]
    for D, e in [
        (generated_subgroup(S3, [t]), 1),   # image of D covers the quotient
        (Subgroup.make(S3, list(S3.elements())), 1),
        (Subgroup.make(S3, [0]), 2),        # full coordinate split
    ]:
        ctx = LocalizationContext(S3, A3, D)
        assert ctx.e == e
        assert ctx.e * ctx.gv.size == len(ctx.quotient)  # unique factorization
        varsigma_decomposition(ctx, FinAbGroup((3,))).verify()


def test_localization_unique_factorization_exhaustive():
    K4 = named_group("C2xC2")
    diag = Subgroup.make(K4, [0, 3])
    ctx = LocalizationContext(K4, diag, Subgroup.make(K4, [0, 1]))
    for g in ctx.quotient.elements():
        s, h = ctx.factor(g)
        assert ctx.quotient.op(s, h) == g


def test_simple_module_lemma_fixture():
    # (Z/2)^3 / <(1,1,1)> with the cyclic rotation is simple, noncyclic, order 4
    C3 = cyclic_group(3)
    M = induced_module(C3, Subgroup.make(C3, [0]), FinAbGroup((2,)))
    Mbar, proj, _ = quotient_module(M, [[1, 1, 1]])
    assert Mbar.ab.cardinality == 4
    assert is_simple_module(Mbar)
    assert not is_cyclic(Mbar.ab)


def test_submodule_lattice_trivial_action():
    T = trivial_module(cyclic_group(1), FinAbGroup((4,)))
    assert [s.size() for s in submodule_lattice(T)] == [1, 2, 4]
    P = trivial_module(cyclic_group(1), FinAbGroup((5,)))
    assert is_simple_module(P)
    K = trivial_module(cyclic_group(1), FinAbGroup((2, 2)))
    assert not is_simple_module(K)
    # C2 x C2 x C4 has 27 subgroups: each must appear under one canonical basis
    assert len(submodule_lattice(trivial_module(cyclic_group(1), FinAbGroup((2, 2, 4))))) == 27


def test_submodule_lattice_bound():
    big = trivial_module(cyclic_group(1), FinAbGroup((2,) * 13))
    with pytest.raises(ValueError):
        submodule_lattice(big)


def test_module_action_laws_checked():
    C2 = cyclic_group(2)
    with pytest.raises(ValueError):
        GModule(C2, FinAbGroup((4,)), [np.eye(1, dtype=int), [[2]]])  # x2 not invertible


def test_action_at_orders_past_int64_products_is_exact():
    # (order - 1)^2 wraps in int64 at 2^40 + 15; negation is still an action
    o = 2**40 + 15
    C2 = cyclic_group(2)
    M = GModule(C2, FinAbGroup((o,)), [[[1]], [[o - 1]]])
    assert M.apply(1, np.array([5])).tolist() == [o - 5]
    assert M.apply(1, np.array([[o - 1], [2**39]])).tolist() == [[1], [o - 2**39]]
    with pytest.raises(ValueError, match="not invertible"):
        GModule(C2, FinAbGroup((o,)), [[[1]], [[2]]])
    # (2^20)^2 = 2^40 = -15 mod o: an order-4 action, so not one of C2
    with pytest.raises(ValueError, match="not invertible"):
        GModule(C2, FinAbGroup((o,)), [[[1]], [[2**20]]])
    C4 = cyclic_group(4)
    u = 2**20  # u^4 = 225 != 1 mod o
    with pytest.raises(ValueError):
        GModule(C4, FinAbGroup((o,)), [[[pow(u, g, o)]] for g in range(4)])


def test_action_inverse_matrices():
    S3 = named_group("S3")
    M = induced_module(S3, alternating_subgroup_s3(S3), FinAbGroup((3,)))
    mods = np.array(M.ab.orders).reshape(-1, 1)
    for g in S3.elements():
        gi = int(S3.inv[g])
        assert ((M.act[g] @ M.act[gi]) % mods == np.eye(M.ab.rank, dtype=int) % mods).all()


def test_dual_module_contragredient():
    C2 = cyclic_group(2)
    M = GModule(C2, FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]])
    Md = dual_module(M)
    # pairing <g.chi, g.m> = <chi, m>
    from cohomkit.abelian import DualPairing

    d = DualPairing(M.ab)
    for chi in Md.ab.elements():
        for m in M.ab.elements():
            moved_chi = Md.ab.element(Md.apply(1, np.array(chi.coords)))
            moved_m = M.ab.element(M.apply(1, np.array(m.coords)))
            assert d.pairing(moved_chi, moved_m) == d.pairing(chi, m)


def test_tensor_module_is_translation_action_on_pairs():
    C3 = cyclic_group(3)
    M = induced_module(C3, Subgroup.make(C3, [0]), FinAbGroup((2,)))
    MM, tens = tensor_module(M, M)
    # pure tensors transform as pairs
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.integers(0, 2, 3)
        b = rng.integers(0, 2, 3)
        for g in C3.elements():
            lhs = MM.apply(g, tens.pair_coords(a, b))
            rhs = tens.pair_coords(M.apply(g, a), M.apply(g, b))
            assert (lhs == rhs).all()


def test_cyclic_subgroups_dedup():
    K4 = named_group("C2xC2")
    subs = cyclic_subgroups(K4)
    assert len(subs) == 4  # trivial + three C2s


# -- subgroup closure against a pure-Python reference ------------------------


def _bfs_closure(G, gens):
    """Closure of {1} under left and right multiplication, one element at a time."""
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            for y in (int(G.mul[x][g]), int(G.mul[g][x])):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return seen


def _is_normal(G, members):
    return all(int(G.mul[G.mul[g][s]][G.inv[g]]) in members for g in range(G.size) for s in members)


_CATALOG_GROUPS = {name: make() for name, make in GROUP_CATALOG.items()}


@st.composite
def _group_and_elements(draw):
    G = _CATALOG_GROUPS[draw(st.sampled_from(sorted(_CATALOG_GROUPS)))]
    elems = draw(st.lists(st.integers(0, G.size - 1), max_size=4))
    return G, elems


@given(_group_and_elements())
@settings(max_examples=150, deadline=None)
def test_generated_subgroup_matches_bfs_closure(case):
    G, gens = case
    want = _bfs_closure(G, gens)
    sub = generated_subgroup(G, gens)
    assert sub.members == tuple(sorted(want))
    assert all(type(m) is int for m in sub.members)
    assert sub.normal == _is_normal(G, want)


@pytest.mark.parametrize("name", sorted(_CATALOG_GROUPS))
def test_center_and_derived_subgroup_match_per_pair_loops(name):
    G = _CATALOG_GROUPS[name]
    pairs = [(a, b) for a in range(G.size) for b in range(G.size)]
    center = {a for a in range(G.size) if all(G.op(a, b) == G.op(b, a) for b in range(G.size))}
    commutators = {G.op(G.op(a, b), G.op(int(G.inv[a]), int(G.inv[b]))) for a, b in pairs}
    assert center_subgroup(G).members == tuple(sorted(center))
    assert derived_subgroup(G).members == tuple(sorted(_bfs_closure(G, commutators)))


@given(_group_and_elements())
@settings(max_examples=150, deadline=None)
def test_subgroup_make_accepts_exactly_closed_sets(case):
    G, elems = case
    members = set(elems) | {0}
    closed = all(int(G.inv[a]) in members for a in members) and all(
        int(G.mul[a][b]) in members for a in members for b in members
    )
    if closed:
        sub = Subgroup.make(G, members)
        assert sub.members == tuple(sorted(members))
        assert sub.normal == _is_normal(G, members)
    else:
        with pytest.raises(ValueError, match="not closed"):
            Subgroup.make(G, members)


def test_subgroup_make_rejects_missing_identity_and_bad_indices():
    C4 = cyclic_group(4)
    with pytest.raises(ValueError, match="identity"):
        Subgroup.make(C4, [2])
    with pytest.raises(ValueError, match="out of range"):
        Subgroup.make(C4, [0, 4])
