"""Table groups, induced modules, sections, and the decomposition isos."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomkit.abelian import AbHom, FinAbGroup, TensorProduct, is_cyclic
from cohomkit.cohomology import cohomology
from cohomkit.crossed import build_bk
from cohomkit.groups import (
    GROUP_CATALOG,
    CosetSection,
    FiniteGroup,
    GModule,
    LocalizationContext,
    OmegaDecomposition,
    Subgroup,
    VarsigmaDecomposition,
    all_subgroups,
    alternating_subgroup_s3,
    center_subgroup,
    constant_inclusion,
    cosets,
    cyclic_generators,
    cyclic_group,
    cyclic_subgroups,
    derived_subgroup,
    direct_product,
    dual_module,
    generated_subgroup,
    generator_tree,
    heisenberg_group,
    induced_module,
    is_simple_module,
    minimal_generating_set,
    named_abelian,
    named_group,
    quotient_group,
    quotient_module,
    restrict_module,
    subgroup_group,
    submodule_lattice,
    tensor_module,
    trivial_module,
)

ALL_NAMES = ["1", "C2", "C3", "C4", "C6", "C2xC2", "S3", "D8", "Q8", "Heis8", "Heis27"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_groups_validate(name):
    G = named_group(name)
    assert G.op(0, 0) == 0
    for g in G.elements():
        assert G.op(g, int(G.inv[g])) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_heisenberg_table_matches_unitriangular_product(p):
    # (a, b, c)(x, y, z) = (a + x, b + y, c + z + a y), element (a, b, c) at (a p + b) p + c
    G = heisenberg_group(p)
    assert G.size == p**3 and G.name == f"Heis{p**3}"
    for a, b, c, x, y, z in itertools.product(range(p), repeat=6):
        want = (((a + x) % p) * p + (b + y) % p) * p + (c + z + a * y) % p
        assert G.op((a * p + b) * p + c, (x * p + y) * p + z) == want


def test_bad_table_rejected_with_triple():
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        named_group("C2").__class__(bad)


@pytest.mark.parametrize("n", [8, 258])
def test_a_swapped_intercalate_is_refused_at_every_order(n):
    """C_n with the intercalate at rows and columns 1 and n/2 + 1 swapped is
    a Latin square with identity 0 that is not associative."""
    half = n // 2 + 1
    mul = cyclic_group(n).mul.copy()
    mul[np.ix_([1, half], [1, half])] = mul[np.ix_([1, half], [half, 1])]
    with pytest.raises(ValueError, match=r"not associative at triple \((\d+), (\d+), (\d+)\)$") as err:
        FiniteGroup(mul)
    x, s, y = map(int, err.value.args[0].rsplit("(", 1)[1].rstrip(")").split(", "))
    assert mul[mul[x, s], y] != mul[x, mul[s, y]]


def test_associativity_verdict_matches_every_triple():
    """Light's test on a generating set agrees with the check of all n^3
    triples on random tables with identity 0."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        n = int(rng.integers(2, 6))
        mul = rng.integers(0, n, size=(n, n))
        mul[0], mul[:, 0] = np.arange(n), np.arange(n)
        associative = (mul[mul] == mul[:, mul]).all()  # [a, b, c]: (a b) c and a (b c)
        try:
            FiniteGroup(mul)
            refused = None
        except ValueError as err:
            refused = str(err)
        assert (refused is not None and "not associative" in refused) == (not associative)


@pytest.mark.parametrize("seed", range(6))
def test_row_and_inverse_checks_name_the_first_bad_element(seed):
    """C_k x ({0, 1}, max) is associative with identity 0, and its rows at
    s = 1 are no permutations and hold no identity.  Relabelled at random,
    the table is refused at the first such row, as the per-row loops find
    it; so are random tables without the checks, at the first element whose
    row does not hold the identity exactly once."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    g, s = np.divmod(np.arange(2 * k), 2)  # element 2 g + s
    mul = (g[:, None] + g[None, :]) % k * 2 + np.maximum(s[:, None], s[None, :])
    label = np.concatenate([[0], 1 + rng.permutation(2 * k - 1)])
    table = np.empty_like(mul)
    table[np.ix_(label, label)] = label[mul]
    first = next(r for r in range(2 * k) if sorted(table[r]) != list(range(2 * k)))
    with pytest.raises(ValueError, match=rf"^row {first} is not a permutation$"):
        FiniteGroup(table)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        table = rng.integers(0, n, size=(n, n))
        table[0], table[:, 0] = np.arange(n), np.arange(n)
        bad = [r for r in range(n) if (table[r] == 0).sum() != 1]
        if bad:
            with pytest.raises(ValueError, match=rf"^element {bad[0]} has no unique inverse$"):
                FiniteGroup(table, check=False)
        else:
            assert FiniteGroup(table, check=False).inv.tolist() == np.argmin(table, axis=1).tolist()


def _first_law_failure(G, act, orders):
    """The first (g, h) of the per-pair loop with act[g] act[h] != act[gh]."""
    mods = np.array(orders, dtype=object).reshape(-1, 1)
    for g, h in itertools.product(G.elements(), repeat=2):
        if ((act[g].astype(object) @ act[h].astype(object)) % mods != act[G.op(g, h)]).any():
            return g, h
    return None


@pytest.mark.parametrize("order", [4, 2**40 + 15], ids=["int64", "python-ints"])
@pytest.mark.parametrize("gname", ["C4", "D8", "S3", "Q8"])
def test_action_law_failure_names_the_first_pair(gname, order):
    """Each element acts on Z/o + Z/2 by the identity or by the involution
    -1 (+) 1, chosen at random for each pair {g, g^-1}; so the action is well
    defined and invertible, and the law fails where the choice is no
    homomorphism.  The message names the first failing pair of the per-pair
    loop, in blocks of several g and in Python integers."""
    G = named_group(gname)
    ab = FinAbGroup((order, 2))
    negate = np.diag([order - 1, 1])
    rng = np.random.default_rng(G.size)
    for _ in range(20):
        flip = rng.integers(2, size=G.size).astype(bool)
        flip[0] = False
        flip = flip | flip[G.inv]
        act = np.where(flip[:, None, None], negate, np.eye(2, dtype=np.int64))
        want = _first_law_failure(G, act, ab.orders)
        if want is None:
            assert (GModule(G, ab, act).act == act).all()
        else:
            with pytest.raises(ValueError, match=rf"^action law fails at \({want[0]},{want[1]}\)$"):
                GModule(G, ab, act)


def test_module_checks_run_in_order():
    """Not well defined and not invertible: the well-definedness check, which
    comes first, names the fault."""
    C2 = cyclic_group(2)
    with pytest.raises(ValueError, match="does not define a homomorphism"):
        GModule(C2, FinAbGroup((2, 4)), [np.eye(2, dtype=int), [[1, 0], [1, 0]]])
    with pytest.raises(ValueError, match="identity must act trivially"):
        GModule(C2, FinAbGroup((2, 4)), [[[1, 0], [1, 0]], np.eye(2, dtype=int)])


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
    assert M.ab.cardinality == 2 and (M.act == np.eye(1, dtype=np.int64)).all()


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
    assert (Mres.act == np.eye(Mres.ab.rank, dtype=np.int64)).all()


def test_induced_requires_normal_subgroup():
    S3 = named_group("S3")
    t = [g for g in S3.elements() if S3.order_of(g) == 2][0]
    with pytest.raises(ValueError, match="normal subgroup"):
        induced_module(S3, generated_subgroup(S3, [t]), FinAbGroup((2,)))


@pytest.mark.parametrize(
    "gname,members",
    [("C4", [0, 2]), ("S3", None), ("C2xC2", [0, 3])],
)
def test_coset_sections_validate(gname, members):
    G = named_group(gname)
    H = alternating_subgroup_s3(G) if members is None else Subgroup.make(G, members)
    sec = CosetSection(G, H)  # constructor checks the section cocycle law
    assert sec.u[0] == 0


def test_coset_section_full_subgroup():
    S3 = named_group("S3")
    sec = CosetSection(S3, Subgroup.make(S3, list(S3.elements())))
    assert sec.u.size == 1
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
    OmegaDecomposition(induced_module(G, H, FinAbGroup(aorders)))  # verified on construction


@pytest.mark.parametrize(
    "gname,hmem,aorders",
    [("C4", [0], (3,)), ("S3", None, (2, 4)), ("C2xC2", [0, 3], (2, 3, 4))],
)
def test_constant_inclusion_matches_the_coset_loop(gname, hmem, aorders):
    G = named_group(gname)
    H = alternating_subgroup_s3(G) if hmem is None else Subgroup.make(G, hmem)
    A = FinAbGroup(aorders)
    M = induced_module(G, H, A)
    MM, tensor = tensor_module(M, M)
    AA = TensorProduct(A, A)
    ka, m = A.rank, M.n_cosets
    rows = np.zeros((MM.ab.rank, AA.group.rank), dtype=np.int64)
    for c1 in range(m):
        for c2 in range(m):
            for t in range(AA.group.rank):
                i, j = divmod(t, ka)
                rows[tensor.index(c1 * ka + i, c2 * ka + j), t] = 1
    want = AbHom(AA.group, MM.ab, rows)
    got = constant_inclusion(M, tensor)
    assert got.source == want.source and got.target == want.target
    assert np.array_equal(got.matrix, want.matrix)


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
        VarsigmaDecomposition(ctx, induced_module(S3, A3, FinAbGroup((3,))))  # verified on construction


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


_POWER_GROUPS = {
    **GROUP_CATALOG,
    "C12": lambda: cyclic_group(12),
    "D8xC6": lambda: direct_product(named_group("D8"), cyclic_group(6)),
}


@pytest.mark.parametrize("name", sorted(_POWER_GROUPS))
def test_power_table_matches_one_multiplication_and_one_walk_per_element(name):
    G = _POWER_GROUPS[name]()
    e = G.powers.shape[1]
    lowest = {}  # the members of <g> -> the lowest element that generates it
    for g in G.elements():
        cycle = [0]
        while G.op(cycle[-1], g) != 0:
            cycle.append(G.op(cycle[-1], g))
        assert G.order_of(g) == len(cycle)
        assert G.powers[g].tolist() == cycle * (e // len(cycle))
        lowest.setdefault(generated_subgroup(G, [g]).members, g)
    assert cyclic_generators(G).tolist() == sorted(lowest.values())
    assert [s.members for s in cyclic_subgroups(G)] == sorted(lowest)


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


# -- cosets, sections and transversals against the per-element loops --------


_COSET_GROUPS = {**_CATALOG_GROUPS, "D8xC2": direct_product(named_group("D8"), cyclic_group(2))}
_SUBGROUPS = {name: all_subgroups(G) for name, G in _COSET_GROUPS.items()}
_NORMAL_PAIRS = [
    (name, H) for name, subs in sorted(_SUBGROUPS.items()) for H in subs if H.normal
]


def _right_cosets_loop(G, H):
    """The right cosets H g, numbered as first met in element order."""
    coset_of = np.full(G.size, -1, dtype=np.int64)
    reps = []
    for g in range(G.size):
        if coset_of[g] >= 0:
            continue
        reps.append(g)
        for h in H.members:
            coset_of[G.op(h, g)] = len(reps) - 1
    return coset_of, reps


def _left_transversal_loop(Q, gv):
    reps, assigned = [], {}
    for g in range(Q.size):
        if g in assigned:
            continue
        reps.append(g)
        for h in gv:
            assigned[Q.op(g, h)] = g
    return tuple(reps)


def _factor_scan(Q, transversal, gv, g):
    for s in transversal:
        h = Q.op(int(Q.inv[s]), g)
        if h in gv:
            return s, h
    raise AssertionError("no factorization")


@pytest.mark.parametrize("name", sorted(_COSET_GROUPS))
def test_cosets_match_the_right_coset_loop_on_every_subgroup(name):
    G = _COSET_GROUPS[name]
    for H in _SUBGROUPS[name]:
        coset_of, reps, table = cosets(G.mul, H.members)
        want_of, want_reps = _right_cosets_loop(G, H)
        assert coset_of.tolist() == want_of.tolist()
        assert reps.tolist() == want_reps
        # table[c, s]: the coset of reps[c] * s
        assert table.tolist() == [[int(want_of[G.op(r, s)]) for s in range(G.size)] for r in want_reps]


def test_quotient_section_and_induced_module_read_the_one_coset_table():
    for name, H in _NORMAL_PAIRS:
        G = _COSET_GROUPS[name]
        _, reps, table = cosets(G.mul, H.members)
        assert quotient_group(G, H)[0].mul.tolist() == table[:, reps].tolist()
        assert CosetSection(G, H)._cs.tolist() == table.tolist()
        # over A = Z/2, s moves the coordinate of coset c to that of c * sbar
        M = induced_module(G, H, FinAbGroup((2,)))
        assert M.act.tolist() == np.eye(reps.size, dtype=np.int64)[table.T].tolist(), (name, H.members)


def test_quotient_and_induced_module_match_the_coset_loop():
    A = FinAbGroup((2, 2))  # |A|^27 stays below the cardinality cap
    k = A.rank
    for name, H in _NORMAL_PAIRS:
        G = _COSET_GROUPS[name]
        coset_of, reps = _right_cosets_loop(G, H)
        m = len(reps)
        Q, proj = quotient_group(G, H)
        assert proj.tolist() == coset_of.tolist()
        want_mul = [[int(coset_of[G.op(a, b)]) for b in reps] for a in reps]
        assert Q.mul.tolist() == want_mul
        M = induced_module(G, H, A)
        assert M.coset_of.tolist() == coset_of.tolist()
        assert M.coset_reps.tolist() == reps
        act = np.zeros((G.size, m * k, m * k), dtype=np.int64)
        for s in range(G.size):
            for c in range(m):
                src = int(coset_of[G.op(reps[c], s)])
                for i in range(k):
                    act[s, c * k + i, src * k + i] = 1
        assert (M.act == act).all(), (name, H.members)


def test_section_gamma_matches_the_double_loop():
    for name, H in _NORMAL_PAIRS:
        G = _COSET_GROUPS[name]
        coset_of, u = _right_cosets_loop(G, H)
        hpos = {m: i for i, m in enumerate(H.members)}
        gamma = np.zeros((len(u), G.size), dtype=np.int64)
        for c in range(len(u)):
            for s in range(G.size):
                target = int(coset_of[G.op(u[c], s)])
                gamma[c, s] = hpos[G.op(G.op(u[c], s), int(G.inv[u[target]]))]
        sec = CosetSection(G, H)
        assert sec.u.tolist() == u
        assert (sec.gamma == gamma).all(), (name, H.members)
        # _cs[c, s]: the coset c * sbar
        want = [[int(coset_of[G.op(u[c], s)]) for s in range(G.size)] for c in range(len(u))]
        assert sec._cs.tolist() == want


def test_section_checks_reject_a_corrupted_gamma():
    S3 = named_group("S3")
    sec = CosetSection(S3, alternating_subgroup_s3(S3))
    sec.gamma[0, 1] = (sec.gamma[0, 1] + 1) % 3
    with pytest.raises(AssertionError, match="cocycle condition fails"):
        sec._check_cocycle_condition()
    sec.gamma[0, 1] = -1
    with pytest.raises(AssertionError, match="escaped the subgroup"):
        sec._check_cocycle_condition()


def test_transversal_and_factor_match_the_left_coset_loop():
    contexts = 0
    for name, H in _NORMAL_PAIRS:
        G = _COSET_GROUPS[name]
        if G.size > 32:
            continue
        for D in _SUBGROUPS[name]:
            ctx = LocalizationContext(G, H, D)
            Q = ctx.quotient
            gv = sorted({int(ctx.proj[d]) for d in D.members})
            assert list(ctx.gv.members) == gv
            assert ctx.transversal == _left_transversal_loop(Q, gv)
            assert ctx.e == len(ctx.transversal)
            for g in range(Q.size):
                assert ctx.factor(g) == _factor_scan(Q, ctx.transversal, set(gv), g)
            contexts += 1
    assert contexts == 1031


def test_factorization_check_rejects_a_bad_transversal():
    S3 = named_group("S3")
    ctx = LocalizationContext(S3, alternating_subgroup_s3(S3), Subgroup.make(S3, [0]))
    ctx.transversal = (0, 0)
    with pytest.raises(AssertionError, match="unique factorization"):
        ctx._check_factorization()


def test_decomposition_checks_reject_corrupted_maps():
    S3 = named_group("S3")
    A3 = alternating_subgroup_s3(S3)
    omega = OmegaDecomposition(induced_module(S3, A3, FinAbGroup((3,))))  # verified on construction
    inv = omega.inverse
    omega.inverse = AbHom(inv.source, inv.target, np.zeros_like(inv.matrix))
    with pytest.raises(AssertionError, match="not mutually inverse"):
        omega.verify()
    ctx = LocalizationContext(S3, A3, Subgroup.make(S3, list(S3.elements())))
    vs = VarsigmaDecomposition(ctx, induced_module(S3, A3, FinAbGroup((3,))))
    with pytest.raises(ValueError, match="another"):
        VarsigmaDecomposition(ctx, induced_module(S3, Subgroup.make(S3, [0]), FinAbGroup((3,))))
    # -1 on coset 0 only is its own inverse, but the transpositions swap the
    # two cosets, so it is no D-map
    flip = [[2, 0], [0, 1]]
    vs.forward = AbHom(vs.forward.source, vs.forward.target, flip)
    vs.inverse = AbHom(vs.inverse.source, vs.inverse.target, flip)
    with pytest.raises(AssertionError, match="varsigma component 0 not equivariant"):
        vs.verify()


def test_quotient_and_section_reject_non_normal_subgroups():
    S3 = named_group("S3")
    t = [g for g in S3.elements() if S3.order_of(g) == 2][0]
    H = generated_subgroup(S3, [t])
    with pytest.raises(ValueError, match="normal subgroup"):
        quotient_group(S3, H)
    with pytest.raises(ValueError, match="normal subgroup"):
        CosetSection(S3, H)


def test_subgroup_positions_invert_the_embedding():
    for name, subs in _SUBGROUPS.items():
        for H in subs:
            _, embed = subgroup_group(H)
            pos = H.positions
            assert (pos[embed] == np.arange(H.size)).all()
            assert (pos >= 0).sum() == H.size


def _greedy_generators_loop(G):
    gens, span = [], {0}
    for g in range(G.size):
        if g not in span:
            gens.append(g)
            span = set(generated_subgroup(G, gens).members)
            if len(span) == G.size:
                break
    return gens


def test_generating_set_matches_the_greedy_loop():
    f128 = build_bk(FinAbGroup((2,)), cyclic_group(2)).cp.as_table_group(cap=512)[0]
    for G in [*_COSET_GROUPS.values(), f128]:
        assert minimal_generating_set(G) == _greedy_generators_loop(G)


def _distances(G, gens, roots) -> dict:
    """Distance of each element from the roots in the Cayley graph g -> x g."""
    dist = {r: 0 for r in roots}
    frontier, d = list(roots), 0
    while frontier:
        d += 1
        frontier = [f for f in dict.fromkeys(G.op(x, g) for g in frontier for x in gens) if f not in dist]
        dist.update((f, d) for f in frontier)
    return dist


def test_generator_tree_reaches_each_element_once_from_its_parent(monkeypatch):
    """Each non-root element once, as gens[i] * parent, in first-visit order:
    parents in the order they were reached, then generator indices; level d
    holds, as int64 rows (children, generator indices, parents), the
    elements at distance d from the roots."""
    f128 = build_bk(FinAbGroup((2,)), cyclic_group(2)).cp.as_table_group(cap=512)[0]
    for G in [*(named_group(name) for name in ALL_NAMES), f128]:
        gens = minimal_generating_set(G) or [0]
        for roots in ([0], gens):
            levels = generator_tree(G, gens, roots)
            assert all(level.dtype == np.int64 and level.shape[0] == 3 for level in levels)
            tree = [tuple(edge) for level in levels for edge in level.T.tolist()]
            order = list(roots) + [f for f, _, _ in tree]
            assert sorted(order) == list(range(G.size))
            visit = {g: k for k, g in enumerate(order)}
            for f, i, g in tree:
                assert visit[g] < visit[f] and f == G.op(gens[i], g)
            keys = [(visit[g], i) for _, i, g in tree]
            assert keys == sorted(keys)
            dist = _distances(G, gens, roots)
            assert all(level.shape[1] > 0 for level in levels)
            for d, (fs, _, gs) in enumerate(levels, 1):
                assert all(dist[f] == d and dist[g] == d - 1 for f, g in zip(fs.tolist(), gs.tolist()))
    # a set that does not generate: the tree spans its subgroup, and the
    # cohomology build, which needs the whole group, refuses it
    C4 = named_group("C4")
    assert [level.tolist() for level in generator_tree(C4, [2], [0])] == [[[2], [0], [0]]]
    monkeypatch.setattr("cohomkit.cohomology.minimal_generating_set", lambda G: [2])
    with pytest.raises(AssertionError, match="does not reach every element"):
        cohomology(trivial_module(C4, FinAbGroup((2,))), 1)


def _restrict_loop(M, D):
    Dgrp, embed = subgroup_group(D)
    return np.array([M.act[int(g)] for g in embed], dtype=np.int64)


def _tensor_loop(M, N, orders):
    # Python integers, so that products past int64 stay exact
    mods = np.array(orders, dtype=object).reshape(-1, 1)
    return np.array(
        [np.kron(M.act[g].astype(object), N.act[g].astype(object)) % mods for g in M.group.elements()],
        dtype=np.int64,
    )


def _dual_loop(M):
    orders = M.ab.orders
    k = len(orders)
    acts = np.zeros((M.group.size, k, k), dtype=np.int64)
    for g in M.group.elements():
        inv = M.act[int(M.group.inv[g])]
        for i in range(k):
            for j in range(k):
                v = int(inv[j, i]) * orders[i]
                assert v % orders[j] == 0
                acts[g, i, j] = (v // orders[j]) % orders[i]
    return acts


def _modules():
    S3, C4 = named_group("S3"), cyclic_group(4)
    return [
        trivial_module(S3, FinAbGroup((2, 4, 6))),
        induced_module(S3, alternating_subgroup_s3(S3), FinAbGroup((2, 4))),
        induced_module(C4, Subgroup.make(C4, [0, 2]), FinAbGroup((3,))),
        GModule(C4, FinAbGroup((5,)), [[[1]], [[2]], [[4]], [[3]]]),
        GModule(cyclic_group(2), FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]]),
        trivial_module(S3, FinAbGroup(())),
        # -1 on Z/(2^40 + 15): the tensor's and the dual's products pass 2^63
        GModule(cyclic_group(2), FinAbGroup(((1 << 40) + 15,)), [[[1]], [[(1 << 40) + 14]]]),
    ]


@pytest.mark.parametrize("M", _modules(), ids=lambda M: repr(M))
def test_module_constructors_match_the_loops(M):
    G = M.group
    for D in all_subgroups(G):
        R, embed = restrict_module(M, D)
        assert (R.act == _restrict_loop(M, D)).all() and R.ab == M.ab
    for N in (M, trivial_module(G, FinAbGroup((2, 3)))):
        T, _ = tensor_module(M, N)
        assert (T.act == _tensor_loop(M, N, T.ab.orders)).all()
    assert (dual_module(M).act == _dual_loop(M)).all()


@pytest.mark.parametrize(
    "base, galois", [("C2", "C2"), ("C3", "C2"), ("C2xC2", "C2"), ("C4", "C3"), ("C2", "S3")]
)
def test_quotient_module_projection_is_equivariant(base, galois):
    """On the BK quotient (M (x) M) / j(A (x) A): proj kills the span rows
    and proj(g v) = g proj(v) for every g and every unit vector v."""
    G = named_group(galois)
    M = induced_module(G, Subgroup.make(G, [0]), named_abelian(base))
    MM, tensor = tensor_module(M, M)
    j = constant_inclusion(M, tensor)
    Q, proj, _ = quotient_module(MM, j.matrix.T)
    assert not proj.apply_coords(j.matrix.T).any()
    units = np.eye(MM.ab.rank, dtype=np.int64)
    for g in G.elements():
        assert (proj.apply_coords(MM.apply(g, units)) == Q.apply(g, proj.apply_coords(units))).all(), g


def test_dual_module_rejects_a_non_integral_action():
    # e0 -> e0 + e1 sends an element of order 2 to one of order 4: no
    # automorphism, and only check=False lets it through
    bad = GModule(cyclic_group(2), FinAbGroup((2, 4)), [np.eye(2, dtype=int), [[1, 0], [1, 1]]], check=False)
    with pytest.raises(ValueError, match="dual action not integral"):
        dual_module(bad)
