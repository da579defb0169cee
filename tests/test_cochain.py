"""Differential, cup product, conjugation, Shapiro maps at the table level."""

import itertools

import numpy as np
import pytest

from cohomkit.abelian import FinAbGroup
from cohomkit.cochain import (
    Cochain,
    conjugation_action,
    cup,
    differential,
    pointwise_tensor,
    random_cochain,
    shapiro_forward,
    shapiro_inverse_1,
    shapiro_inverse_2,
    zero_cochain,
)
from cohomkit.cohomology import cohomology
from cohomkit.groups import (
    CosetSection,
    GModule,
    OmegaDecomposition,
    Subgroup,
    alternating_subgroup_s3,
    cyclic_group,
    induced_module,
    named_group,
    subgroup_group,
    tensor_module,
    trivial_module,
)


def test_differential_degree0():
    C2 = cyclic_group(2)
    M = GModule(C2, FinAbGroup((4,)), [np.eye(1, dtype=int), [[3]]])
    c = Cochain(M, 0, np.array([1]))
    d = differential(c)
    assert tuple(d.table[0]) == (0,) and tuple(d.table[1]) == (2,)  # sigma m - m


def test_differential_pinned_example():
    # x(sigma) = 1 on C2 with trivial Z/2 coefficients: (dx)(s,s) = 1+1-0 = 0
    C2 = cyclic_group(2)
    M = trivial_module(C2, FinAbGroup((2,)))
    x = Cochain(M, 1, np.array([[0], [1]]))
    dx = differential(x)
    assert dx.table[1, 1, 0] == 0
    assert dx.table[0, 1, 0] == (x.table[1] + x.table[0] - x.table[1])[0]


def test_d_squared_zero_500_random():
    rng = np.random.default_rng(0)
    names = ["C2", "C3", "C4", "S3", "C2xC2"]
    count = 0
    while count < 500:
        G = named_group(names[int(rng.integers(len(names)))])
        A = FinAbGroup(tuple(int(x) for x in rng.choice([2, 3, 4], size=rng.integers(1, 3))))
        M = trivial_module(G, A)
        r = int(rng.integers(0, 3))
        c = random_cochain(M, r, rng)
        assert differential(differential(c)).is_zero
        count += 1


def test_cup_zero_and_bilinear():
    S3 = named_group("S3")
    M = induced_module(S3, alternating_subgroup_s3(S3), FinAbGroup((3,)))
    MM, tens = tensor_module(M, M)
    rng = np.random.default_rng(1)
    x = random_cochain(M, 1, rng)
    xp = random_cochain(M, 1, rng)
    y = random_cochain(M, 1, rng)
    assert cup(zero_cochain(M, 1), y, tens, MM).is_zero
    assert cup(x + xp, y, tens, MM) == cup(x, y, tens, MM) + cup(xp, y, tens, MM)


@pytest.mark.parametrize("s", [1, 2])
def test_leibniz_rule_exact(s):
    S3 = named_group("S3")
    M = induced_module(S3, alternating_subgroup_s3(S3), FinAbGroup((3,)))
    MM, tens = tensor_module(M, M)
    rng = np.random.default_rng(2)
    for _ in range(15):
        x = random_cochain(M, 1, rng)
        y = random_cochain(M, s, rng)
        lhs = differential(cup(x, y, tens, MM))
        rhs = cup(differential(x), y, tens, MM) + (-1) * cup(x, differential(y), tens, MM)
        assert lhs == rhs


def test_cup_nontrivial_square_class():
    # G = C2, x the nontrivial 1-cocycle: [x u x] != 0 in H^2(C2, Z/2)
    C2 = cyclic_group(2)
    M = trivial_module(C2, FinAbGroup((2,)))
    from cohomkit.abelian import TensorProduct

    MM, tens = tensor_module(M, M)
    x = Cochain(M, 1, np.array([[0], [1]]))
    assert differential(x).is_zero
    xx = cup(x, x, tens, MM)
    H2 = cohomology(MM, 2)
    assert H2.is_cocycle(xx)
    assert not H2.is_coboundary(xx)


def test_cup_well_defined_on_classes_randomized():
    S3 = named_group("S3")
    M = induced_module(S3, alternating_subgroup_s3(S3), FinAbGroup((3,)))
    MM, tens = tensor_module(M, M)
    H1 = cohomology(M, 1)
    H2 = cohomology(MM, 2)
    rng = np.random.default_rng(3)
    classes = H1.classes()
    for _ in range(100):
        a = classes[int(rng.integers(len(classes)))]
        b = classes[int(rng.integers(len(classes)))]
        shift = differential(random_cochain(M, 0, rng))
        lhs = cup(a.rep + shift, b.rep, tens, MM)
        rhs = cup(a.rep, b.rep, tens, MM)
        assert H2.classes_equal(lhs, rhs)


def test_conjugation_inner_trivial_on_classes():
    S3 = named_group("S3")
    A3 = alternating_subgroup_s3(S3)
    Hgrp, embed = subgroup_group(A3)
    tH = trivial_module(Hgrp, FinAbGroup((3,)))
    H1 = cohomology(tH, 1)
    for cls in H1.classes():
        for sigma in A3.members:  # inner: acts trivially on classes
            moved = conjugation_action(S3, A3, embed, int(sigma), cls.rep)
            assert H1.classes_equal(moved, cls.rep)
        moved_id = conjugation_action(S3, A3, embed, 0, cls.rep)
        assert moved_id == cls.rep


def test_conjugation_by_transposition_inverts():
    S3 = named_group("S3")
    A3 = alternating_subgroup_s3(S3)
    Hgrp, embed = subgroup_group(A3)
    tH = trivial_module(Hgrp, FinAbGroup((3,)))
    H1 = cohomology(tH, 1)
    t = [g for g in S3.elements() if S3.order_of(g) == 2][0]
    for cls in H1.classes():
        moved = conjugation_action(S3, A3, embed, t, cls.rep)
        assert H1.classes_equal(moved, (-1) * cls.rep)


def _all_cocycles(module, degree):
    n = module.group.size
    k = module.ab.rank
    out = []
    for vals in itertools.product(*[range(o) for o in list(module.ab.orders) * (n**degree)]):
        c = Cochain(module, degree, np.array(vals).reshape((n,) * degree + (k,)))
        if differential(c).is_zero:
            out.append(c)
    return out


@pytest.mark.parametrize(
    "gname,hmem,aorders",
    [
        ("C2", [0], (2,)),
        ("C4", [0, 2], (2,)),
        ("C2xC2", [0, 3], (2,)),
        ("S3", None, (3,)),
        ("C3", [0], (2,)),
    ],
)
def test_shapiro_quasi_inverse_roundtrip_all_cocycles(gname, hmem, aorders):
    """sh . sh_inverse = identity at the cochain level, degrees 1 and 2."""
    G = named_group(gname)
    H = alternating_subgroup_s3(G) if hmem is None else Subgroup.make(G, hmem)
    A = FinAbGroup(aorders)
    sec = CosetSection(G, H)
    M = induced_module(G, H, A)
    Hgrp, embed = subgroup_group(H)
    tH = trivial_module(Hgrp, A)
    for a in _all_cocycles(tH, 1):
        x = shapiro_inverse_1(a, sec, M)
        assert differential(x).is_zero
        assert shapiro_forward(x, tH, embed) == a
        if a.is_zero:
            assert x.is_zero
    for a in _all_cocycles(tH, 2):
        x = shapiro_inverse_2(a, sec, M)
        assert differential(x).is_zero
        assert shapiro_forward(x, tH, embed) == a


def test_shapiro_inverse_on_subgroup_elements_is_conjugation():
    # for sigma in H, x_sigma(g) = a twisted by the section lift of g
    C4 = cyclic_group(4)
    H = Subgroup.make(C4, [0, 2])
    A = FinAbGroup((2,))
    sec = CosetSection(C4, H)
    M = induced_module(C4, H, A)
    Hgrp, embed = subgroup_group(H)
    tH = trivial_module(Hgrp, A)
    a = Cochain(tH, 1, np.array([[0], [1]]))
    if differential(a).is_zero:
        x = shapiro_inverse_1(a, sec, M)
        for sigma_local, sigma in enumerate(embed):
            for c in range(sec.u.size):
                lifted = conjugation_action(C4, H, embed, int(C4.inv[int(sec.u[c])]), a)
                assert x.table[int(sigma), c] == lifted.table[sigma_local, 0]


def test_sh_prime_agrees_with_omega_then_shapiro():
    """Componentwise: mapping through omega_g and then Shapiro, as sh_prime
    does, equals the explicit evaluation (s_vec) -> x_{s_vec}(g, 1) over H."""
    from cohomkit.cochain import sh_prime

    rng = np.random.default_rng(7)
    cases = [("C2", [0], (2,)), ("C3", [0], (2,)), ("S3", None, (3,)), ("C2xC2", [0, 3], (2, 4))]
    for gname, hmem, aorders in cases:
        G = named_group(gname)
        H = alternating_subgroup_s3(G) if hmem is None else Subgroup.make(G, hmem)
        A = FinAbGroup(aorders)
        om = OmegaDecomposition(induced_module(G, H, A))
        Hgrp, embed = subgroup_group(H)
        tH_AA = trivial_module(Hgrp, om.AA.group)
        ka, kaa = A.rank, om.AA.group.rank
        for r in (1, 2):
            x = random_cochain(om.MM, r, rng)
            sub = x.restricted_table(embed)
            comps = sh_prime(x, om, tH_AA, embed)
            for g in range(om.count):
                # coordinate t = (i, j) of A (x) A at (g, 1): a_i at coset g
                # times a_j at the identity coset 0
                cols = [om.tensor.index(g * ka + t // ka, 0 * ka + t % ka) for t in range(kaa)]
                assert comps[g] == Cochain(tH_AA, r, sub[..., cols]), (gname, r, g)


def test_constant_function_inclusion_has_equal_components():
    from cohomkit.abelian import AbHom
    from cohomkit.cochain import sh_prime

    C4 = cyclic_group(4)
    H = Subgroup.make(C4, [0, 2])
    om = OmegaDecomposition(induced_module(C4, H, FinAbGroup((2,))))
    ka = 1
    kaa = om.AA.group.rank
    m = om.count
    rows = np.zeros((om.MM.ab.rank, kaa), dtype=np.int64)
    for c1 in range(m):
        for c2 in range(m):
            for t in range(kaa):
                rows[om.tensor.index(c1 * ka + t // ka, c2 * ka + t % ka), t] = 1
    j = AbHom(om.AA.group, om.MM.ab, rows)
    Hgrp, embed = subgroup_group(H)
    tG = trivial_module(C4, om.AA.group)
    tH_AA = trivial_module(Hgrp, om.AA.group)
    rng = np.random.default_rng(8)
    x = random_cochain(tG, 2, rng)
    comps = sh_prime(x.mapped(j, om.MM), om, tH_AA, embed)
    for g in range(1, m):
        assert comps[g] == comps[0]


def test_pointwise_tensor():
    C2 = cyclic_group(2)
    M = trivial_module(C2, FinAbGroup((2,)))
    MM, tens = tensor_module(M, M)
    rng = np.random.default_rng(5)
    x, y = random_cochain(M, 1, rng), random_cochain(M, 1, rng)
    t = pointwise_tensor(x, y, tens, MM)
    for s in C2.elements():
        want = tens.pair_coords(x.table[s], y.table[s])
        assert (t.table[s] == want).all()


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_restricted_table_matches_per_element_indexing(degree):
    D8 = named_group("D8")
    M = trivial_module(D8, FinAbGroup((2, 4)))
    c = random_cochain(M, degree, np.random.default_rng(degree))
    embed = np.array([0, 5, 2, 7])
    got = c.restricted_table(embed)
    assert got.shape == (len(embed),) * degree + (2,)
    for args in itertools.product(range(len(embed)), repeat=degree):
        assert (got[args] == c.table[tuple(embed[i] for i in args)]).all()


def _differential_per_element(c):
    """The bar differential, one argument tuple (s0, ..., sr) at a time."""
    M, r = c.module, c.degree
    G = M.group
    orders = np.array(M.ab.orders, dtype=np.int64)
    out = np.zeros((G.size,) * (r + 1) + (M.ab.rank,), dtype=np.int64)
    for s in itertools.product(range(G.size), repeat=r + 1):
        val = M.act[s[0]] @ c.table[s[1:]]
        for i in range(1, r + 1):
            fused = s[: i - 1] + (int(G.mul[s[i - 1], s[i]]),) + s[i + 1 :]
            val = val + (-1) ** i * c.table[fused]
        val = val + (-1) ** (r + 1) * c.table[s[:r]]
        out[s] = val % orders
    return out


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_differential_matches_per_element_reference(degree):
    """S3 permutes the two A3-cosets of Ind(Z/3 x Z/4): a nonabelian group, a nontrivial action."""
    S3 = named_group("S3")
    M = induced_module(S3, alternating_subgroup_s3(S3), FinAbGroup((3, 4)))
    assert (M.act != np.eye(M.ab.rank, dtype=np.int64)).any()
    for seed in range(3):
        c = random_cochain(M, degree, np.random.default_rng(seed))
        assert (differential(c).table == _differential_per_element(c)).all()
