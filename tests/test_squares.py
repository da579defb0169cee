"""The compatibility-square battery over the whole fixture family."""

import numpy as np
import pytest

from cohomkit.abelian import AbHom, FinAbGroup
from cohomkit.cochain import Cochain, cup, random_cochain, sh_prime, shapiro_forward
from cohomkit.fixtures import shapiro_fixtures
from cohomkit.groups import LocalizationContext, OmegaDecomposition, Subgroup, induced_module, named_group
from cohomkit.squares import LOCAL_SQUARES, SQUARE_NAMES, ShapiroSquares, verify_shapiro_squares

FIXTURES = shapiro_fixtures()
PLACE_FIXTURES = shapiro_fixtures(("C2", "C3", "C2xC2", "C2xC4"))


@pytest.mark.parametrize("fx", FIXTURES, ids=[f.name for f in FIXTURES])
def test_all_squares_pass(fx):
    for D in fx.decompositions:
        ctx = LocalizationContext(fx.G, fx.H, D)
        results = verify_shapiro_squares(fx.G, fx.H, fx.A, ctx=ctx)
        assert [r.name for r in results] == list(SQUARE_NAMES)
        for r in results:
            assert r.status == "pass", (fx.name, r.name, r.detail, r.witness)


@pytest.mark.parametrize("fx", PLACE_FIXTURES, ids=[f.name for f in PLACE_FIXTURES])
def test_loc_h2_family_placed_by_the_coset_formula(fx):
    """loc-H2's y, omega^-1 of the family that is x at g0 and zero elsewhere,
    is y(s_vec)(c1, c2) = x(s_vec)(c2) when c1 c2^-1 = g0, and 0 otherwise."""
    om = OmegaDecomposition(induced_module(fx.G, fx.H, fx.A))
    G, M = fx.G, om.M
    ka, kaa, m = fx.A.rank, om.AA.group.rank, om.count
    reps = [int(u) for u in M.coset_reps]
    rng = np.random.default_rng(17)
    for r in (1, 2):
        x = random_cochain(om.ind_AA, r, rng)
        for g0 in range(m):
            y = x.mapped(om.place(g0), om.MM)
            for c1, c2 in np.ndindex(m, m):
                at_g0 = M.coset_of[G.op(reps[c1], int(G.inv[reps[c2]]))] == g0
                for i, j in np.ndindex(ka, ka):
                    got = y.table[..., om.tensor.index(c1 * ka + i, c2 * ka + j)]
                    want = x.table[..., c2 * kaa + om.AA.index(i, j)] if at_g0 else 0
                    assert (got == want).all(), (r, g0, c1, c2, i, j)


def _sh_prime_loop(x, omega, H_module, embed):
    """sh', one omega component at a time over the whole group, then restricted."""
    comps = [AbHom(omega.MM.ab, omega.ind_AA.ab, block) for block in omega.blocks()]
    return [shapiro_forward(x.mapped(c, omega.ind_AA), H_module, embed) for c in comps]


def _sh_v_loop(sq, z):
    comps = [AbHom(sq.M.ab, sq.M_local.ab, block) for block in sq.vs.blocks()]
    return [shapiro_forward(z.mapped(c, sq.M_local), sq.trivHD_A, sq.HDembed) for c in comps]


def _sh_v_prime_loop(sq, z):
    out = {}
    local_MM = sq.local_omega.MM
    blocks = sq.vs.blocks()
    for si in range(sq.ctx.e):
        for ti in range(sq.ctx.e):
            comp = z.mapped(AbHom(sq.MM.ab, local_MM.ab, np.kron(blocks[si], blocks[ti])), local_MM)
            for c_local, part in enumerate(_sh_prime_loop(comp, sq.local_omega, sq.trivHD_AA, sq.HDembed)):
                out[(int(sq.vs.gv_of_local_coset[c_local]), si, ti)] = part
    return out


@pytest.mark.parametrize("fx", PLACE_FIXTURES, ids=[f.name for f in PLACE_FIXTURES])
def test_stacked_shapiro_evaluations_match_the_component_loops(fx):
    """sh', sh_v and sh'_v restrict first and apply the identity-coset rows of
    every component at once; the loops map each component over the whole
    group and then restrict.  Same cochains, and sh'_v in (h, s, t) order."""
    rng = np.random.default_rng(23)
    for D in fx.decompositions:
        sq = ShapiroSquares(fx.G, fx.H, fx.A, ctx=LocalizationContext(fx.G, fx.H, D))
        for r in (1, 2):
            x = random_cochain(sq.MM, r, rng)
            args = (sq.omega, sq.trivH_AA, sq.embed)
            assert sh_prime(x, *args) == _sh_prime_loop(x, *args)
            z = random_cochain(sq.M_res, r, rng)
            assert sq.sh_v_components(z) == _sh_v_loop(sq, z)
            zz = random_cochain(sq.MM_res, r, rng)
            assert list(sq.sh_v_prime_components(zz).items()) == list(_sh_v_prime_loop(sq, zz).items())


def test_global_squares_without_context_skip_local():
    C2 = named_group("C2")
    res = verify_shapiro_squares(C2, Subgroup.make(C2, [0]), FinAbGroup((2,)))
    statuses = {r.name: r.status for r in res}
    assert statuses["cup"] == "pass" and statuses["j"] == "pass"
    assert statuses["cup-local"] == "skipped"
    assert statuses["loc-H2"] == "skipped"


def test_localization_with_full_group_reduces_to_global():
    S3 = named_group("S3")
    from cohomkit.groups import alternating_subgroup_s3

    A3 = alternating_subgroup_s3(S3)
    ctx = LocalizationContext(S3, A3, Subgroup.make(S3, list(S3.elements())))
    res = verify_shapiro_squares(S3, A3, FinAbGroup((3,)), ctx=ctx)
    assert all(r.status == "pass" for r in res)
    assert ctx.e == 1


def test_squares_build_each_induced_module_of_a_once(monkeypatch):
    from cohomkit import groups

    S3 = named_group("S3")
    A3 = groups.alternating_subgroup_s3(S3)
    A = FinAbGroup((2, 4))
    built = []
    init = groups.InducedModule.__init__

    def counting_init(self, G, H, B):
        built.append((G.size, B))
        init(self, G, H, B)

    monkeypatch.setattr(groups.InducedModule, "__init__", counting_init)
    ShapiroSquares(S3, A3, A, ctx=LocalizationContext(S3, A3, Subgroup.make(S3, [0])))
    assert built.count((6, A)) == 1  # Ind_H^G(A)
    assert built.count((1, A)) == 1  # Ind_{H_D}^D(A), D trivial


def test_squares_turn_each_subgroup_into_a_group_once(monkeypatch):
    """H and H_D through the two coset sections, D through the context."""
    from cohomkit import groups

    S3 = named_group("S3")
    A3 = groups.alternating_subgroup_s3(S3)
    ctx = LocalizationContext(S3, A3, Subgroup.make(S3, [0, 1]))
    calls = []
    subgroup_group = groups.subgroup_group
    monkeypatch.setattr(groups, "subgroup_group", lambda sub: calls.append(sub) or subgroup_group(sub))
    ShapiroSquares(S3, A3, FinAbGroup((2,)), ctx=ctx)
    assert [(sub.parent, sub.members) for sub in calls] == [(S3, A3.members), (ctx.Dgroup, ctx.H_D_in_D.members)]


@pytest.mark.parametrize("decomposition", [None, "all"])
def test_squares_with_h_equal_g_build_each_group_once(decomposition, cohomology_builds):
    """With H = G (and D = G), H^r(G, .), H^r(H, .), H^r(D, .) and H^r(H_D, .) coincide."""
    S3 = named_group("S3")
    H = Subgroup.make(S3, list(S3.elements()))
    ctx = None if decomposition is None else LocalizationContext(S3, H, H)
    results = verify_shapiro_squares(S3, H, FinAbGroup((2,)), ctx=ctx)
    assert all(r.status == ("skipped" if ctx is None and r.name in LOCAL_SQUARES else "pass") for r in results)
    assert len(cohomology_builds) == len(set(cohomology_builds)) > 0


def _twistless_cup(x, y, pairing, target_module):
    """A broken cup product that forgets the action twist on the right factor."""
    n = x.module.group.size
    xflat = x.table.reshape(-1, x.module.ab.rank)
    yflat = y.table.reshape(-1, y.module.ab.rank)
    out = pairing.pair_coords(
        xflat[:, None, :], np.broadcast_to(yflat[None, :, :], (xflat.shape[0],) + yflat.shape)
    )
    shape = (n,) * (x.degree + y.degree) + (pairing.group.rank,)
    return Cochain(target_module, x.degree + y.degree, out.reshape(shape))


def test_mutated_cup_breaks_leibniz_with_witness():
    """The verification layer must notice a cup product missing its twist."""
    from cohomkit.cochain import differential, shapiro_inverse_1
    from cohomkit.cohomology import cohomology
    from cohomkit.groups import (
        CosetSection,
        alternating_subgroup_s3,
        subgroup_group,
        tensor_module,
        trivial_module,
    )

    S3 = named_group("S3")
    A3 = alternating_subgroup_s3(S3)
    A = FinAbGroup((3,))
    M = induced_module(S3, A3, A)
    MM, tens = tensor_module(M, M)
    sec = CosetSection(S3, A3)
    Hgrp, _ = subgroup_group(A3)
    H1 = cohomology(trivial_module(Hgrp, A), 1)
    witnesses = []
    for ca in H1.classes():
        x = shapiro_inverse_1(ca.rep, sec, M)
        for cb in H1.classes():
            y = shapiro_inverse_1(cb.rep, sec, M)
            prod = _twistless_cup(x, y, tens, MM)
            lhs = differential(prod)
            rhs = _twistless_cup(differential(x), y, tens, MM) - _twistless_cup(
                x, differential(y), tens, MM
            )
            if lhs != rhs:
                bad = np.argwhere((lhs.table - rhs.table) % 3 != 0)[0]
                witnesses.append((ca.coords.coords, cb.coords.coords, tuple(int(v) for v in bad)))
    assert witnesses, "the Leibniz check must flag the twistless cup product"


def _s3_a3_trivial_d():
    S3 = named_group("S3")
    from cohomkit.groups import alternating_subgroup_s3

    A3 = alternating_subgroup_s3(S3)
    return S3, A3, LocalizationContext(S3, A3, Subgroup.make(S3, [0]))


def test_left_path_off_the_cocycles_fails_with_witness(monkeypatch):
    """A tensor-side Shapiro map that leaves the cocycles is a witnessed fail."""
    from cohomkit import squares

    sh_prime = squares.sh_prime

    def shifted(x, omega, H_module, embed):
        comps = sh_prime(x, omega, H_module, embed)
        table = comps[0].table.copy()
        table.flat[0] += 1
        comps[0] = Cochain(H_module, x.degree, table)
        return comps

    monkeypatch.setattr(squares, "sh_prime", shifted)
    S3, A3, ctx = _s3_a3_trivial_d()
    res = {r.name: r for r in verify_shapiro_squares(S3, A3, FinAbGroup((3,)), ctx=ctx)}
    witness_keys = {"cup": {"a", "b", "coset"}, "j": {"r", "x", "coset"}, "j-local": {"r", "x", "hst"}}
    for name, keys in witness_keys.items():
        assert (res[name].status, res[name].checked) == ("fail", 1), res[name]
        assert set(res[name].witness) == keys
    assert res["loc-H1"].status == "pass"


@pytest.mark.parametrize("ctx_kind", ["none", "full"])
def test_tiny_work_bound_skips_every_square(ctx_kind):
    S3, A3, _ = _s3_a3_trivial_d()
    ctx = None if ctx_kind == "none" else LocalizationContext(S3, A3, Subgroup.make(S3, list(S3.elements())))
    res = ShapiroSquares(S3, A3, FinAbGroup((3,)), ctx=ctx, work_bound=1).run()
    assert [r.name for r in res] == list(SQUARE_NAMES)
    for r in res:
        assert (r.status, r.checked) == ("skipped", 0), r
        if ctx is None and r.name not in ("cup", "j"):
            assert r.detail == "no localization context"
        else:
            assert "exceeds bound 1" in r.detail
