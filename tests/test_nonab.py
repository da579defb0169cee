"""Nonabelian 2-cocycles over a finite quotient: validation and neutrality."""

import numpy as np
import pytest

from cohomkit.abelian import FinAbGroup
from cohomkit.checks import check_neutrality
from cohomkit.cochain import Cochain, differential
from cohomkit.cohomology import cohomology
from cohomkit.crossed import TwistedForm, build_bk, delta_twisted_formula
from cohomkit.groups import cyclic_group
from cohomkit.nonab import (
    Neutrality,
    bk_action_perms,
    central_shift,
    cocycle_from_action,
    is_neutral_bruteforce,
    neutrality_via_delta,
)
from cohomkit.scenario import parse_scenarios

D = build_bk(FinAbGroup((2,)), cyclic_group(2))
F, IDX = D.cp.as_table_group(cap=512)
PERMS = bk_action_perms(D, IDX)
BASE = cocycle_from_action(D.cp.Q, F, PERMS)


def test_action_cocycle_validates_and_is_neutral():
    assert BASE.validate()
    verdict, c = is_neutral_bruteforce(BASE)
    assert verdict == Neutrality.NEUTRAL
    assert (c == 0).all()


def test_validate_rejects_a_break_of_each_law():
    """One case per law, each keeping the other two laws true."""
    # a transposition of two non-identity elements: an involution, so
    # rho_1 rho_1 = rho_0, but not an automorphism
    swap = PERMS.copy()
    swap[1] = np.arange(F.size)
    swap[1, [1, 2]] = [2, 1]
    # rho_0 = conjugation by a non-central g, an automorphism with rho_0 rho_0 != rho_0
    g = int(np.flatnonzero((F.mul != F.mul.T).any(axis=1))[0])
    inner = PERMS.copy()
    inner[0] = F.mul[F.mul[g], F.inv[g]]
    # u shifted by a central 2-cochain that is no cocycle: beta(e, s) = z only
    beta = np.zeros((2, 2, D.Zmod.ab.rank), dtype=np.int64)
    beta[0, 1, 0] = 1
    assert differential(Cochain(D.Zmod, 2, beta)).table.any()
    for coc in [
        cocycle_from_action(D.cp.Q, F, swap),
        cocycle_from_action(D.cp.Q, F, inner),
        central_shift(BASE, IDX, Cochain(D.Zmod, 2, beta)),
    ]:
        assert not coc.validate()


def test_coboundary_shift_stays_neutral():
    H1z = cohomology(D.Zmod, 1)
    b = Cochain(D.Zmod, 1, np.array([[1, 0, 0], [0, 1, 1]]))
    coc = central_shift(BASE, IDX, differential(b))
    assert coc.validate()
    verdict, _ = is_neutral_bruteforce(coc)
    assert verdict == Neutrality.NEUTRAL


def test_neutrality_matches_delta_image_on_all_classes():
    """The central action is free, so neutrality == being in the image of Delta."""
    H2z = cohomology(D.Zmod, 2)
    image = neutrality_via_delta(D, H2z)
    tf = TwistedForm(D)
    for key, alpha in image.items():
        assert H2z.class_of(delta_twisted_formula(tf, alpha)).coords == key
    for cls in H2z.classes():
        coc = central_shift(BASE, IDX, cls.rep)
        assert coc.validate()
        verdict, _ = is_neutral_bruteforce(coc)
        expect = Neutrality.NEUTRAL if cls.coords in image else Neutrality.NOT_NEUTRAL
        assert verdict == expect


def test_forward_backward_delta_search():
    H1 = cohomology(D.Msum, 1)
    H2z = cohomology(D.Zmod, 2)
    tf = TwistedForm(D)
    image = neutrality_via_delta(D, H2z)
    first = {}
    for cls in H1.classes():
        beta = delta_twisted_formula(tf, cls.rep)
        key = H2z.class_of(beta).coords
        assert key in image
        assert H2z.classes_equal(delta_twisted_formula(tf, image[key]), beta)
        first.setdefault(key, cls.rep)
    assert image.keys() == first.keys()
    assert all((image[key].table == rep.table).all() for key, rep in first.items())


def test_delta_image_refuses_another_group():
    with pytest.raises(ValueError, match="H2z must be"):
        neutrality_via_delta(D, cohomology(D.Zmod, 1))
    with pytest.raises(ValueError, match="H2z must be"):
        neutrality_via_delta(D, cohomology(D.Msum, 2))


def _central_shift_per_pair(coc, idx, beta):
    """The shift of u by beta, one pair (s, t) at a time."""
    u2 = coc.u.copy()
    for s in coc.Q.elements():
        for t in coc.Q.elements():
            # the element (z, 0) of F: z_index(z) * |M + M| + a_index(0)
            zidx = int(idx.z_index(beta.table[s, t])) * idx.a_coords.shape[0]
            u2[s, t] = coc.F.op(zidx, int(coc.u[s, t]))
    return u2


def test_central_shift_matches_per_pair_reference():
    for cls in cohomology(D.Zmod, 2).classes():
        coc = central_shift(BASE, IDX, cls.rep)
        assert (coc.u == _central_shift_per_pair(BASE, IDX, cls.rep)).all()
        assert coc.rho is BASE.rho


@pytest.mark.parametrize("base, galois", [("C2", "C2"), ("C3", "C2"), ("C2xC2", "C2"), ("C2", "1")])
def test_neutrality_check_builds_two_groups(base, galois, cohomology_builds):
    """H^2(Q, Z) and H^1(Q, M + M), however many classes H^2 has (2, 1, 16 and 1 here)."""
    (sc,) = parse_scenarios(f"scenario s\nseed 1\nbase {base}\ngalois {galois}\ncheck neutrality\n")
    rec = check_neutrality(sc, sc.checks[0])
    assert rec.status in ("pass", "undecided")
    assert rec.data["checked"] == rec.data["classes"]
    assert len(cohomology_builds) == 2


def test_transform_preserves_validity_and_class():
    rng = np.random.default_rng(0)
    H2z = cohomology(D.Zmod, 2)
    beta = [c for c in H2z.classes()][0].rep
    coc = central_shift(BASE, IDX, beta)
    v0, _ = is_neutral_bruteforce(coc)
    for _ in range(3):
        c = rng.integers(0, F.size, size=D.cp.Q.size)
        moved = coc.transformed(c)
        assert moved.validate()
        v1, _ = is_neutral_bruteforce(moved)
        assert v1 == v0


def test_budget_exceeded_is_undecided():
    verdict, witness = is_neutral_bruteforce(BASE, budget=10)
    assert verdict == Neutrality.UNDECIDED and witness is None


def test_tiny_instance_full_story():
    """|Q| = 2, |F| = 8: the degenerate datum where F is abelian."""
    d0 = build_bk(FinAbGroup((2,)), cyclic_group(1))
    # model the quotient Q = C2 acting trivially through g = 1
    from cohomkit.crossed import CrossedProduct, pullback_module

    Q = cyclic_group(2)
    Zmod = pullback_module(d0.Zmod, Q, np.zeros(2, dtype=np.int64))
    Msum = pullback_module(d0.Msum, Q, np.zeros(2, dtype=np.int64))
    cp = CrossedProduct(Zmod, Msum, d0.cp.phi_tensor)
    Ft, idx = cp.as_table_group(cap=64)
    assert Ft.size == 4
    perms = np.tile(np.arange(4), (2, 1))
    coc = cocycle_from_action(Q, Ft, perms)
    assert coc.validate()
    verdict, _ = is_neutral_bruteforce(coc)
    assert verdict == Neutrality.NEUTRAL


def _neutral_search_loop(coc, budget=1 << 16):
    """Reference: one candidate c: Q -> F and one pair (s, t) at a time."""
    from itertools import product as iproduct

    Q, F = coc.Q, coc.F
    if F.size ** Q.size > budget:
        return Neutrality.UNDECIDED, None
    for cand in iproduct(range(F.size), repeat=Q.size):
        c = np.array(cand, dtype=np.int64)
        ok = True
        for s in Q.elements():
            for t in Q.elements():
                val = F.op(int(c[Q.op(s, t)]), int(coc.u[s, t]))
                val = F.op(val, int(F.inv[int(coc.rho[s][c[t]])]))
                val = F.op(val, int(F.inv[int(c[s])]))
                if val != 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return Neutrality.NEUTRAL, c
    return Neutrality.NOT_NEUTRAL, None


def _transformed_per_pair(coc, c):
    """Reference: the cocycle moved along c, one element and one pair at a time."""
    Q, F = coc.Q, coc.F
    rho2 = np.zeros_like(coc.rho)
    u2 = np.zeros_like(coc.u)
    for s in Q.elements():
        cs = int(c[s])
        rho2[s] = [F.op(F.op(cs, int(coc.rho[s][x])), int(F.inv[cs])) for x in range(F.size)]
        for t in Q.elements():
            val = F.op(int(c[Q.op(s, t)]), int(coc.u[s, t]))
            val = F.op(val, int(F.inv[int(coc.rho[s][c[t]])]))
            u2[s, t] = F.op(val, int(F.inv[cs]))
    return rho2, u2


def _same_search(coc):
    got, want = is_neutral_bruteforce(coc), _neutral_search_loop(coc)
    assert got[0] == want[0]
    assert (got[1] is None and want[1] is None) or got[1].tolist() == want[1].tolist()
    return got


@pytest.mark.parametrize("galois", ["C2", "1"])
def test_neutral_search_matches_loop_reference(galois):
    d = build_bk(FinAbGroup((2,)), cyclic_group(2 if galois == "C2" else 1))
    Fd, idx = d.cp.as_table_group(cap=512)
    base = cocycle_from_action(d.ggroup, Fd, bk_action_perms(d, idx))
    rng = np.random.default_rng(2)
    verdicts = set()
    for cls in cohomology(d.Zmod, 2).classes():
        coc = central_shift(base, idx, cls.rep)
        verdict, _ = _same_search(coc)
        verdicts.add(verdict)
        for _ in range(3):
            c = rng.integers(0, Fd.size, size=d.ggroup.size)
            moved = coc.transformed(c)
            rho2, u2 = _transformed_per_pair(coc, c)
            assert (moved.rho == rho2).all() and (moved.u == u2).all()
            assert _same_search(moved)[0] == verdict
    if galois == "C2":
        assert verdicts == {Neutrality.NEUTRAL, Neutrality.NOT_NEUTRAL}


def test_neutral_search_first_hit_across_chunks(monkeypatch):
    """With 100 candidates per chunk, the first trivializing c lies in a later chunk."""
    import cohomkit.nonab as nonab_mod

    monkeypatch.setattr(nonab_mod, "_CHUNK_ENTRIES", 100 * 4)
    rng = np.random.default_rng(9)
    positions = []
    for cls in cohomology(D.Zmod, 2).classes():
        coc = central_shift(BASE, IDX, cls.rep)
        for _ in range(4):
            verdict, c = _same_search(coc.transformed(rng.integers(1, F.size, size=2)))
            if verdict == Neutrality.NEUTRAL:
                positions.append(int(c[0]) * F.size + int(c[1]))
    assert positions and min(positions) >= 100
