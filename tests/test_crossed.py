"""Crossed products: group law, closed forms, twists, odd powers."""

import itertools
import math
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from cohomkit.abelian import FinAbGroup, kernel, same_invariants
from cohomkit.checks import _random_triples, check_verify_bk, run_check
from cohomkit.cochain import Cochain, cup, differential, pointwise_tensor, random_cochain, zero_cochain
from cohomkit.cohomology import ShortExactSequence, cohomology, connecting_cochain
from cohomkit.crossed import (
    CPIndex,
    TwistedForm,
    build_bk,
    center_equals_embedded_Z,
    cohomologous_witness,
    delta_twisted_definitional,
    delta_twisted_formula,
    is_nondegenerate,
    kernel_module,
    q_power_and_relevable,
    q_power_closed_form,
    twisted_cocycle_condition_definitional,
    twisted_cocycle_condition_formula,
)
from cohomkit.fixtures import BK_FAMILY
from cohomkit.groups import cyclic_group, direct_product, named_group, trivial_module
from cohomkit.scenario import parse_scenarios

D22 = build_bk(FinAbGroup((2,)), cyclic_group(2))


def _elements(cp):
    for zc in itertools.product(*(range(o) for o in cp.Zmod.ab.orders)):
        for ac in itertools.product(*(range(o) for o in cp.Msum.ab.orders)):
            yield np.array(zc, dtype=np.int64), np.array(ac, dtype=np.int64)


def test_build_cardinalities():
    d0 = build_bk(FinAbGroup((2,)), cyclic_group(1))
    assert d0.Z.cardinality == 1 and d0.cp.order == 4
    assert D22.Z.cardinality == 8 and D22.cp.order == 2**7
    d3 = build_bk(FinAbGroup((2,)), cyclic_group(3))
    assert same_invariants(d3.Z, FinAbGroup((2,) * 8)) and d3.cp.order == 2**14


def test_central_copy_and_inverse_formula():
    cp = D22.cp
    z1 = np.array([1, 0, 1])
    z2 = np.array([0, 1, 1])
    zero_a = np.zeros(4, dtype=np.int64)
    z, a = cp.mul(z1, zero_a, z2, zero_a)
    assert (z == (z1 + z2) % 2).all() and not a.any()
    for _, a in list(_elements(cp))[:16]:
        zi, ai = cp.inv(np.zeros(3, dtype=np.int64), a)
        assert (zi == cp.pair(a, a)).all() and (ai == (-a) % cp.amods).all()


def test_associativity_exhaustive_at_128():
    cp = D22.cp
    elems = list(_elements(cp))
    Z = np.array([e[0] for e in elems])
    A = np.array([e[1] for e in elems])
    rng = np.random.default_rng(0)
    # vectorized over the second and third slots, all pairs for 128 firsts
    for z1, a1 in elems:
        l1 = cp.mul(z1, a1, Z, A)
        idx = rng.integers(0, len(elems))
        z3, a3 = elems[idx]
        lhs = cp.mul(*l1, z3, a3)
        rhs = cp.mul(z1, a1, *cp.mul(Z, A, z3, a3))
        assert (lhs[0] == rhs[0]).all() and (lhs[1] == rhs[1]).all()


def test_commutator_and_conjugation_closed_forms_exhaustive():
    cp = D22.cp
    elems = list(_elements(cp))
    Z = np.array([e[0] for e in elems])
    A = np.array([e[1] for e in elems])
    for z1, a1 in elems:
        got = cp.commutator(z1, a1, Z, A)
        fi = cp.inv(z1, a1)
        gi = cp.inv(Z, A)
        t = cp.mul(*cp.mul(*cp.mul(z1, a1, Z, A), *fi), *gi)
        assert (t[0] == got[0]).all() and (t[1] == got[1]).all()
        conj = cp.conjugate(z1, a1, Z, A)
        c = cp.mul(*cp.mul(z1, a1, Z, A), *fi)
        assert (c[0] == conj[0]).all() and (c[1] == conj[1]).all()
        assert not cp.commutator(z1, a1, z1, a1)[0].any()  # [f,f] = 1


def test_commutator_of_pure_parts_is_phi():
    cp = D22.cp
    km = D22.Mmod.ab.rank
    for x in itertools.product(range(2), repeat=km):
        for y in itertools.product(range(2), repeat=km):
            a1 = np.concatenate([np.array(x, dtype=np.int64), np.zeros(km, dtype=np.int64)])
            a2 = np.concatenate([np.zeros(km, dtype=np.int64), np.array(y, dtype=np.int64)])
            zc, ac = cp.commutator(np.zeros(3, dtype=np.int64), a1, np.zeros(3, dtype=np.int64), a2)
            want = D22.phi.apply_coords(
                D22.tensorMM.pair_coords(np.array(x, dtype=np.int64), np.array(y, dtype=np.int64))
            )
            assert (zc == want).all() and not ac.any()


@pytest.mark.parametrize(
    "orders,gname,expect_center_is_Z",
    [((2,), "1", False), ((2,), "C2", True), ((2,), "C3", True), ((3,), "C2", True)],
)
def test_center_and_derived(orders, gname, expect_center_is_Z):
    d = build_bk(FinAbGroup(orders), named_group(gname))
    rep = center_equals_embedded_Z(d)
    assert rep["derived_is_Z"]
    assert rep["center_is_Z"] == expect_center_is_Z
    assert is_nondegenerate(d) == expect_center_is_Z
    # degenerate case: the whole group is abelian, so the center is everything
    if not expect_center_is_Z:
        assert rep["radical_size"] == d.cp.Msum.ab.cardinality


def _per_pair_center_and_derived(cp):
    """Reference: products and commutators of every pair, closure by hand."""
    elems = list(_elements(cp))
    Z = np.array([e[0] for e in elems]).reshape(len(elems), cp.kz)
    A = np.array([e[1] for e in elems])
    center, comms = [], set()
    for z, a in elems:
        l, r = cp.mul(z, a, Z, A), cp.mul(Z, A, z, a)
        if (l[0] == r[0]).all() and (l[1] == r[1]).all():
            center.append((tuple(z.tolist()), tuple(a.tolist())))
        cz, ca = cp.commutator(z, a, Z, A)
        comms.update((tuple(u), tuple(v)) for u, v in zip(cz.tolist(), ca.tolist()))
    derived = {((0,) * cp.kz, (0,) * cp.ka)}
    frontier = list(comms)
    while frontier:
        g = frontier.pop()
        for h in list(derived):
            z, a = cp.mul(*(np.array(c, dtype=np.int64) for c in (*g, *h)))
            t = (tuple(z.tolist()), tuple(a.tolist()))
            if t not in derived:
                derived.add(t)
                frontier.append(t)
    return center, sorted(derived)


BRUTE_BK = [(orders, g) for _, orders, g in BK_FAMILY] + [((3,), "1"), ((4,), "1"), ((2, 2), "1")]


@pytest.mark.parametrize("orders,gname", BRUTE_BK)
def test_brute_center_and_derived_match_per_pair_reference(orders, gname):
    cp = build_bk(FinAbGroup(orders), named_group(gname)).cp
    if cp.order > 256:
        with pytest.raises(ValueError):
            cp.center_and_derived_brute()
        return
    center, derived = cp.center_and_derived_brute()
    want_center, want_derived = _per_pair_center_and_derived(cp)
    assert sorted(center) == sorted(want_center)
    assert derived == want_derived


def _table_per_row(cp):
    """The multiplication table of F, one row of products e1 * (all of F) at a time."""
    idx = CPIndex(cp)
    Z, A = idx.z_coords, idx.a_coords
    na = A.shape[0]
    zi, ai = np.divmod(np.arange(cp.order), na)
    mul = np.zeros((cp.order, cp.order), dtype=np.int64)
    for e1 in range(cp.order):
        z1, a1 = Z[zi[e1]], A[ai[e1]]
        z_all = (z1[None, :] + Z[zi] + cp.pair(a1[None, :], A[ai])) % cp.zmods
        a_all = (a1[None, :] + A[ai]) % cp.amods
        mul[e1] = idx.z_index(z_all) * na + idx.a_index(a_all)
    return mul


@pytest.mark.parametrize("orders,gname", [((2,), "C2"), ((2,), "1"), ((3,), "1"), ((2, 2), "1")])
def test_table_group_matches_per_row_reference(orders, gname):
    cp = build_bk(FinAbGroup(orders), named_group(gname)).cp
    G, _ = cp.as_table_group(cap=512)
    assert (G.mul == _table_per_row(cp)).all()


def test_nondegenerate_examples():
    assert is_nondegenerate(D22)
    # zero pairing on a nontrivial module is degenerate: model by the g=1 datum
    assert not is_nondegenerate(build_bk(FinAbGroup((2,)), cyclic_group(1)))


def test_nondegenerate_standalone_pairings():
    from cohomkit.abelian import AbHom, TensorProduct
    from cohomkit.crossed import pairing_is_nondegenerate

    # the perfect character pairing A (x) A -> Z/exp(A)
    A = FinAbGroup((2, 4))
    tens = TensorProduct(A, A)
    exp = A.exponent
    row = np.zeros((1, tens.group.rank), dtype=np.int64)
    for i, o1 in enumerate(A.orders):
        row[0, tens.index(i, i)] = exp // o1  # diagonal pairing, scaled
    phi = AbHom(tens.group, FinAbGroup((exp,)), row)
    assert pairing_is_nondegenerate(phi, tens)
    # the zero map on a nontrivial module
    zero = AbHom.zero(tens.group, FinAbGroup((exp,)))
    assert not pairing_is_nondegenerate(zero, tens)


def _all_z1(datum):
    out = []
    n = datum.ggroup.size
    k = datum.Msum.ab.rank
    for vals in itertools.product(*[range(o) for o in list(datum.Msum.ab.orders) * n]):
        c = Cochain(datum.Msum, 1, np.array(vals).reshape(n, k))
        if differential(c).is_zero:
            out.append(c)
    return out


def test_delta_formula_equals_definitional_all_twists():
    H2z = cohomology(D22.Zmod, 2)
    cocycles = _all_z1(D22)
    for tw in cocycles:
        tf = TwistedForm(D22, tw)
        for a in cocycles:
            f1 = delta_twisted_formula(tf, a)
            f2 = delta_twisted_definitional(tf, a)
            assert H2z.is_cocycle(f1)
            assert H2z.classes_equal(f1, f2)


def test_delta_zero_twist_specializes_to_cup():
    tf = TwistedForm(D22)
    t = D22.tensorMM
    for a in _all_z1(D22):
        x = a.mapped(D22.x_proj, D22.Mmod)
        y = a.mapped(D22.y_proj, D22.Mmod)
        want = cup(x, y, t, D22.MMmod).mapped(D22.phi, D22.Zmod)
        assert delta_twisted_formula(tf, a) == want
    assert delta_twisted_formula(tf, zero_cochain(D22.Msum, 1)).is_zero


def test_twisted_action_closed_form_vs_definitional_exhaustive():
    cp = D22.cp
    for tw in _all_z1(D22)[:4]:
        tf = TwistedForm(D22, tw)
        for q in cp.Q.elements():
            for z, a in _elements(cp):
                l = tf.act(q, z, a)
                r = tf.act_definitional(q, z, a)
                assert (l[0] == r[0]).all() and (l[1] == r[1]).all()


def test_twisted_cocycle_condition_paths_agree():
    rng = np.random.default_rng(3)
    cocycles = _all_z1(D22)
    tf = TwistedForm(D22, cocycles[3])
    hits = 0
    for _ in range(120):
        a = cocycles[int(rng.integers(len(cocycles)))]
        z = random_cochain(D22.Zmod, 1, rng)
        lhs = twisted_cocycle_condition_formula(tf, z, a)
        assert lhs == twisted_cocycle_condition_definitional(tf, z, a)
        hits += lhs
    # the non-cocycle a is rejected by the formula path
    bad = Cochain(D22.Msum, 1, np.array([[0, 0, 0, 0], [1, 0, 0, 0]]))
    assert not differential(bad).is_zero
    assert not twisted_cocycle_condition_formula(tf, zero_cochain(D22.Zmod, 1), bad)


def test_twisted_forms_build_no_cohomology_group(cohomology_builds):
    tf = TwistedForm(D22, _all_z1(D22)[3])
    TwistedForm(D22)
    assert twisted_cocycle_condition_formula(tf, zero_cochain(D22.Zmod, 1), zero_cochain(D22.Msum, 1))
    assert cohomology_builds == []


def test_verify_bk_builds_two_groups(cohomology_builds):
    """H^1(Q, M + M) and H^2(Q, Z), with and without a twist."""
    for twist in ("", "twist 0,0,0,0|1,1,0,0\n"):
        cohomology_builds.clear()
        (sc,) = parse_scenarios(f"scenario s\nseed 4\nbase C2\ngalois C2\n{twist}check verify-bk\n")
        assert check_verify_bk(sc, sc.checks[0]).status == "pass"
        assert len(cohomology_builds) == 2


def test_twisted_cocycle_trivial_cases():
    tf = TwistedForm(D22)
    H1z = cohomology(D22.Zmod, 1)
    for cls in H1z.classes():
        assert twisted_cocycle_condition_formula(tf, cls.rep, zero_cochain(D22.Msum, 1))


def _twisted_cocycles(tf, H2z):
    out = []
    for a in _all_z1(tf.datum):
        w = delta_twisted_definitional(tf, a)
        z = H2z.coboundary_witness((-1) * w)
        if z is not None:
            out.append((z, a))
    return out


def test_cohomologous_witness_recovers_constructed_conjugates():
    cp = D22.cp
    H2z = cohomology(D22.Zmod, 2)
    rng = np.random.default_rng(5)
    total = 0
    for tw in _all_z1(D22)[:2]:
        tf = TwistedForm(D22, tw)
        for z, a in _twisted_cocycles(tf, H2z):
            for _ in range(13):
                zeta0 = rng.integers(0, 2, cp.kz)
                alpha0 = D22.Msum.ab.element(rng.integers(0, 2, cp.ka))
                ac = np.array(alpha0.coords)
                zp_tab = np.zeros_like(z.table)
                ap_tab = np.zeros_like(a.table)
                for s in cp.Q.elements():
                    zi, ai = cp.inv(zeta0, ac)
                    z1, a1 = cp.mul(zi, ai, z.table[s], a.table[s])
                    zs, as_ = tf.act(s, zeta0, ac)
                    z2, a2 = cp.mul(z1, a1, zs, as_)
                    zp_tab[s], ap_tab[s] = z2, a2
                zp = Cochain(D22.Zmod, 1, zp_tab)
                ap = Cochain(D22.Msum, 1, ap_tab)
                assert twisted_cocycle_condition_definitional(tf, zp, ap)
                c, verdict, conj = cohomologous_witness(tf, (z, a), (zp, ap), alpha0)
                assert verdict and conj is not None
                total += 1
    assert total >= 100


BATTERY = [build_bk(FinAbGroup(orders), named_group(g)) for _, orders, g in BK_FAMILY] + [
    build_bk(FinAbGroup((2, 2)), named_group("1")),
    build_bk(FinAbGroup((4,)), named_group("C2")),
    build_bk(FinAbGroup((2,)), named_group("S3")),  # st != ts
]


def _defect_per_pair(tf, z, a):
    """Reference: f_s (s ._a f_t) f_{st}^{-1}, one pair (s, t) at a time."""
    cp, Q = tf.cp, tf.cp.Q
    zr = np.zeros((Q.size, Q.size, cp.kz), dtype=np.int64)
    ar = np.zeros((Q.size, Q.size, cp.ka), dtype=np.int64)
    for s in Q.elements():
        for t in Q.elements():
            zt, at = tf.act(s, z.table[t], a.table[t])
            z1, a1 = cp.mul(z.table[s], a.table[s], zt, at)
            st = Q.op(s, t)
            zr[s, t], ar[s, t] = cp.mul(z1, a1, *cp.inv(z.table[st], a.table[st]))
    return zr, ar


def _conjugate_per_element(tf, z, a, zeta, alpha):
    """Reference: s -> (zeta, alpha)^{-1} f_s (s ._a (zeta, alpha)), one s at a time."""
    cp = tf.cp
    zp, ap = np.zeros_like(z.table), np.zeros_like(a.table)
    for s in cp.Q.elements():
        z1, a1 = cp.mul(*cp.inv(zeta, alpha), z.table[s], a.table[s])
        zp[s], ap[s] = cp.mul(z1, a1, *tf.act(s, zeta, alpha))
    return Cochain(tf.datum.Zmod, 1, zp), Cochain(tf.datum.Msum, 1, ap)


def _battery_twisted_forms(d, rng):
    """Up to 4 twists (zero, H^1 representatives, coboundaries) with the H^1 classes."""
    H1 = cohomology(d.Msum, 1)
    reps = [cls.rep for cls in H1.classes()]
    bounds = [differential(random_cochain(d.Msum, 0, rng)) for _ in range(2)]
    twists = (reps + bounds)[:4]
    return [TwistedForm(d, tw) for tw in twists], reps + [reps[-1] + b for b in bounds]


@pytest.mark.parametrize("d", BATTERY, ids=[str(i) for i in range(len(BATTERY))])
def test_definitional_paths_match_per_pair_loops(d):
    rng = np.random.default_rng(11)
    H2z = cohomology(d.Zmod, 2)
    zero_z = zero_cochain(d.Zmod, 1)
    twisted_forms, alphas = _battery_twisted_forms(d, rng)
    verdicts = set()
    for tf in twisted_forms:
        for a in alphas:
            want = _defect_per_pair(tf, zero_z, a)
            assert not want[1].any()
            assert (delta_twisted_definitional(tf, a).table == want[0]).all()
            z_true = H2z.coboundary_witness((-1) * delta_twisted_definitional(tf, a))
            for z in [zero_z, random_cochain(d.Zmod, 1, rng)] + [z_true] * (z_true is not None):
                zr, ar = _defect_per_pair(tf, z, a)
                got = tf.defect(z, a)
                assert (got[0] == zr).all() and (got[1] == ar).all()
                verdict = twisted_cocycle_condition_definitional(tf, z, a)
                assert verdict == (not (zr.any() or ar.any()))
                verdicts.add(verdict)
                if z is not z_true:
                    continue
                # the witness identity against the per-element loop
                zeta0 = rng.integers(0, np.maximum(tf.cp.zmods, 1))
                alpha0 = d.Msum.ab.element(rng.integers(0, tf.cp.amods))
                fp = _conjugate_per_element(tf, z, a, zeta0, np.array(alpha0.coords))
                c, ok, conj = cohomologous_witness(tf, (z, a), fp, alpha0)
                assert ok and conj[1] == alpha0
                zeta = np.array(conj[0].coords, dtype=np.int64)
                back = _conjugate_per_element(tf, z, a, zeta, np.array(alpha0.coords))
                assert back[0] == fp[0] and back[1] == fp[1]
    assert True in verdicts and (False in verdicts or d.Zmod.ab.cardinality == 1)


def test_witness_trivial_pair():
    tf = TwistedForm(D22)
    H2z = cohomology(D22.Zmod, 2)
    z, a = _twisted_cocycles(tf, H2z)[0]
    c, verdict, conj = cohomologous_witness(tf, (z, a), (z, a), D22.Msum.ab.zero())
    assert c.is_zero and verdict


def test_witness_delta_identity_point3():
    """delta([c]) = [lambda' - lambda] through the kernel sequence."""
    d = D22
    cp = d.cp
    Kmod, incl = kernel_module(d.MMmod, d.phi)
    ses = ShortExactSequence(Kmod, d.MMmod, d.Zmod, incl, d.phi)
    H2z = cohomology(d.Zmod, 2)
    H2k = cohomology(Kmod, 2)
    from cohomkit.crossed import lambda_prime_extraction
    from cohomkit.abelian import cached_preimage, solve_preimage

    lift = cached_preimage(d.phi)
    rng = np.random.default_rng(7)
    checked = 0
    for tw in _all_z1(d)[:2]:
        tf = TwistedForm(d, tw)
        pairs = _twisted_cocycles(tf, H2z)
        for (z, a) in pairs:
            for _ in range(7):
                alpha0 = d.Msum.ab.element(rng.integers(0, 2, cp.ka))
                ac = np.array(alpha0.coords)
                zp_tab = np.zeros_like(z.table)
                ap_tab = np.zeros_like(a.table)
                zeta0 = rng.integers(0, 2, cp.kz)
                for s in cp.Q.elements():
                    zi, ai = cp.inv(zeta0, ac)
                    z1, a1 = cp.mul(zi, ai, z.table[s], a.table[s])
                    zs, as_ = tf.act(s, zeta0, ac)
                    z2, a2 = cp.mul(z1, a1, zs, as_)
                    zp_tab[s], ap_tab[s] = z2, a2
                zp = Cochain(d.Zmod, 1, zp_tab)
                ap = Cochain(d.Msum, 1, ap_tab)
                c, verdict, _ = cohomologous_witness(tf, (z, a), (zp, ap), alpha0)
                # extract eps, eps' through the section of phi and compare
                eps = Cochain(d.MMmod, 1, np.array([lift(v) for v in z.table]))
                epsp = Cochain(d.MMmod, 1, np.array([lift(v) for v in zp.table]))
                lam_t = lambda_prime_extraction(tf, a, eps)
                lamp_t = lambda_prime_extraction(tf, ap, epsp)
                lam = Cochain(Kmod, 2, np.array(
                    [[solve_preimage(incl, d.MMmod.ab.element(v)).coords for v in row] for row in lam_t.table]
                ))
                lamp = Cochain(Kmod, 2, np.array(
                    [[solve_preimage(incl, d.MMmod.ab.element(v)).coords for v in row] for row in lamp_t.table]
                ))
                assert H2k.is_cocycle(lam) and H2k.is_cocycle(lamp)
                delta_c = connecting_cochain(ses, c)
                assert H2k.classes_equal(delta_c, lamp - lam)
                checked += 1
    assert checked >= 25


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_q_power_identity_and_relevability(q):
    cp = D22.cp
    for sigma in cp.Q.elements():
        rep = q_power_and_relevable(cp, sigma, q)
        assert rep.generated
        assert rep.relevable_size == rep.eligible_size
    # closed form vs iterated multiplication on random elements
    rng = np.random.default_rng(q)
    for _ in range(200):
        a = rng.integers(0, 2, cp.ka)
        z1, a1 = cp.power(np.zeros(cp.kz, dtype=np.int64), a, q)
        z2, a2 = q_power_closed_form(cp, a, q)
        assert (z1 == z2).all() and (a1 == a2).all()


@pytest.mark.parametrize("q", [10**20 + 1, 2**63 - 1, -(10**20) - 1])
@pytest.mark.parametrize("base", ["C2", "C3"])
def test_a_q_past_int64_reads_as_q_mod_twice_the_exponents(base, q):
    # powers by repeated squaring and closed forms reduced mod the exponents:
    # the verdict comes at once and is that of q mod 2 lcm(exp Z, exp(M + M))
    d = build_bk(FinAbGroup((int(base[1:]),)), named_group("C2"))
    small = q % (2 * math.lcm(d.Zmod.ab.exponent, d.Msum.ab.exponent))
    records = []
    for qq in (q, small):
        (sc,) = parse_scenarios(f"scenario s\nbase {base}\ngalois C2\ncheck q-relevable q={qq}\n")
        start = time.perf_counter()
        records.append(run_check(sc, sc.checks[0]))
        assert time.perf_counter() - start < 2
    big, ref = records
    assert big.data.pop("q") == q and ref.data.pop("q") == small
    assert (big.status, big.data, big.witness) == (ref.status, ref.data, ref.witness)


@pytest.mark.parametrize("orders,gname", [((2,), "C2"), ((4,), "1"), ((3,), "C2")])
def test_batched_power_matches_per_element(orders, gname):
    cp = build_bk(FinAbGroup(orders), named_group(gname)).cp
    coords = np.random.default_rng(0).integers(0, cp.amods, size=(40, cp.ka))
    for q in (3, 5):
        zb, ab = cp.power(np.zeros((len(coords), cp.kz), dtype=np.int64), coords, q)
        zc, ac = q_power_closed_form(cp, coords, q)
        assert (zb == zc).all() and (ab == ac).all()
        for a, z1, a1 in zip(coords, zb, ab):
            z2, a2 = cp.power(np.zeros(cp.kz, dtype=np.int64), a, q)
            assert (z1 == z2).all() and (a1 == a2).all()


def _per_call_triples(cp, rng):
    """Reference: z, then a, drawn separately for each element of each triple."""
    zhigh, ahigh = np.maximum(cp.zmods, 1), np.maximum(cp.amods, 1)
    return [
        [rng.integers(0, zhigh).tolist() + rng.integers(0, ahigh).tolist() for _ in range(3)]
        for _ in range(200)
    ]


@pytest.mark.parametrize(
    "cp",
    [
        D22.cp,
        build_bk(FinAbGroup((3,)), cyclic_group(1)).cp,  # no Z coordinates
        SimpleNamespace(zmods=np.array([1, 4]), amods=np.array([3, 1, 9]), kz=2, ka=3),
    ],
    ids=["F128", "empty-Z", "order-1-factors"],
)
def test_random_triples_match_per_call_draws(cp):
    for seed in (0, 5):
        got = _random_triples(cp, np.random.default_rng(seed))
        assert got.tolist() == _per_call_triples(cp, np.random.default_rng(seed))


def test_verify_bk_witness_is_first_non_associative_triple(monkeypatch):
    from cohomkit.crossed import CrossedProduct

    mul = CrossedProduct.mul

    def skewed(self, z1, a1, z2, a2):
        # a term that is not bilinear in (a1, a2) breaks associativity on some triples
        z, a = mul(self, z1, a1, z2, a2)
        a1, a2 = np.asarray(a1), np.asarray(a2)
        return (z + a1[..., :1] * a2[..., :1] * a2[..., 1:2]) % self.zmods, a

    monkeypatch.setattr(CrossedProduct, "mul", skewed)
    (sc,) = parse_scenarios("scenario s\nseed 4\nbase C2\ngalois C2\ncheck verify-bk\n")
    rec = check_verify_bk(sc, sc.checks[0])
    cp = D22.cp
    for triple in _per_call_triples(cp, np.random.default_rng(4)):
        (z1, a1), (z2, a2), (z3, a3) = [
            (np.array(t[: cp.kz]), np.array(t[cp.kz :])) for t in triple
        ]
        l = cp.mul(*cp.mul(z1, a1, z2, a2), z3, a3)
        r = cp.mul(z1, a1, *cp.mul(z2, a2, z3, a3))
        if (l[0] != r[0]).any() or (l[1] != r[1]).any():
            break
    assert rec.status == "fail" and rec.witness == {"triple": triple}


def test_identity_checks_survive_optimized_mode():
    """The class-2, lift, power and conjugator checks, the normality checks,
    the section, factorization and decomposition invariants, the exactness of a short exact
    sequence, the witness rule of a failing record, the cocycle check on a twist, the
    group handed to the Delta image, the coboundary witness self-check, a preimage outside the
    image, the conjugacy witness inputs, a transport along a non-homomorphism, the
    cyclic oracle on a non-cyclic group, a connecting cochain in the wrong module,
    the character-carry self-checks, and the module, degree, arity and group checks of
    cochain arithmetic, cup and pointwise products, the Shapiro maps, tensor modules and
    crossed products, the stability of a kernel module, the input and enumeration checks of
    abelian_structure, and the centrality, cocycle and pointwise checks of the twisted-form
    paths raise under python -O, and an H^2 build that takes
    a second certification round gives the same group."""
    script = """
import sys
import numpy as np
import cohomkit.brauer as B
import cohomkit.crossed as C
import cohomkit.cohomology as CH
import cohomkit.groups as G
from cohomkit.abelian import AbHom, FinAbGroup, cached_preimage
import cohomkit.cochain as CC
from cohomkit.cochain import Cochain, conjugation_action
from cohomkit.cohomology import ShortExactSequence, cohomology
from cohomkit.groups import cyclic_group, named_group
from cohomkit.nonab import neutrality_via_delta
from cohomkit.report import CheckRecord

assert sys.flags.optimize
def outcome(fn):
    try:
        fn()
    except (ValueError, AssertionError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "returned"

print(outcome(lambda: B.lambda_map(named_group("S3"))))
# a lambda that disagrees with the commutators of the lifts
B.AbHom = lambda s, t, m: AbHom(s, t, np.asarray(m) + 1)
print(outcome(lambda: B.lambda_map(named_group("Heis27"))))
B.AbHom = AbHom
cp = C.build_bk(FinAbGroup((2,)), cyclic_group(2)).cp
closed = C.q_power_closed_form
C.q_power_closed_form = lambda cp, a, q: ((closed(cp, a, q)[0] + 1) % cp.zmods, closed(cp, a, q)[1])
print(outcome(lambda: C.q_power_and_relevable(cp, 1, 3)))
C.q_power_closed_form = closed
C.CrossedProduct.conjugate = lambda self, z, a, zp, ap: ((zp + 1) % self.zmods, ap)
print(outcome(lambda: C.q_power_and_relevable(cp, 1, 3)))
S3 = named_group("S3")
A3 = G.alternating_subgroup_s3(S3)
T = G.generated_subgroup(S3, [next(g for g in S3.elements() if S3.order_of(g) == 2)])
print(outcome(lambda: G.quotient_group(S3, T)))
print(outcome(lambda: G.induced_module(S3, T, FinAbGroup((2,)))))
print(outcome(lambda: G.CosetSection(S3, T)))
Tgrp, Tembed = G.subgroup_group(T)
c = Cochain(G.trivial_module(Tgrp, FinAbGroup((2,))), 1, np.zeros((2, 1)))
print(outcome(lambda: conjugation_action(S3, T, Tembed, 1, c)))
sec = G.CosetSection(S3, A3)
sec.gamma[0, 1] = (sec.gamma[0, 1] + 1) % 3
print(outcome(sec._check_cocycle_condition))
sec.gamma[0, 1] = -1
print(outcome(sec._check_cocycle_condition))
ctx = G.LocalizationContext(S3, A3, G.Subgroup.make(S3, [0]))
ctx.transversal = (0, 0)
print(outcome(ctx._check_factorization))
om = G.OmegaDecomposition(G.induced_module(S3, A3, FinAbGroup((3,))))
om.inverse = AbHom(om.inverse.source, om.inverse.target, np.zeros_like(om.inverse.matrix))
print(outcome(om.verify))
vs = G.VarsigmaDecomposition(
    G.LocalizationContext(S3, A3, G.Subgroup.make(S3, range(6))), G.induced_module(S3, A3, FinAbGroup((3,)))
)
vs.forward = AbHom(vs.forward.source, vs.forward.target, [[2, 0], [0, 1]])
vs.inverse = AbHom(vs.inverse.source, vs.inverse.target, [[2, 0], [0, 1]])
print(outcome(vs.verify))
C2 = cyclic_group(2)
sub, mid = G.trivial_module(C2, FinAbGroup((2,))), G.trivial_module(C2, FinAbGroup((4,)))
quo = G.trivial_module(C2, FinAbGroup((4,)))
incl, proj = AbHom(sub.ab, mid.ab, [[2]]), AbHom(mid.ab, quo.ab, [[1]])
print(outcome(lambda: ShortExactSequence(sub, mid, quo, incl, proj)))
print(outcome(lambda: CheckRecord("x", "fail", {})))
# u(e) = 1, u(g) = 0 is no cocycle: du(e, e) = u(e) != 0
H1 = cohomology(G.trivial_module(C2, FinAbGroup((2,))), 1)
u = Cochain(H1.module, 1, np.array([[1], [0]]))
print(outcome(lambda: H1.class_of(u)))
print(outcome(lambda: H1.is_coboundary(u)))
print(outcome(lambda: G.FiniteGroup([[0, 1]], check=False)))
print(outcome(lambda: G.FiniteGroup([[0, 1], [1, 1]], check=False)))
# characters of C4 do not take values in Z/2
C4 = FinAbGroup((4,))
print(outcome(lambda: B.hom_value(C4, C4.element([1]), C4.element([1]), 2)))
print(outcome(lambda: B.cyclic_span_detect(C4, [C4.element([2])], C4.element([1]), 2)))
print(outcome(lambda: B.global_span_membership(C4, [C4.element([2])], C4.element([1]), 2)))
# u(e) != 0 is no twist, and H^1(Q, Z) is not the H^2(Q, Z) the Delta image lands in
d = C.build_bk(FinAbGroup((2,)), cyclic_group(2))
u = np.zeros((2, d.Msum.ab.rank), dtype=np.int64)
u[0, 0] = 1
print(outcome(lambda: C.TwistedForm(d, Cochain(d.Msum, 1, u))))
print(outcome(lambda: neutrality_via_delta(d, cohomology(d.Zmod, 1))))
# a witness whose differential misses the coboundary
H2 = cohomology(G.trivial_module(C2, FinAbGroup((4,))), 2)
db = CH.differential(Cochain(H2.module, 1, np.array([[0], [1]])))
differential, CH.differential = CH.differential, lambda w: db + db
print(outcome(lambda: H2.coboundary_witness(db)))
CH.differential = differential
print(outcome(lambda: cached_preimage(AbHom(C4, C4, [[2]]))([1])))
# alpha outside M + M, and an alpha whose coboundary is not a' - a
tf = C.TwistedForm(d)
f = (Cochain(d.Zmod, 1, np.zeros((2, d.Zmod.ab.rank))), Cochain(d.Msum, 1, np.zeros((2, d.Msum.ab.rank))))
print(outcome(lambda: C.cohomologous_witness(tf, f, f, C4.element([1]))))
alpha = d.Msum.ab.element([1] + [0] * (d.Msum.ab.rank - 1))
print(outcome(lambda: C.cohomologous_witness(tf, f, f, alpha)))
print(outcome(lambda: C.transport_datum(d, C2, np.array([1, 0]))))
print(outcome(lambda: CH.cyclic_cohomology_size(G.trivial_module(named_group("C2xC2"), FinAbGroup((2,))), 1)))
ses = ShortExactSequence(sub, mid, G.trivial_module(C2, FinAbGroup((2,))), incl, AbHom(mid.ab, FinAbGroup((2,)), [[1]]))
print(outcome(lambda: CH.connecting_cochain(ses, Cochain(G.trivial_module(C2, FinAbGroup((3,))), 1, np.zeros((2, 1))))))
# a character of C4 has no values in Z/2, and a carry that is no 2-cocycle
print(outcome(lambda: B._character_carries(cyclic_group(4), 2)))
B._character_carries = lambda G, N: [np.eye(1, G.size * G.size, dtype=np.int64).reshape(G.size, G.size)]
print(outcome(lambda: B._qz_presentation(C2, 2)))
# cochains of other modules, degrees, arities and groups
Z4, Z2 = G.trivial_module(C2, FinAbGroup((4,))), G.trivial_module(C2, FinAbGroup((2,)))
c4, c2 = Cochain(Z4, 1, np.array([[1], [0]])), Cochain(Z2, 1, np.array([[1], [0]]))
print(outcome(lambda: c4 - c2))
print(outcome(lambda: c4 + CC.zero_cochain(Z4, 2)))
print(outcome(lambda: c4.value(0, 1)))
Z4b = G.trivial_module(cyclic_group(2), FinAbGroup((4,)))
t44 = G.tensor_module(Z4, Z4)
print(outcome(lambda: CC.cup(c4, Cochain(Z4b, 1, np.zeros((2, 1))), t44[1], t44[0])))
print(outcome(lambda: CC.pointwise_tensor(c4, CC.zero_cochain(Z4, 2), t44[1], t44[0])))
sec = G.CosetSection(S3, A3)
Ind = G.induced_module(S3, A3, FinAbGroup((3,)))
A3grp, A3embed = G.subgroup_group(A3)
triv3 = G.trivial_module(A3grp, FinAbGroup((3,)))
print(outcome(lambda: CC.shapiro_inverse_1(CC.zero_cochain(triv3, 2), sec, Ind)))
print(outcome(lambda: CC.shapiro_inverse_2(CC.zero_cochain(triv3, 1), sec, Ind)))
om = G.OmegaDecomposition(Ind)
print(outcome(lambda: CC.sh_prime(CC.zero_cochain(Ind, 1), om, triv3, A3embed)))
print(outcome(lambda: G.tensor_module(Z4, Z4b)))
print(outcome(lambda: C.CrossedProduct(Z4, Z4b, np.zeros((1, 1, 1), dtype=np.int64))))
# a hom whose kernel the action moves, a non-abelian table, a set that generates nothing
swap = G.GModule(C2, FinAbGroup((2, 2)), np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]]]))
print(outcome(lambda: C.kernel_module(swap, AbHom(swap.ab, FinAbGroup((2,)), [[1, 0]]))))
print(outcome(lambda: B.abelian_structure(S3)))
gens, B.minimal_generating_set = B.minimal_generating_set, lambda G: [0]
print(outcome(lambda: B.abelian_structure(C2)))
B.minimal_generating_set = gens
# a defect with an M + M part, a comparison cochain that is no cocycle, a wrong action
tf = C.TwistedForm(d)
zero_a = CC.zero_cochain(d.Msum, 1)
defect = tf.defect
tf.defect = lambda z, a: (defect(z, a)[0], defect(z, a)[1] + 1)
print(outcome(lambda: C.delta_twisted_definitional(tf, zero_a)))
tf = C.TwistedForm(d)
bad_z = Cochain(d.Zmod, 1, np.eye(2, d.Zmod.ab.rank, dtype=np.int64))
zero_f = (CC.zero_cochain(d.Zmod, 1), zero_a)
print(outcome(lambda: C.cohomologous_witness(tf, (bad_z, zero_a), zero_f, d.Msum.ab.zero())))
tf.act = lambda q, z, a: (z, (np.asarray(a) + 1) % 2)
print(outcome(lambda: C.cohomologous_witness(tf, zero_f, zero_f, d.Msum.ab.zero())))
# an element with too few coordinates, and a class of another group
print(outcome(lambda: FinAbGroup((2, 3)).element([1])))
print(outcome(lambda: H1.presentation.rep(FinAbGroup((3,)).element([1]))))
# H^2(D8 x D8, Z/2) takes a second certification round
D8xD8 = G.direct_product(named_group("D8"), named_group("D8"))
print(cohomology(G.trivial_module(D8xD8, FinAbGroup((2,))), 2).group.orders)
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
    D8xD8 = direct_product(named_group("D8"), named_group("D8"))
    assert proc.stdout.splitlines() == [
        "ValueError: group must be nilpotent of class <= 2",
        "AssertionError: lambda depends on the lifts",
        "AssertionError: odd power identity failed",
        "AssertionError: explicit conjugator failed",
        "ValueError: quotient requires a normal subgroup",
        "ValueError: induced modules here require a normal subgroup",
        "ValueError: coset sections here require a normal subgroup",
        "ValueError: conjugation action requires a normal subgroup",
        "AssertionError: section cocycle condition fails at (0,1,1)",
        "AssertionError: section value escaped the subgroup",
        "AssertionError: transversal does not give unique factorization",
        "AssertionError: omega forward and inverse maps are not mutually inverse",
        "AssertionError: varsigma component 0 not equivariant",
        "ValueError: composition must vanish",
        "AssertionError: failing checks must carry a witness",
        "ValueError: not a cocycle",
        "ValueError: not a cocycle",
        "ValueError: multiplication table must be square, not of shape (1, 2)",
        "ValueError: element 1 has no unique inverse",
        "ValueError: exponent of G must divide n",
        "ValueError: exponent of G must divide n",
        "ValueError: exponent of G must divide n",
        "ValueError: twisting datum must be a cocycle",
        "ValueError: H2z must be H^2(Q, Z) of the datum",
        "AssertionError: coboundary witness mismatch",
        "ValueError: (1,) is not in the image",
        "ValueError: alpha must be an element of M + M",
        "ValueError: alpha does not connect the two cocycles",
        "ValueError: transport requires a homomorphism",
        "ValueError: group is not cyclic",
        "ValueError: the cochain must take values in the quotient module",
        "AssertionError: a character of order 4 has no values in Z/2",
        "AssertionError: character carry is not a 2-cocycle",
        "ValueError: cochains must share their module and degree",
        "ValueError: cochains must share their module and degree",
        "ValueError: cochain of degree 1 evaluated at 2 arguments",
        "ValueError: cup product needs cochains over the same group",
        "ValueError: pointwise tensor needs cochains of the same degree",
        "ValueError: shapiro_inverse_1 takes a 1-cochain",
        "ValueError: shapiro_inverse_2 takes a 2-cochain",
        "ValueError: sh_prime takes a cochain valued in M (x) M",
        "ValueError: tensor product needs modules over the same group",
        "ValueError: crossed product needs Z and M + M over the same group",
        "AssertionError: kernel is not stable under the action",
        "ValueError: cyclic decomposition requires an abelian group",
        "AssertionError: generating set does not reach every element",
        "AssertionError: connecting value must be central",
        "AssertionError: comparison cochain failed to be a cocycle",
        "AssertionError: conjugation witness failed the pointwise identity",
        "ValueError: coordinates (1,) do not fit orders (2, 3)",
        "ValueError: class lies in orders [(3,)], not [(2,)]",
        str(cohomology(trivial_module(D8xD8, FinAbGroup((2,))), 2).group.orders),
    ]


def test_q_one_everything_relevable():
    rep = q_power_and_relevable(D22.cp, 0, 1)
    assert rep.eligible_size == D22.cp.Msum.ab.cardinality == rep.relevable_size


def test_q_even_rejected():
    with pytest.raises(ValueError):
        q_power_and_relevable(D22.cp, 0, 2)


def test_exponent_two_cube_is_phi_shift():
    cp = D22.cp
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.integers(0, 2, cp.ka)
        z3, a3 = cp.power(np.zeros(cp.kz, dtype=np.int64), a, 3)
        assert (z3 == cp.pair(a, a)).all() and (a3 == a).all()


def test_q_relevable_on_cubic_instance():
    d3 = build_bk(FinAbGroup((2,)), cyclic_group(3))
    rep = q_power_and_relevable(d3.cp, 1, 3)
    assert rep.generated
