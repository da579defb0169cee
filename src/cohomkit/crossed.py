"""Crossed-product central extensions F = Z x_Phi (M + M) and their twists.

The multiplication is (z,a)(z',a') = (z + z' + Phi(a,a'), a + a') with
Phi((x,y),(x',y')) = phi(x (x) y') for an equivariant phi: M (x) M -> Z.
The group law (``CrossedProduct.mul``) acts on coordinate arrays, vectorized
over leading axes, so a check passes all its samples (random triples, odd
powers) through one call.  Up to |F| = 2^9 the multiplication table can be
materialized (``as_table_group``, one broadcast call of ``mul`` over all
pairs); the brute-force center and derived subgroup, for |F| <= 2^8, are
read off that table.

The twisted-form calculus (twisted cocycle condition, the connecting map in
closed form, conjugacy witnesses, odd-power conjugators) lives here too; each
closed form ships next to a definitional evaluation so tests can compare the
two paths on every input.  The definitional side reads the twisted cocycle
law f_s (s ._a f_t) f_{st}^{-1} from one place, ``TwistedForm.defect``,
built from ``mul``, ``inv`` and the twisted action; the closed forms share
``TwistedForm.split`` and one sum tx u y + x u ty + x u y + d(x (x) ty).
The relevability check enumerates its eligible subgroup with
``abelian.span_elements``, the enumerator that ``CohomologyGroup.cocycles``
uses too.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .abelian import (
    AbElement,
    AbHom,
    FinAbGroup,
    TensorProduct,
    all_coords,
    kernel,
    scaled_rows,
    solve_preimage,
    span_elements,
    subgroup_order,
    subgroup_span,
)
from .cochain import Cochain, cup, differential, is_cocycle, pointwise_tensor, zero_cochain
from .cohomology import cohomology
from .groups import (
    FiniteGroup,
    GModule,
    InducedModule,
    Subgroup,
    center_subgroup,
    constant_inclusion,
    derived_subgroup,
    induced_module,
    pullback_module,
    quotient_module,
    tensor_module,
)
from .intmat import kernel_uniform


def transport_datum(datum: "BKDatum", Q: FiniteGroup, hom: np.ndarray) -> "BKDatum":
    """The same crossed-product data with cocycles living on another quotient.

    `hom` sends each element of Q to an element of the original quotient; the
    modules are pulled back and the pairing tensor is reused verbatim.
    """
    import dataclasses

    hom = np.asarray(hom, dtype=np.int64)
    if not (hom[Q.mul] == datum.ggroup.mul[np.ix_(hom, hom)]).all():
        raise ValueError("transport requires a homomorphism")
    Zq = pullback_module(datum.Zmod, Q, hom)
    Mq = pullback_module(datum.Msum, Q, hom)
    Mmodq = pullback_module(datum.Mmod, Q, hom)
    MMq = pullback_module(datum.MMmod, Q, hom)
    cp = CrossedProduct(Zq, Mq, datum.cp.phi_tensor)
    return dataclasses.replace(
        datum, ggroup=Q, Zmod=Zq, Msum=Mq, Mmod=Mmodq, MMmod=MMq, cp=cp
    )


class CrossedProduct:
    """The group F for modules over an acting group Q, with coordinate ops."""

    def __init__(self, Zmod: GModule, Msum: GModule, phi_tensor: np.ndarray):
        if Zmod.group is not Msum.group:
            raise ValueError("crossed product needs Z and M + M over the same group")
        self.Q = Zmod.group
        self.Zmod = Zmod
        self.Msum = Msum
        self.kz = Zmod.ab.rank
        self.ka = Msum.ab.rank
        # Phi(a, a')_k = sum_{i,j} phi_tensor[k, i, j] a_i a'_j
        self.phi_tensor = np.asarray(phi_tensor, dtype=np.int64).reshape(self.kz, self.ka, self.ka)
        self.zmods = np.array(Zmod.ab.orders, dtype=np.int64)
        self.amods = np.array(Msum.ab.orders, dtype=np.int64)
        self._check_equivariance()

    def _check_equivariance(self):
        for q in self.Q.elements():
            moved = np.einsum("kij,ia,jb->kab", self.phi_tensor, self.Msum.act[q], self.Msum.act[q])
            expect = np.einsum("lk,kij->lij", self.Zmod.act[q], self.phi_tensor)
            if ((moved - expect) % self.zmods.reshape(-1, 1, 1)).any():
                raise ValueError("pairing is not equivariant for the given action")

    @property
    def order(self) -> int:
        return self.Zmod.ab.cardinality * self.Msum.ab.cardinality

    # -- coordinate arithmetic (vectorized over leading axes) ----------------

    def pair(self, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        out = np.einsum("kij,...i,...j->...k", self.phi_tensor, a, b)
        return out % self.zmods

    def mul(self, z1, a1, z2, a2):
        z = (np.asarray(z1) + np.asarray(z2) + self.pair(a1, a2)) % self.zmods
        a = (np.asarray(a1) + np.asarray(a2)) % self.amods
        return z, a

    def inv(self, z, a):
        zi = (self.pair(a, a) - np.asarray(z)) % self.zmods
        ai = (-np.asarray(a)) % self.amods
        return zi, ai

    def power(self, z, a, k: int):
        """(z, a)^k by repeated squaring, through ``mul`` alone."""
        zz = np.zeros_like(np.asarray(z))
        aa = np.zeros_like(np.asarray(a))
        if k < 0:
            z, a = self.inv(z, a)
            k = -k
        while k:
            if k & 1:
                zz, aa = self.mul(zz, aa, z, a)
            z, a = self.mul(z, a, z, a)
            k >>= 1
        return zz, aa

    def conjugate(self, z, a, zp, ap):
        """(z,a)(z',a')(z,a)^-1 = (z' + Phi(a,a') - Phi(a',a), a')."""
        zc = (np.asarray(zp) + self.pair(a, ap) - self.pair(ap, a)) % self.zmods
        return zc, np.asarray(ap) % self.amods

    def commutator(self, z, a, zp, ap):
        """[(z,a),(z',a')] = (Phi(a,a') - Phi(a',a), 0)."""
        zc = (self.pair(a, ap) - self.pair(ap, a)) % self.zmods
        return zc, np.zeros_like(np.asarray(ap))

    def act(self, q: int, z, a):
        return self.Zmod.apply(q, np.asarray(z)), self.Msum.apply(q, np.asarray(a))

    # -- structured subgroup computations -------------------------------------

    def _antisymmetrized(self) -> np.ndarray:
        """anti[k, i, j] = Phi(e_i, e_j)_k - Phi(e_j, e_i)_k, reduced."""
        return (self.phi_tensor - self.phi_tensor.transpose(0, 2, 1)) % self.zmods.reshape(-1, 1, 1)

    def antisym_radical(self) -> np.ndarray:
        """Rows spanning {a : Phi(a, b) == Phi(b, a) for all b}."""
        L = lcm(self.Zmod.ab.exponent, self.Msum.ab.exponent)
        # one condition row per (probe index j, Z coordinate k)
        A = self._antisymmetrized().transpose(2, 0, 1).reshape(self.ka * self.kz, self.ka)
        return kernel_uniform(scaled_rows(A, self.Zmod.ab.orders * self.ka, L), L)

    def derived_structured(self) -> np.ndarray:
        """Generators of [F, F] inside Z: antisymmetrizations of basis pairs, as rows."""
        return self._antisymmetrized().reshape(self.kz, self.ka * self.ka).T

    def center_and_derived_brute(self):
        """Center and derived subgroup of F by brute force; requires |F| <= 2^8.

        Both come from the multiplication table of F, which every pair of
        elements enters: the center is the elements whose row equals their
        column, the derived subgroup is generated by all n^2 commutators.
        Neither uses the pairing's structure (``antisym_radical``,
        ``derived_structured``).  Elements are returned as (z, a) coordinate
        tuples, the derived subgroup in increasing order.
        """
        if self.order > 256:
            raise ValueError("brute-force center needs |F| <= 256")
        G, idx = self.as_table_group(cap=256)
        na = idx.a_coords.shape[0]

        def coords(members):
            zi, ai = np.divmod(np.asarray(members, dtype=np.int64), na)
            return [
                (tuple(z), tuple(a))
                for z, a in zip(idx.z_coords[zi].tolist(), idx.a_coords[ai].tolist())
            ]

        return coords(center_subgroup(G).members), coords(derived_subgroup(G).members)

    def as_table_group(self, cap: int = 512) -> tuple[FiniteGroup, "CPIndex"]:
        if self.order > cap:
            raise ValueError(f"|F| = {self.order} exceeds table cap {cap}")
        idx = CPIndex(self)
        na = idx.a_coords.shape[0]
        zi, ai = np.divmod(np.arange(self.order), na)
        z, a = idx.z_coords[zi], idx.a_coords[ai]
        # every product e1 e2 at once, e1 along the rows
        zz, aa = self.mul(z[:, None], a[:, None], z[None], a[None])
        mul = idx.z_index(zz) * na + idx.a_index(aa)
        G = FiniteGroup(mul, name=f"F{self.order}")
        return G, idx


class CPIndex:
    """Deterministic element indexing: index = z-index * |Msum| + a-index."""

    def __init__(self, cp: CrossedProduct):
        self.cp = cp
        self.z_coords = all_coords(cp.Zmod.ab)
        self.a_coords = all_coords(cp.Msum.ab)
        self.z_strides = _mixed_radix_strides(cp.Zmod.ab.orders)
        self.a_strides = _mixed_radix_strides(cp.Msum.ab.orders)

    def z_index(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=np.int64)
        return (c @ self.z_strides).astype(np.int64)

    def a_index(self, coords) -> np.ndarray:
        c = np.asarray(coords, dtype=np.int64)
        return (c @ self.a_strides).astype(np.int64)


def _mixed_radix_strides(orders) -> np.ndarray:
    k = len(orders)
    strides = np.zeros(k, dtype=np.int64)
    acc = 1
    for i in range(k - 1, -1, -1):
        strides[i] = acc
        acc *= orders[i]
    return strides


# ---------------------------------------------------------------------------
# The induced-module instance
# ---------------------------------------------------------------------------


@dataclass
class BKDatum:
    """All data of one crossed-product instance built from (A, g)."""

    A: FinAbGroup
    ggroup: FiniteGroup
    Mmod: InducedModule
    MMmod: GModule
    tensorMM: TensorProduct
    AA: TensorProduct
    j: AbHom
    Z: FinAbGroup
    phi: AbHom
    Zmod: GModule
    Msum: GModule
    cp: CrossedProduct
    x_proj: AbHom
    y_proj: AbHom


def build_bk(A: FinAbGroup, ggroup: FiniteGroup) -> BKDatum:
    """Crossed product from the base module and the Galois quotient."""
    H1 = Subgroup.make(ggroup, [0])
    M = induced_module(ggroup, H1, A)
    MM, tensorMM = tensor_module(M, M)
    AA = TensorProduct(A, A)
    j_hom = constant_inclusion(M, tensorMM)
    Zmod, phi, _pres = quotient_module(MM, j_hom.matrix.T)
    Z = Zmod.ab
    km = M.ab.rank
    Msum_group = FinAbGroup(tuple(M.ab.orders) * 2)
    acts = np.zeros((ggroup.size, 2 * km, 2 * km), dtype=np.int64)
    acts[:, :km, :km] = M.act
    acts[:, km:, km:] = M.act
    Msum = GModule(ggroup, Msum_group, acts)
    # Phi((x,y),(x',y')) = phi(x (x) y'); x (x) y' has index i * km + j
    phi_tensor = np.zeros((Z.rank, 2 * km, 2 * km), dtype=np.int64)
    phi_tensor[:, :km, km:] = phi.matrix.reshape(Z.rank, km, km)
    cp = CrossedProduct(Zmod, Msum, phi_tensor)
    eye = np.eye(km, dtype=np.int64)
    zero = np.zeros((km, km), dtype=np.int64)
    x_proj = AbHom(Msum_group, M.ab, np.concatenate([eye, zero], axis=1))
    y_proj = AbHom(Msum_group, M.ab, np.concatenate([zero, eye], axis=1))
    return BKDatum(
        A=A, ggroup=ggroup, Mmod=M, MMmod=MM, tensorMM=tensorMM, AA=AA, j=j_hom,
        Z=Z, phi=phi, Zmod=Zmod, Msum=Msum, cp=cp, x_proj=x_proj, y_proj=y_proj,
    )


def pairing_is_nondegenerate(phi: AbHom, tensor: TensorProduct) -> bool:
    """Both radicals of (x, y) -> phi(x (x) y) vanish."""
    M = tensor.left
    km = M.rank
    kz = phi.target.rank
    # pairing[k, i, j] = phi(e_i (x) e_j)_k; one block of rows per probe j
    pairing = phi.matrix.reshape(kz, km, km)
    left = pairing.transpose(2, 0, 1).reshape(km * kz, km)
    right = pairing.transpose(1, 0, 2).reshape(km * kz, km)
    torders = tuple(phi.target.orders) * km
    lk, _ = kernel(AbHom(M, FinAbGroup(torders), left))
    rk, _ = kernel(AbHom(M, FinAbGroup(torders), right))
    return lk.cardinality == 1 and rk.cardinality == 1


def is_nondegenerate(datum: BKDatum) -> bool:
    return pairing_is_nondegenerate(datum.phi, datum.tensorMM)


def center_equals_embedded_Z(datum: BKDatum) -> dict:
    """Structured check Z(F) = [F,F] = Z; brute-forced too when |F| <= 2^8."""
    cp = datum.cp
    report: dict = {"Z_size": cp.Zmod.ab.cardinality}
    radspan = subgroup_span(cp.amods, cp.antisym_radical())
    report["radical_size"] = subgroup_order(radspan, cp.amods)
    report["center_is_Z"] = report["radical_size"] == 1
    dspan = subgroup_span(cp.zmods, cp.derived_structured())
    report["derived_size"] = subgroup_order(dspan, cp.zmods)
    report["derived_is_Z"] = report["derived_size"] == report["Z_size"]
    if cp.order <= 256:
        center, derived = cp.center_and_derived_brute()
        report["brute_center_size"] = len(center)
        report["brute_derived_size"] = len(derived)
        report["brute_center_is_Z"] = (
            len(center) == report["Z_size"] and all(not any(a) for _, a in center)
        )
        report["brute_derived_is_Z"] = len(derived) == report["Z_size"]
    report["ok"] = report["center_is_Z"] and report["derived_is_Z"] and all(
        report.get(k, True) for k in ("brute_center_is_Z", "brute_derived_is_Z")
    )
    return report


# ---------------------------------------------------------------------------
# Twisted forms
# ---------------------------------------------------------------------------


class TwistedForm:
    """The crossed product with its action twisted by a 1-cocycle into M + M."""

    def __init__(self, datum: BKDatum, twist: Cochain | None = None):
        self.datum = datum
        self.cp = datum.cp
        if twist is None:
            twist = zero_cochain(datum.Msum, 1)
        if twist.degree != 1 or twist.module.ab != datum.Msum.ab:
            raise ValueError("twisting datum must be a 1-cochain valued in M + M")
        if not is_cocycle(Cochain(datum.Msum, 1, twist.table)):
            raise ValueError("twisting datum must be a cocycle")
        self.twist = twist
        self.tx, self.ty = self.split(twist)

    def split(self, a: Cochain) -> tuple[Cochain, Cochain]:
        """The x and y parts of a cochain valued in M + M, valued in M."""
        d = self.datum
        return a.mapped(d.x_proj, d.Mmod), a.mapped(d.y_proj, d.Mmod)

    def act(self, q: int, z, a):
        """sigma ._a (z, alpha) in closed form."""
        cp = self.cp
        zs, als = cp.act(q, z, a)
        t = self.twist.table[q]
        corr = (cp.pair(t, als) - cp.pair(als, t)) % cp.zmods
        return (zs + corr) % cp.zmods, als

    def act_definitional(self, q: int, z, a):
        """(0, a_sigma) * sigma(z,a) * (0, a_sigma)^-1."""
        cp = self.cp
        zs, als = cp.act(q, z, a)
        t = self.twist.table[q]
        z1, a1 = cp.mul(np.zeros_like(zs), t, zs, als)
        ti = cp.inv(np.zeros_like(zs), t)
        return cp.mul(z1, a1, *ti)

    def defect(self, z: Cochain, a: Cochain) -> tuple[np.ndarray, np.ndarray]:
        """The tables (Z part, M + M part) of f_s (s ._a f_t) f_{st}^{-1}, f = (z, a).

        Both have shape (|Q|, |Q|, rank); f is a twisted cocycle exactly when
        both vanish.  Each s is one call of the group law over every t.
        """
        cp, Q = self.cp, self.cp.Q
        zt, at = z.table, a.table
        zr = np.zeros((Q.size, Q.size, cp.kz), dtype=np.int64)
        ar = np.zeros((Q.size, Q.size, cp.ka), dtype=np.int64)
        for s in Q.elements():
            st = Q.mul[s]
            f_s_moved = cp.mul(zt[s], at[s], *self.act(s, zt, at))
            zr[s], ar[s] = cp.mul(*f_s_moved, *cp.inv(zt[st], at[st]))
        return zr, ar


def _twisted_law_sum(tf: TwistedForm, a: Cochain) -> Cochain:
    """tx u y + x u ty + x u y + d(x (x) ty), valued in M (x) M."""
    d = tf.datum
    x, y = tf.split(a)
    t = d.tensorMM
    return (
        cup(tf.tx, y, t, d.MMmod)
        + cup(x, tf.ty, t, d.MMmod)
        + cup(x, y, t, d.MMmod)
        + differential(pointwise_tensor(x, tf.ty, t, d.MMmod))
    )


def twisted_cocycle_condition_formula(tf: TwistedForm, z: Cochain, a: Cochain) -> bool:
    """d z + phi_*(tx u y + x u ty + x u y + d(x (x) ty)) == 0 and a a cocycle."""
    d = tf.datum
    if not is_cocycle(Cochain(d.Msum, 1, a.table)):
        return False
    lhs = differential(z) + _twisted_law_sum(tf, a).mapped(d.phi, d.Zmod)
    return lhs.is_zero


def twisted_cocycle_condition_definitional(tf: TwistedForm, z: Cochain, a: Cochain) -> bool:
    """f_s (s ._a f_t) f_{st}^{-1} == 1 for all s, t."""
    zr, ar = tf.defect(z, a)
    return not (zr.any() or ar.any())


def delta_twisted_formula(tf: TwistedForm, a: Cochain) -> Cochain:
    """phi_*((x + tx) u (y + ty) - tx u ty) as a 2-cochain valued in Z."""
    d = tf.datum
    x, y = tf.split(a)
    t = d.tensorMM
    w = cup(x + tf.tx, y + tf.ty, t, d.MMmod) - cup(tf.tx, tf.ty, t, d.MMmod)
    return w.mapped(d.phi, d.Zmod)


def delta_twisted_definitional(tf: TwistedForm, a: Cochain) -> Cochain:
    """Connecting value from the lift (0, a): f_s (s ._a f_t) f_{st}^{-1}."""
    zr, ar = tf.defect(zero_cochain(tf.datum.Zmod, 1), a)
    if ar.any():
        raise AssertionError("connecting value must be central")
    return Cochain(tf.datum.Zmod, 2, zr)


def cohomologous_witness(tf: TwistedForm, f, fp, alpha: AbElement):
    """The comparison cocycle c for twisted cocycles f, f' with a' = a + d alpha.

    Returns (c, verdict, conjugator) where verdict is True when c is a
    coboundary, in which case conjugator = (zeta, alpha) satisfies
    f'_s = (zeta, alpha)^{-1} f_s (s ._a (zeta, alpha)) for every s.
    """
    d = tf.datum
    z, a = f
    zp, ap = fp
    if alpha.parent != d.Msum.ab:
        raise ValueError("alpha must be an element of M + M")
    # d alpha must match a' - a
    alpha_c = Cochain(d.Msum, 0, np.array(alpha.coords))
    if (ap - a) != differential(alpha_c):
        raise ValueError("alpha does not connect the two cocycles")
    xi_c, eta_c = tf.split(alpha_c)
    x, _ = tf.split(a)
    _, yp = tf.split(ap)
    t = d.tensorMM
    w = (
        -cup(x + tf.tx, eta_c, t, d.MMmod)
        + cup(xi_c, yp + tf.ty, t, d.MMmod)
        + pointwise_tensor(differential(xi_c), tf.ty, t, d.MMmod)
    )
    c = (zp - z) + w.mapped(d.phi, d.Zmod)
    H1z = cohomology(d.Zmod, 1)
    if not H1z.is_cocycle(c):
        raise AssertionError("comparison cochain failed to be a cocycle")
    zeta_c = H1z.coboundary_witness(c)
    if zeta_c is None:
        return c, False, None
    zeta = d.Zmod.ab.element(zeta_c.table)
    # pointwise identity f'_s = (zeta,alpha)^{-1} f_s (s ._a (zeta,alpha)), all s at once
    cp = tf.cp
    zc = np.array(zeta.coords, dtype=np.int64)
    ac = np.array(alpha.coords, dtype=np.int64)
    zs, as_ = map(np.array, zip(*(tf.act(s, zc, ac) for s in cp.Q.elements())))
    z2, a2 = cp.mul(*cp.mul(*cp.inv(zc, ac), z.table, a.table), zs, as_)
    if (z2 != zp.table).any() or (a2 != ap.table).any():
        raise AssertionError("conjugation witness failed the pointwise identity")
    return c, True, (zeta, alpha)


def kernel_module(Mmod: GModule, h: AbHom) -> tuple[GModule, AbHom]:
    """Kernel of an equivariant hom as a module, with its inclusion."""
    K, incl = kernel(h)
    acts = np.zeros((Mmod.group.size, K.rank, K.rank), dtype=np.int64)
    for g in Mmod.group.elements():
        cols = []
        for gen in K.generators():
            moved = Mmod.ab.element(Mmod.apply(g, np.array(incl(gen).coords)))
            pre = solve_preimage(incl, moved)
            if pre is None:
                raise AssertionError("kernel is not stable under the action")
            cols.append(pre.coords)
        acts[g] = np.array(cols, dtype=np.int64).T
    return GModule(Mmod.group, K, acts), incl


def lambda_prime_extraction(tf: TwistedForm, a: Cochain, eps: Cochain):
    """lambda with j_* lambda = d eps + tx u y + x u ty + x u y + d(x (x) ty)."""
    return differential(eps) + _twisted_law_sum(tf, a)


# ---------------------------------------------------------------------------
# Odd powers and q-relevability
# ---------------------------------------------------------------------------


@dataclass
class QRelevabilityReport:
    q: int
    sigma: int
    eligible_size: int       # |{a : sigma a = q a}|
    relevable_size: int      # elements of that subgroup with a conjugating lift
    generated: bool          # relevable elements generate the subgroup
    power_identity_checked: int


def q_power_closed_form(cp: CrossedProduct, a: np.ndarray, q: int):
    """(0,a)^q = (q(q-1)/2 * Phi(a,a), q a); here and below each scalar is
    reduced mod the exponent it multiplies into, so no q overflows int64."""
    half = (q * (q - 1) // 2) % cp.Zmod.ab.exponent
    z = (half * cp.pair(a, a)) % cp.zmods
    return z, ((q % cp.Msum.ab.exponent) * np.asarray(a)) % cp.amods


def q_power_and_relevable(cp: CrossedProduct, sigma: int, q: int, rng=None) -> QRelevabilityReport:
    if q % 2 == 0:
        raise ValueError("q must be odd")
    # power identity, exhaustively when |M + M| is small, sampled otherwise
    if cp.Msum.ab.cardinality <= 64:
        coords = all_coords(cp.Msum.ab)
    else:
        rng = rng or np.random.default_rng(0)
        coords = rng.integers(0, np.maximum(cp.amods, 1), size=(200, cp.ka))
    z1, a1 = cp.power(np.zeros((len(coords), cp.kz), dtype=np.int64), coords, q)
    z2, a2 = q_power_closed_form(cp, coords, q)
    if (z1 != z2).any() or (a1 != a2).any():
        raise AssertionError("odd power identity failed")
    # the subgroup {a : sigma a = q a}
    L = cp.Msum.ab.exponent
    mat = cp.Msum.act[sigma] - (q % L) * np.eye(cp.ka, dtype=np.int64)
    eligible = kernel_uniform(scaled_rows(mat, cp.Msum.ab.orders, L), L)
    span = subgroup_span(cp.amods, eligible)
    eligible_size = subgroup_order(span, cp.amods)
    # enumerate the subgroup and test relevability of each element
    elems = span_elements(span, cp.amods)
    rel_rows = elems[[_is_relevable(cp, sigma, q, a) for a in elems]]
    # the explicit conjugator a' = ((q+1)/2 x, y) of every relevable a
    km = cp.ka // 2
    ap = rel_rows.copy()
    ap[:, :km] = ((((q + 1) // 2) % L) * ap[:, :km]) % cp.amods[:km]
    zq, aq = q_power_closed_form(cp, rel_rows, q)
    zero = np.zeros((len(rel_rows), cp.kz), dtype=np.int64)
    zc, ac = cp.conjugate(zero, ap, zero, aq)
    if (zc != zq).any() or (ac != aq).any():
        raise AssertionError("explicit conjugator failed")
    generated = subgroup_span(cp.amods, rel_rows).size() == span.size()
    return QRelevabilityReport(
        q=q,
        sigma=sigma,
        eligible_size=eligible_size,
        relevable_size=len(rel_rows),
        generated=generated,
        power_identity_checked=len(coords),
    )


def _is_relevable(cp: CrossedProduct, sigma: int, q: int, a: np.ndarray) -> bool:
    """Exists a lift (z, a) with (z,a)^q conjugate to sigma.(z,a)."""
    target, qa = q_power_closed_form(cp, a, q)  # (0, a)^q = (target, qa)
    sa = cp.Msum.apply(sigma, a)
    if (sa != qa).any():
        return False
    # conjugates of (w, qa) are w + V where V = {Phi(qa, c) - Phi(c, qa)}
    V = ((np.einsum("kij,j->ki", cp.phi_tensor, qa) - np.einsum("kij,i->kj", cp.phi_tensor, qa)).T) % cp.zmods
    # need z with sigma z - q z - q(q-1)/2 Phi(a,a) in span(V)
    img = (cp.Zmod.act[sigma] - (q % cp.Zmod.ab.exponent) * np.eye(cp.kz, dtype=np.int64)).T  # rows: images of basis
    return subgroup_span(cp.zmods, np.concatenate([V, img])).contains(target)

