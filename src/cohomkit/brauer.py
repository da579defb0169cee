"""Bogomolov multipliers, the unramified-Brauer quotient, and cyclic kernels.

Two independent routes to B0(F) for a class-2 group F with Z(F) = [F,F]:

* the closed form Hom(S / S_lambda, Q/Z) from the commutator pairing
  lambda: wedge^2 F^ab -> Z(F), with S = Ker lambda and S_lambda generated by
  the pure wedges inside S;
* the definitional kernel of H^2(F, Q/Z) -> prod_A H^2(A, Q/Z) over abelian
  subgroups A, read through Bogomolov's criterion: B0(F) is the set of
  classes alpha with alpha(a, b) = alpha(b, a) for every commuting pair
  (a, b).  On an abelian A the commutator form
  omega(a, b) = alpha(a, b) - alpha(b, a) of a 2-cocycle is alternating and
  bilinear, and alpha -> omega is the isomorphism
  H^2(A, Q/Z) = Hom(wedge^2 A, Q/Z); so alpha restricts to zero on A exactly
  when omega vanishes on A x A, and the maximal abelian subgroups generated
  by commuting pairs cover every commuting pair.  Q/Z is modeled as Z/N,
  N = |F|, which embeds in Q/Z, so omega = 0 can be read in Z/N; the passage
  to Q/Z coefficients quotients H^2(F, Z/N) by the image of the connecting
  map on characters (an explicit integer 'carry' 2-cocycle per character),
  which is exact because every class is |F|-torsion.  Coboundaries and
  carries are symmetric on commuting pairs, so omega is defined on classes.

The two never share code; their agreement on the fixture battery is asserted
in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from .abelian import (
    AbElement,
    AbHom,
    ExteriorSquare,
    FinAbGroup,
    Presentation,
    kernel,
    scaled_rows,
    subgroup_order,
    subgroup_span,
    vanishing_products,
)
from .cochain import Cochain
from .cohomology import cohomology
from .crossed import BKDatum
from .groups import (
    FiniteGroup,
    GModule,
    Subgroup,
    center_subgroup,
    cyclic_generators,
    cyclic_subgroups,
    derived_subgroup,
    generator_tree,
    is_simple_module,
    minimal_generating_set,
    quotient_group,
    restrict_module,
    subgroup_group,
    trivial_module,
)
from .intmat import kernel_uniform


# ---------------------------------------------------------------------------
# Abelian structure of table groups
# ---------------------------------------------------------------------------


@dataclass
class AbelianStructure:
    """An abelian table group rewritten as a product of cyclic factors."""

    table: FiniteGroup
    group: FinAbGroup
    coords: np.ndarray  # (n, rank): coordinates of each element
    reps: list[int]     # a table element realizing each coordinate generator


def abelian_structure(G: FiniteGroup) -> AbelianStructure:
    """G as Z^k / R presented on a minimal generating set x_1..x_k.

    The generator tree from the identity gives each element an exponent
    vector: its parent's plus e_i.  The cycles of the Cayley graph generate
    its relations, so R is spanned by vec(g) + e_i - vec(x_i g) over every
    (g, i), together with the orders of the x_i.
    """
    if not G.is_abelian():
        raise ValueError("cyclic decomposition requires an abelian group")
    gens = minimal_generating_set(G)
    if not gens:
        pres = Presentation((), np.zeros((0, 0)), np.zeros((0, 0)))
        return AbelianStructure(G, pres.group, np.zeros((G.size, 0), dtype=np.int64), [])
    k = len(gens)
    box = G.orders[gens]
    eye = np.eye(k, dtype=np.int64)
    vec = np.zeros((G.size, k), dtype=np.int64)
    levels = generator_tree(G, gens, [0])
    if 1 + sum(level.shape[1] for level in levels) != G.size:
        raise AssertionError("generating set does not reach every element")
    for fs, js, gs in levels:
        vec[fs] = vec[gs] + eye[js]
    relations = (vec[:, None, :] + eye - vec[G.mul[gens].T]) % box  # [g, i]: x_i g = G.mul[gens[i], g]
    pres = Presentation(tuple(box.tolist()), eye, relations.reshape(-1, k))
    classes = pres.class_coords(eye)  # row i: class of e_i
    coords = vec @ classes % np.array(pres.group.orders, dtype=np.int64)
    reps = (coords[:, None, :] == np.eye(pres.group.rank, dtype=np.int64)).all(axis=2).argmax(axis=0).tolist()
    return AbelianStructure(G, pres.group, coords, reps)


# ---------------------------------------------------------------------------
# The commutator pairing and the closed form
# ---------------------------------------------------------------------------


@dataclass
class LambdaData:
    F: FiniteGroup
    Fab: AbelianStructure
    Zc: AbelianStructure
    wedge: ExteriorSquare
    lam: AbHom                 # wedge^2 F^ab -> Z(F)
    S: FinAbGroup              # Ker lambda
    S_incl: AbHom
    S_lambda_rows: np.ndarray  # generators of S_lambda in wedge coordinates
    b0: FinAbGroup             # Hom(S/S_lambda, Q/Z) ~ S/S_lambda
    ab_proj: np.ndarray        # element -> F^ab coordinates


def _abelianization(F: FiniteGroup) -> tuple[Subgroup, AbelianStructure, np.ndarray]:
    """(D, Fab, coords): the derived subgroup D, the structure of F / D, and
    the F / D coordinates of each element of F, shape (n, rank)."""
    D = derived_subgroup(F)
    Qt, proj = quotient_group(F, D)
    Fab = abelian_structure(Qt)
    return D, Fab, Fab.coords[proj]


def lambda_map(F: FiniteGroup) -> LambdaData:
    """The pairing lambda(a ^ b) = [lift(a), lift(b)] for a class-2 group.

    lambda is read on the lowest lift of each generator of F^ab, off one
    table of commutators [a, b] = a b a^-1 b^-1, and then checked exactly:
    lambda(abar ^ bbar) = [a, b] for every a of F against every lift b.  In
    class 2 the commutator is bilinear, so that covers every pair (a, b).
    """
    Z = center_subgroup(F)
    D, Fab, ab_proj = _abelianization(F)
    if not set(D.members) <= set(Z.members):
        raise ValueError("group must be nilpotent of class <= 2")
    Zgrp, _ = subgroup_group(Z)
    Zc = abelian_structure(Zgrp)
    wedge = ExteriorSquare(Fab.group)
    lifts = (ab_proj[:, None, :] == np.eye(Fab.group.rank, dtype=np.int64)).all(axis=2).argmax(axis=0)
    commutators = F.mul[F.mul, F.mul[F.inv][:, F.inv]]  # [a, b] = a b a^-1 b^-1
    at = Z.positions[commutators[:, lifts]]  # [a, j]: [a, lift j] among the members of Z
    if (at < 0).any():
        raise AssertionError("commutator escaped the center")
    comm = Zc.coords[at]  # (n, rank of F^ab, rank of Z)
    pairs = np.array(wedge.pairs, dtype=np.int64).reshape(-1, 2)
    lam = AbHom(wedge.group, Zc.group, comm[lifts[pairs[:, 0]], pairs[:, 1]].T)
    # lambda(abar ^ e_j), abar ^ e_j having wedge coordinates coef[:, :, j] @ abar
    values = np.einsum("kp,pij,ai->ajk", lam.matrix, wedge.coefficients, ab_proj)
    if (values % np.array(Zc.group.orders, dtype=np.int64) != comm).any():
        raise AssertionError("lambda depends on the lifts")
    S, S_incl = kernel(lam)
    rows = vanishing_products(wedge, lam)  # generators of S_lambda
    # present S / S_lambda inside the wedge square
    s_rows = S_incl.matrix.T
    pres = Presentation(wedge.group.orders, s_rows, rows)
    return LambdaData(
        F=F, Fab=Fab, Zc=Zc, wedge=wedge, lam=lam, S=S, S_incl=S_incl,
        S_lambda_rows=rows, b0=pres.group, ab_proj=ab_proj,
    )


def b0_closed_form(F: FiniteGroup) -> FinAbGroup:
    """Hom(S/S_lambda, Q/Z), which is abstractly S/S_lambda itself."""
    return lambda_map(F).b0


def b0_closed_form_cp(datum: BKDatum) -> FinAbGroup:
    """Closed form straight from the pairing, avoiding any table group.

    Over the crossed product, F^ab = M + M and lambda(a ^ b) is the
    antisymmetrization Phi(a,b) - Phi(b,a); this is exactly the commutator of
    the lifts (0,a), (0,b).
    """
    cp = datum.cp
    wedge = ExteriorSquare(cp.Msum.ab)
    # column p = (i, j) of lambda is Phi(e_i, e_j) - Phi(e_j, e_i)
    lam = AbHom(wedge.group, cp.Zmod.ab, np.einsum("kij,pij->kp", cp.phi_tensor, wedge.coefficients))
    S, S_incl = kernel(lam)
    pres = Presentation(wedge.group.orders, S_incl.matrix.T, vanishing_products(wedge, lam))
    return pres.group


def lambda_middle_identity(datum: BKDatum) -> bool:
    """lambda is phi on the mixed summand and zero on both wedge summands.

    Read off the blocks of the antisymmetrized pairing Phi(a, b) - Phi(b, a)
    over M + M: the block (x, y') must equal phi(x (x) y'), and the blocks
    (x, x') and (y, y') must vanish.
    """
    cp = datum.cp
    km = cp.ka // 2
    anti = cp._antisymmetrized()
    phi = datum.phi.matrix.reshape(cp.kz, km, km) % cp.zmods.reshape(-1, 1, 1)
    return bool((anti[:, :km, km:] == phi).all() and not anti[:, :km, :km].any() and not anti[:, km:, km:].any())


# ---------------------------------------------------------------------------
# The definitional oracle
# ---------------------------------------------------------------------------


def _character_carries(G: FiniteGroup, N: int) -> list[np.ndarray]:
    """Integer-carry 2-cocycles of the generating characters G -> Z/N.

    For chi with integer values c in [0, N), the table
    (c(a) + c(b) - c(ab)) / N is the image of chi under the connecting map of
    0 -> Z/N -> Q/Z -> Q/Z -> 0; these tables span the kernel of
    H^2(G, Z/N) -> H^2(G, Q/Z).
    """
    _, ab, coords = _abelianization(G)
    out = []
    for i, d in enumerate(ab.group.orders):
        if N % d:
            raise AssertionError(f"a character of order {d} has no values in Z/{N}")
        vals = (coords[:, i] * (N // d)) % N
        total = vals[:, None] + vals[None, :] - vals[G.mul]
        if (total % N).any():
            raise AssertionError("character carry is not integral")
        out.append((total // N) % N)
    return out


def _qz_presentation(G: FiniteGroup, N: int, work_bound: int = 1 << 26):
    """(H2, pres, carries): pres presents H^2(G, Q/Z) = Z' / (B' + carries'),
    all in the tree gauge of H2, whose class decisions read the same
    coordinates.

    ``carries`` holds the gauge slice coordinates of the character carries.
    """
    triv = trivial_module(G, FinAbGroup((N,)))
    H2 = cohomology(triv, 2, work_bound=work_bound)
    carries = [Cochain(triv, 2, tab.reshape(G.size, G.size, 1)) for tab in _character_carries(G, N)]
    if not all(H2.is_cocycle(c) for c in carries):
        raise AssertionError("character carry is not a 2-cocycle")
    carries = H2.gauge_coords(carries)
    pres = Presentation(H2.ambient_orders, H2.z_gauge, np.concatenate([H2.b_gauge, carries]))
    return H2, pres, carries


def commuting_pair_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Inclusion-maximal abelian subgroups generated by commuting pairs, sorted by members.

    For commuting a, b the subgroup <a, b> is {a^i b^j}: one gather from
    ``G.powers``.  It depends only on <a> and <b>, so the pairs a <= b run
    over :func:`cyclic_generators`.  The pairs (a, a) give the cyclic
    subgroups, the generators' rows of powers.  When one of a != b lies in
    the other's cyclic subgroup, <a, b> is one of those, so the pair is
    skipped.  Equal member sets are kept once, keyed by their packed rows,
    and S_i = <a_i, b_i> lies inside S_j exactly when a_i and b_i do,
    which leaves the maximal sets; only those become ``Subgroup``s.  The
    pairs and the sets are taken in blocks, so that no temporary holds
    more than n^2 entries while there are at most n^2 sets.
    """
    n = G.size
    power, order = G.powers, G.orders
    e = power.shape[1]
    gens = cyclic_generators(G)
    cyclic = np.zeros((gens.size, n), dtype=bool)  # cyclic[s]: the members of <gens[s]>
    cyclic[np.arange(gens.size)[:, None], power[gens]] = True
    nested = cyclic[:, gens] | cyclic[:, gens].T  # one of the two lies in the other's <.>
    mul = G.mul[np.ix_(gens, gens)]
    i, j = np.nonzero(np.triu((mul == mul.T) & ~nested))
    a, b = gens[i], gens[j]
    # packed member row -> the pair that generates it first; the cyclic sets are distinct
    found = {row.tobytes(): (g, g) for row, g in zip(np.packbits(cyclic, axis=1), gens)}
    step = max(1, n * n // max(e * e, n))
    for start in range(0, a.size, step):
        pa, pb = a[start : start + step], b[start : start + step]
        # a^i for i below the order of a already runs through <a>
        ea, eb = order[pa].max(), order[pb].max()
        members = G.mul[power[pa, :ea, None], power[pb, None, :eb]].reshape(pa.size, -1)
        inside = np.zeros((pa.size, n), dtype=bool)
        inside[np.arange(pa.size)[:, None], members] = True
        rows, first = np.unique(np.packbits(inside, axis=1), axis=0, return_index=True)
        for row, k in zip(rows, first.tolist()):
            found.setdefault(row.tobytes(), (pa[k], pb[k]))
    m = len(found)
    packed = np.frombuffer(b"".join(found), dtype=np.uint8).reshape(m, -1)
    sa, sb = np.array(list(found.values()), dtype=np.int64).T
    # contains[s, t]: S_s holds the generators of S_t; the sets are distinct
    dominated = np.zeros(m, dtype=bool)
    step = max(1, n * n // max(m, n))
    for start in range(0, m, step):
        inside = np.unpackbits(packed[start : start + step], axis=1, count=n).astype(bool)
        contains = inside[:, sa] & inside[:, sb]
        rows = np.arange(len(inside))
        contains[rows, start + rows] = False
        dominated |= contains.any(axis=0)
    maximal = [Subgroup.make(G, np.flatnonzero(np.unpackbits(row, count=n))) for row in packed[~dominated]]
    return sorted(maximal, key=lambda s: s.members)


def b0_oracle(F: FiniteGroup, work_bound: int = 1 << 26) -> FinAbGroup:
    """B0(F) by Bogomolov's criterion, with Z/|F| coefficients.

    B0(F) is the kernel of H^2(F, Q/Z) -> prod_A H^2(A, Q/Z) over the abelian
    subgroups A.  On an abelian A, omega(a, b) = alpha(a, b) - alpha(b, a) is
    alternating and bilinear and determines the class of alpha, so the
    restriction to A is zero exactly when omega vanishes on A x A.  The
    maximal subgroups S generated by commuting pairs cover every commuting
    pair, so B0(F) is the kernel of alpha -> omega on the pairs of every
    S x S: one H^2 of F, and no cohomology of any subgroup.

    The carries that pass from Z/N to Q/Z coefficients must have omega = 0
    on those pairs, and the pairs of the subgroups S must be exactly those
    with F.mul == F.mul.T, so that a sweep that drops a subgroup cannot
    weaken the criterion; both are re-checked on every call.
    """
    N = F.size
    H2, pres, carries = _qz_presentation(F, N, work_bound=work_bound)
    P = pres.group
    commuting = np.zeros((N, N), dtype=bool)
    for sub in commuting_pair_subgroups(F):
        mem = list(sub.members)
        commuting[np.ix_(mem, mem)] = True
    if (commuting != (F.mul == F.mul.T)).any():
        raise AssertionError("the commuting-pair subgroups do not cover exactly the commuting pairs")
    gens = pres.lifts
    T = H2._tables_from_slices(np.concatenate([gens, carries]))[:, :, 0]  # (N, N, b)
    # omega is alternating, so the pairs a < b carry every condition
    omega = (T - T.transpose(1, 0, 2))[np.triu(commuting, 1)] % N
    if omega[:, len(gens):].any():
        raise AssertionError("a character carry is not symmetric on commuting pairs")
    if P.is_trivial:
        return P
    # every class is N-torsion, so the kernel mod N holds P's coordinates
    return Presentation(P.orders, kernel_uniform(omega[:, : len(gens)], N)).group


def _restriction_kernel(P: FinAbGroup, reps: list[Cochain], local):
    """Kernel of P -> prod_A presA.group, without materializing the product.

    ``reps[i]`` represents the i-th generator of P; ``local`` holds one
    ``(embed, HA, presA)`` per subgroup A, presA in the gauge coordinates of
    HA, and a generator goes to the class in presA of its restriction
    through ``embed``, moved into that gauge.  Returns the kernel and its
    generators as elements of P.
    """
    orders = [o for _, _, presA in local for o in presA.group.orders]
    if not orders:
        return P, P.generators()
    blocks = []
    for embed, HA, presA in local:
        vecs = HA.gauge_coords([_restrict(rep, embed, HA) for rep in reps])
        blocks.append(presA.class_coords(vecs).T)
    L = lcm(P.exponent, *orders)
    mat = np.concatenate(blocks)
    pres = Presentation(P.orders, kernel_uniform(scaled_rows(mat, orders, L), L))
    return pres.group, [P.element(lift) for lift in pres.lifts]


def _restrict(c: Cochain, embed: np.ndarray, HA) -> Cochain:
    """The restriction of `c` through `embed`, as a cochain of HA's module."""
    return Cochain(HA.module, c.degree, c.restricted_table(embed))


# ---------------------------------------------------------------------------
# Unramified Brauer quotient of a crossed-product datum
# ---------------------------------------------------------------------------


@dataclass
class BrNrReport:
    kernel_size: int
    pure_span_size: int
    kernel_equals_pure_span: bool
    quotient: FinAbGroup


def br_nr_bk(datum: BKDatum) -> BrNrReport:
    """Hom(Ker phi / <vanishing pure tensors>, Q/Z) plus the equality check."""
    phi = datum.phi
    K, incl = kernel(phi)
    MM = datum.MMmod.ab
    # generators of the span of the pure tensors x (x) y with phi(x (x) y) = 0
    rows = vanishing_products(datum.tensorMM, phi)
    pure_span = subgroup_span(MM.orders, rows)
    pure_size = subgroup_order(pure_span, MM.orders)
    # the pure span is a subgroup: it holds Ker phi iff it holds its generators
    all_in = all(pure_span.contains(g) for g in incl.matrix.T)
    pres = Presentation(MM.orders, incl.matrix.T, rows)
    return BrNrReport(
        kernel_size=K.cardinality,
        pure_span_size=pure_size,
        kernel_equals_pure_span=all_in and pure_size == K.cardinality,
        quotient=pres.group,
    )


# ---------------------------------------------------------------------------
# Cyclic-restriction kernels (the finite avatar of locally trivial classes)
# ---------------------------------------------------------------------------


@dataclass
class ShaReport:
    degree: int
    total: FinAbGroup          # H^r(g, M)
    kernel: FinAbGroup         # classes restricting to zero on every cyclic subgroup
    cyclic_count: int
    verified: bool             # representatives re-checked to restrict to coboundaries


def sha_cyclic(M: GModule, degree: int, work_bound: int = 1 << 26) -> ShaReport:
    """The classes of H^r(G, M) that restrict to zero on every cyclic subgroup.

    The result is re-verified on every cyclic subgroup: each generator of
    H^r must restrict to a cocycle, and each kernel generator to a
    coboundary.  If some restriction is not a cocycle, the class
    coordinates cannot be read, so the report has ``verified`` false and
    ``kernel`` equal to ``total``, an upper bound.
    """
    H = cohomology(M, degree, work_bound=work_bound)
    subs = cyclic_subgroups(M.group)
    P = H.group
    reps = [H.rep(coords) for coords in P.generators()]
    local = []
    for sub in subs:
        Mres, embed = restrict_module(M, sub)
        HC = cohomology(Mres, degree, work_bound=work_bound)
        local.append((embed, HC, HC.presentation))
    if not all(HC.is_cocycle(_restrict(rep, embed, HC)) for rep in reps for embed, HC, _ in local):
        return ShaReport(degree=degree, total=P, kernel=P, cyclic_count=len(subs), verified=False)
    K, kgens = _restriction_kernel(P, reps, local)
    kreps = [H.rep(cls) for cls in kgens]
    verified = all(
        HC.is_coboundary(_restrict(rep, embed, HC)) for rep in kreps for embed, HC, _ in local
    )
    return ShaReport(
        degree=degree, total=P, kernel=K, cyclic_count=len(subs), verified=verified
    )


# ---------------------------------------------------------------------------
# Cyclic span detection (the finite step of the arithmetic lemma)
# ---------------------------------------------------------------------------


def hom_value(G: FinAbGroup, h: AbElement, x: AbElement, n: int) -> int:
    """Evaluate the character encoded by h at x, in Z/n.

    A hom G -> Z/n is encoded by coordinates h_i mod the factor orders, with
    h(x) = sum h_i x_i (n / o_i); this needs exp(G) | n.
    """
    _require_exponent_divides(G, n)
    return sum(hi * xi * (n // o) for hi, xi, o in zip(h.coords, x.coords, G.orders)) % n


def _require_exponent_divides(G: FinAbGroup, n: int) -> None:
    if n % G.exponent:
        raise ValueError("exponent of G must divide n")


def cyclic_span_detect(G: FinAbGroup, family: list[AbElement], a: AbElement, n: int) -> bool:
    """Does a restrict into span{a_i} on every cyclic subgroup of G?

    A hom restricted to <x> is determined by its value at x, so the test per
    cyclic subgroup is membership of a(x) in the Z/n-span of the a_i(x).
    """
    for x in G.elements():
        vals = [hom_value(G, h, x, n) for h in family]
        if not subgroup_span((n,), vals).contains([hom_value(G, a, x, n)]):
            return False
    return True


def global_span_membership(G: FinAbGroup, family: list[AbElement], a: AbElement, n: int) -> bool:
    """a in span{a_i} inside Hom(G, Z/n), decided exactly."""
    _require_exponent_divides(G, n)
    if not family:
        return a.is_zero
    return subgroup_span(G.orders, [h.coords for h in family]).contains(a.coords)


# ---------------------------------------------------------------------------
# The simple-module probe
# ---------------------------------------------------------------------------


@dataclass
class SimpleModuleReport:
    simple: bool
    cyclic: bool
    order: int


def not_supersolvable_probe(M: GModule) -> SimpleModuleReport:
    from .abelian import is_cyclic

    return SimpleModuleReport(
        simple=is_simple_module(M), cyclic=is_cyclic(M.ab), order=M.ab.cardinality
    )
