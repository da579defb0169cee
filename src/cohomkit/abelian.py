"""Finite abelian groups as products of cyclic factors, with exact arithmetic.

A group is a tuple of cyclic-factor orders, an element is a reduced residue
vector, a morphism is an integer matrix (rows indexed by target factors).
Groups are *not* normalized to invariant-factor form: cokernels come out in
whatever presentation the computation produces, and two presentations are
compared through the multiset of their primary cyclic factors.

Kernels, cokernels, images and membership questions all route through the
Howell-form machinery of :mod:`cohomkit.intmat`, over Z/L with L the lcm of
the cyclic orders involved.  One rule turns a product Z/o_1 x ... x Z/o_k of
cyclic groups of mixed orders into linear algebra over Z/L:

* a condition with values in coordinate i holds mod o_i exactly when, scaled
  by L/o_i, it holds mod L (:func:`scaled_rows`);
* a subgroup is the span over Z/L of its generators together with the
  order-lattice rows o_i e_i (:func:`subgroup_span`), and its order is the
  size of that span divided by the lattice's prod(L/o_i)
  (:func:`subgroup_order`).

Every module states mixed orders through these three functions; none
re-derives the rule.

A subquotient S/T is a :class:`Presentation`, and it converts in batches:
``class_coords`` takes rows of members of S, and the lifts of all
generators of S/T come from one solve.  The transform U that diagonalizes
the relations is invertible mod L, so the lift of a class is linear in its
coordinates, and callers read rows of classes or of lifts, not one vector
at a time.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod

import numpy as np

from .intmat import ModSpan, OverflowAbort, diagonalize_mod, kernel_uniform, matmul_mod, solve_mod

_MAX_CARD = 1 << 62


@dataclass(frozen=True)
class FinAbGroup:
    orders: tuple[int, ...]

    def __post_init__(self):
        if any(n < 1 for n in self.orders):
            raise ValueError(f"cyclic factor orders must be >= 1: {self.orders}")
        if prod(self.orders, start=1) > _MAX_CARD:
            raise OverflowAbort(f"group cardinality exceeds {_MAX_CARD}")

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def cardinality(self) -> int:
        return prod(self.orders, start=1)

    @property
    def exponent(self) -> int:
        return lcm(*self.orders)

    @property
    def is_trivial(self) -> bool:
        return all(n == 1 for n in self.orders)

    def zero(self) -> "AbElement":
        return AbElement(self, (0,) * self.rank)

    def element(self, coords) -> "AbElement":
        coords = tuple(coords)
        try:
            coords = tuple(map(operator.index, coords))
        except TypeError:
            raise ValueError(f"coordinates {coords} are not all integers") from None
        if len(coords) != self.rank:
            raise ValueError(f"coordinates {coords} do not fit orders {self.orders}")
        return AbElement(self, tuple(c % n for c, n in zip(coords, self.orders)))

    def generators(self) -> list["AbElement"]:
        """The unit vectors of the factors of order > 1, in factor order.

        On a group with no factor of order 1, such as the group of a
        :class:`Presentation`, these are all the unit vectors.
        """
        gens = []
        for i, n in enumerate(self.orders):
            if n > 1:
                gens.append(self.element([int(j == i) for j in range(self.rank)]))
        return gens

    def elements(self):
        for coords in itertools.product(*(range(n) for n in self.orders)):
            yield AbElement(self, coords)

    def random_element(self, rng) -> "AbElement":
        return AbElement(self, tuple(rng.randrange(n) for n in self.orders))

    def __repr__(self):
        if self.is_trivial:
            return "FinAbGroup(trivial)"
        return "FinAbGroup(%s)" % " x ".join(f"C{n}" for n in self.orders if n > 1)


def _same_groups(what: str, got: tuple, want: tuple) -> None:
    """Refuse, also under python -O, arguments from other groups than `want`."""
    if got != want:
        raise ValueError(f"{what} lies in orders {[g.orders for g in got]}, not {[g.orders for g in want]}")


@dataclass(frozen=True)
class AbElement:
    parent: FinAbGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        orders = self.parent.orders
        if len(self.coords) != len(orders) or not all(0 <= c < n for c, n in zip(self.coords, orders)):
            raise ValueError(f"coordinates {self.coords} do not fit orders {orders}")

    def __add__(self, other: "AbElement") -> "AbElement":
        _same_groups("summand", (other.parent,), (self.parent,))
        return AbElement(
            self.parent,
            tuple((a + b) % n for a, b, n in zip(self.coords, other.coords, self.parent.orders)),
        )

    def __neg__(self) -> "AbElement":
        return AbElement(self.parent, tuple((-a) % n for a, n in zip(self.coords, self.parent.orders)))

    def __sub__(self, other: "AbElement") -> "AbElement":
        return self + (-other)

    def __mul__(self, k: int) -> "AbElement":
        return AbElement(self.parent, tuple((a * k) % n for a, n in zip(self.coords, self.parent.orders)))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def order(self) -> int:
        return lcm(*(n // gcd(a, n) for a, n in zip(self.coords, self.parent.orders)))


class AbHom:
    """Morphism between finite abelian groups, stored as an integer matrix.

    matrix[i][j] is the coefficient of target factor i on source generator j;
    well-definedness (matrix[i][j] * n_j == 0 mod m_i) is checked eagerly, as
    divisibility of matrix[i][j] by m_i / gcd(m_i, n_j), so no product is
    formed.  ``apply_coords`` and ``compose`` sum source.rank products of a
    reduced source residue and a matrix entry in int64; when
    rank * (max source order - 1) * (max target order - 1) >= 2^63 they raise
    ``OverflowAbort`` instead of wrapping.
    """

    def __init__(self, source: FinAbGroup, target: FinAbGroup, matrix):
        self.source = source
        self.target = target
        M = np.asarray(matrix, dtype=np.int64).reshape(target.rank, source.rank)
        tmods = np.array(target.orders, dtype=np.int64).reshape(-1, 1)
        self.matrix = M % tmods if M.size else M
        smods = np.array(source.orders, dtype=np.int64).reshape(1, -1)
        if M.size and (self.matrix % (tmods // np.gcd(tmods, smods))).any():
            raise ValueError("matrix does not define a homomorphism on the given orders")
        top_s, top_t = max(source.orders, default=1), max(target.orders, default=1)
        wide = source.rank * (top_s - 1) * (top_t - 1) >= 1 << 63
        self._too_wide = max(top_s, top_t) if wide else 0

    def _check_int64(self) -> None:
        if self._too_wide:
            raise OverflowAbort(
                f"order {self._too_wide} is too large for int64 products: "
                f"rank * (source order - 1) * (target order - 1) >= 2^63"
            )

    def __call__(self, x: AbElement) -> AbElement:
        _same_groups("argument", (x.parent,), (self.source,))
        return self.target.element(self.apply_coords(np.array(x.coords, dtype=np.int64)))

    def apply_coords(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized application; coords has shape (..., source.rank)."""
        self._check_int64()
        out = coords @ self.matrix.T
        mods = np.array(self.target.orders, dtype=np.int64)
        return out % mods if out.size else out.reshape(coords.shape[:-1] + (self.target.rank,))

    def compose(self, other: "AbHom") -> "AbHom":
        _same_groups("inner target", (other.target,), (self.source,))
        self._check_int64()
        return AbHom(other.source, self.target, self.matrix @ other.matrix)

    def __add__(self, other: "AbHom") -> "AbHom":
        _same_groups("summand", (other.source, other.target), (self.source, self.target))
        return AbHom(self.source, self.target, self.matrix + other.matrix)

    def __neg__(self):
        return AbHom(self.source, self.target, -self.matrix)

    @property
    def is_zero(self) -> bool:
        return not self.matrix.any()

    @staticmethod
    def identity(A: FinAbGroup) -> "AbHom":
        return AbHom(A, A, np.eye(A.rank, dtype=np.int64))

    @staticmethod
    def zero(source: FinAbGroup, target: FinAbGroup) -> "AbHom":
        return AbHom(source, target, np.zeros((target.rank, source.rank), dtype=np.int64))

    def __repr__(self):
        return f"AbHom({self.source} -> {self.target})"


# ---------------------------------------------------------------------------
# Mixed orders over Z/L
# ---------------------------------------------------------------------------


def scaled_rows(matrix, orders, L: int, out: np.ndarray | None = None) -> np.ndarray:
    """Conditions with values in Z/orders[i] (row i) as conditions mod L.

    Row i is reduced mod orders[i], then multiplied by L // orders[i]; each
    orders[i] must divide L.  Every entry of the result is below L.  The
    rows are the last axis but one, so a stack of matrices with the same
    rows is scaled at once.  With ``out``, which may be ``matrix`` itself,
    the result is written there.
    """
    orders = np.asarray(orders, dtype=np.int64).reshape(-1, 1)
    out = np.remainder(np.asarray(matrix, dtype=np.int64), orders, out=out)
    out *= L // orders
    return out


def _order_lattice(orders) -> np.ndarray:
    """The order-lattice rows o_i e_i that are nonzero mod L = lcm(orders):
    a row with o_i = L is zero mod L and is left out."""
    orders = np.array(orders, dtype=np.int64).reshape(-1)
    return np.diag(orders)[orders != lcm(*orders.tolist())]


def subgroup_span(orders, rows=(), track: bool = False) -> ModSpan:
    """The subgroup generated by ``rows`` in prod Z/orders[i], as a span over
    Z/lcm(orders): the rows first, then the order-lattice rows o_i e_i.

    The lattice rows with o_i = lcm(orders) are zero and are left out, so a
    tracked span's coefficients past the rows are fewer than the orders,
    and none at all when every order is the lcm.
    """
    orders = tuple(int(o) for o in orders)
    n = len(orders)
    rows = np.asarray(rows, dtype=np.int64)
    rows = rows.reshape(-1, n) if rows.size else rows.reshape(0, n)
    return ModSpan(np.concatenate([rows, _order_lattice(orders)]), lcm(*orders), n=n, track=track)


def subgroup_order(span: ModSpan, orders) -> int:
    """The order of a subgroup of prod Z/orders[i] given by a span that holds
    the order lattice, such as one from :func:`subgroup_span`."""
    return span.size() // prod(span.L // int(o) for o in orders)


# ---------------------------------------------------------------------------
# Presentations of subquotients S/T inside an ambient product of cyclics
# ---------------------------------------------------------------------------


class Presentation:
    """S/T for subgroups T <= S of an ambient product of cyclic groups.

    S and T are given by generators; T may also come as a span over the
    same orders that holds the order lattice, such as one from
    :func:`subgroup_span`, which is then used as it is.

    Provides the quotient as a :class:`FinAbGroup` and converts in
    batches: ``class_coords`` maps rows of members of S to rows of class
    coordinates, ``lifts`` holds one representative of each generator of
    the quotient, and ``rep`` of a class is its coordinates times
    ``lifts``.  The internal consistency check |S| / |T| == |group| guards
    the whole reduction pipeline.
    """

    def __init__(self, ambient_orders, s_gens, t_gens=()):
        self.ambient_orders = tuple(int(n) for n in ambient_orders)
        n = len(self.ambient_orders)
        self.L = lcm(*self.ambient_orders)
        self.s_span = subgroup_span(self.ambient_orders, s_gens)
        if isinstance(t_gens, ModSpan):  # already swept, such as a tracked span kept for solving
            same = (t_gens.L, t_gens.n) == (self.L, n)
            if not same or t_gens.reduce(_order_lattice(self.ambient_orders)).any():
                raise ValueError("denominator span is not a subgroup of the ambient orders")
            self.t_span = t_gens
        else:
            self.t_span = subgroup_span(self.ambient_orders, t_gens)
        B = self.s_span.basis
        p = B.shape[0]
        # [B; T] spans S + T, which is S exactly when T <= S
        stacked = ModSpan(np.concatenate([B, self.t_span.basis]), self.L, n=n, track=True)
        if stacked.size() != self.s_span.size():
            raise ValueError("denominator subgroup is not contained in numerator")
        # relations: coordinates c over B with c @ B in T, the first p
        # columns of the left kernel of [B; T]; L*I is among them, so
        # diagonalizing over Z/L is exact
        rel = stacked.kernel()[:, :p]
        diag, self._U = diagonalize_mod(rel.T, self.L)  # relations as columns
        self._diag = diag + [self.L] * (p - len(diag))
        self._keep = [i for i, d in enumerate(self._diag) if d > 1]
        self.group = FinAbGroup(tuple(self._diag[i] for i in self._keep))
        expected = self.s_span.size() // self.t_span.size()
        if self.group.cardinality != expected:
            raise AssertionError(
                f"presentation size mismatch: {self.group.cardinality} != {expected}"
            )

    # -- conversions --------------------------------------------------------

    def class_coords(self, rows) -> np.ndarray:
        """The class of each row of a batch of members of S: int64 rows of
        coordinates in ``group``, reduced mod its orders.  Raises
        ValueError when a row lies outside S."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError(f"class_coords takes a batch of rows, not an array of shape {rows.shape}")
        c = self.s_span.coords(rows)
        if c is None:
            raise ValueError("vector is not a member of the subgroup")
        y = matmul_mod(c, self._U.T, self.L)[:, self._keep]
        return y % np.array(self.group.orders, dtype=np.int64)

    @cached_property
    def lifts(self) -> np.ndarray:
        """One ambient representative of each generator of ``group``, as rows
        reduced mod the ambient orders (read-only).

        The lift of generator i is c @ basis(S) for the c with U c = e_i,
        all solved at once.  U is invertible mod L, so that c is unique mod
        L, and the lift of a class is linear in its coordinates."""
        p = len(self._diag)
        units = np.eye(p, dtype=np.int64)[self._keep]
        c = ModSpan(self._U.T, self.L, n=p, track=True).solve(units)
        lifts = matmul_mod(c, self.s_span.basis, self.L) % np.array(self.ambient_orders, dtype=np.int64)
        lifts.flags.writeable = False
        return lifts

    def rep(self, cls: AbElement) -> np.ndarray:
        """An ambient representative vector of the class: its coordinates
        times ``lifts``."""
        _same_groups("class", (cls.parent,), (self.group,))
        vec = matmul_mod(np.array(cls.coords, dtype=np.int64), self.lifts, self.L)
        return vec % np.array(self.ambient_orders, dtype=np.int64)

    def contains(self, vec) -> bool:
        return self.s_span.contains(vec)

    def is_zero_class(self, vec) -> bool:
        return self.t_span.contains(vec)


# ---------------------------------------------------------------------------
# Kernel / cokernel / image / preimage
# ---------------------------------------------------------------------------


def kernel(h: AbHom) -> tuple[FinAbGroup, AbHom]:
    """(K, incl) with incl injective, h . incl == 0, image(incl) = Ker h."""
    L = lcm(h.source.exponent, h.target.exponent)
    pres = Presentation(h.source.orders, kernel_uniform(scaled_rows(h.matrix, h.target.orders, L), L))
    return pres.group, AbHom(pres.group, h.source, pres.lifts.T)


def quotient_presentation(A: FinAbGroup, rows) -> tuple[Presentation, AbHom]:
    """A / <rows> as a presentation, and the projection: the class of each unit vector."""
    units = np.eye(A.rank, dtype=np.int64)
    pres = Presentation(A.orders, units, rows)
    return pres, AbHom(A, pres.group, pres.class_coords(units).T)


def cokernel(h: AbHom) -> tuple[FinAbGroup, AbHom]:
    """(Q, proj) with proj surjective and Ker proj = Im h."""
    pres, proj = quotient_presentation(h.target, h.matrix.T)
    return pres.group, proj


def image_size(h: AbHom) -> int:
    return subgroup_order(subgroup_span(h.target.orders, h.matrix.T), h.target.orders)


def solve_preimage(h: AbHom, t: AbElement):
    """Some s with h(s) == t, or None when t is outside the image."""
    _same_groups("element", (t.parent,), (h.target,))
    L = lcm(h.source.exponent, h.target.exponent)
    # one condition per target coordinate: row i of [matrix | t] holds mod o_i
    Ab = scaled_rows(np.column_stack([h.matrix, t.coords]), h.target.orders, L)
    c = solve_mod(Ab[:, :-1], Ab[:, -1], L)
    if c is None:
        return None
    return h.source.element(c)


def cached_preimage(h: AbHom):
    """A pointwise section of h on its image: target coordinates -> the
    coordinates of one preimage, each solved once and then cached.

    Raises ValueError for a target outside the image of h.
    """
    cache: dict[tuple, np.ndarray] = {}

    def lift(coords) -> np.ndarray:
        key = tuple(int(x) for x in coords)
        if key not in cache:
            pre = solve_preimage(h, h.target.element(key))
            if pre is None:
                raise ValueError(f"{key} is not in the image")
            cache[key] = np.array(pre.coords, dtype=np.int64)
        return cache[key]

    return lift


# ---------------------------------------------------------------------------
# Tensor, exterior square, duals, direct sums
# ---------------------------------------------------------------------------


class TensorProduct:
    """A (x) B as a product of cyclic factors Z/gcd(n_i, m_j), (i, j) lex."""

    def __init__(self, A: FinAbGroup, B: FinAbGroup):
        self.left = A
        self.right = B
        self.factors = (A, B)
        self.group = FinAbGroup(tuple(gcd(n, m) for n in A.orders for m in B.orders))

    @cached_property
    def coefficients(self) -> np.ndarray:
        """c[p, i, j]: the coefficient of a_i b_j in coordinate p of a (x) b."""
        k = self.group.rank
        return np.eye(k, dtype=np.int64).reshape(k, self.left.rank, self.right.rank)

    def index(self, i: int, j: int) -> int:
        return i * self.right.rank + j

    def pair(self, a: AbElement, b: AbElement) -> AbElement:
        _same_groups("pair", (a.parent, b.parent), (self.left, self.right))
        coords = np.outer(np.array(a.coords, dtype=np.int64), np.array(b.coords, dtype=np.int64))
        return self.group.element(coords.reshape(-1))

    def pair_coords(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Vectorized pure-tensor coordinates; inputs shaped (..., rank)."""
        out = a[..., :, None] * b[..., None, :]
        out = out.reshape(out.shape[:-2] + (self.group.rank,))
        return out % np.array(self.group.orders, dtype=np.int64)


class ExteriorSquare:
    """Wedge square of A: factors Z/gcd(n_i, n_j) for i < j."""

    def __init__(self, A: FinAbGroup):
        self.base = A
        pairs = [(i, j) for i in range(A.rank) for j in range(A.rank) if i < j]
        self.pairs = pairs
        self.factors = (A, A)
        self.group = FinAbGroup(tuple(gcd(A.orders[i], A.orders[j]) for i, j in pairs))

    @cached_property
    def coefficients(self) -> np.ndarray:
        """c[p, i, j]: the coefficient of a_i b_j in coordinate p of a ^ b."""
        c = np.zeros((len(self.pairs), self.base.rank, self.base.rank), dtype=np.int64)
        for p, (i, j) in enumerate(self.pairs):
            c[p, i, j] = 1
            c[p, j, i] = -1
        return c

    def wedge(self, a: AbElement, b: AbElement) -> AbElement:
        _same_groups("pair", (a.parent, b.parent), (self.base, self.base))
        coords = [
            a.coords[i] * b.coords[j] - a.coords[j] * b.coords[i] for i, j in self.pairs
        ]
        return self.group.element(coords)


def all_coords(A: FinAbGroup) -> np.ndarray:
    """Every element of A as a row of coordinates, in lexicographic order."""
    if not A.rank:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices(A.orders, dtype=np.int64).reshape(A.rank, -1).T.copy()


def span_elements(span: ModSpan, mods) -> np.ndarray:
    """Every element of a span, reduced mod the coordinate orders, as rows in
    lexicographic order: the sums of multiples of each basis row in turn."""
    mods = np.asarray(mods, dtype=np.int64)
    out = np.zeros((1, len(mods)), dtype=np.int64)
    for b in span.basis % mods:
        order = lcm(*(int(m) // gcd(int(x), int(m)) for x, m in zip(b, mods)))
        multiples = (np.arange(order, dtype=np.int64)[:, None] * b) % mods
        out = np.unique(((out[:, None, :] + multiples) % mods).reshape(-1, len(mods)), axis=0)
    return out


def vanishing_products(product, lam: AbHom) -> np.ndarray:
    """Rows generating span{a.b : lam(a.b) = 0} inside ``product.group``.

    ``product`` is a bilinear product A x B -> C (a TensorProduct or an
    ExteriorSquare) with ``factors`` (A, B) and ``coefficients``, and lam is
    a hom C -> T.  For a fixed a, b -> lam(a.b) is a hom B -> T; the products
    with first factor a that lam kills are a.K_a for its kernel K_a, spanned
    by a.k over generators k of K_a.  So one Howell kernel per element of A
    replaces a test per pair.
    """
    A, B = product.factors
    T = lam.target
    if lam.source != product.group:
        raise ValueError("lam must be defined on the product group")
    L = lcm(B.exponent, T.exponent)
    tmods = np.array(T.orders, dtype=np.int64).reshape(-1, 1)
    coef = product.coefficients
    # beta[i, k, j]: the coefficient of a_i b_j in lam(a.b)_k
    beta = np.einsum("kp,pij->ikj", lam.matrix, coef) % tmods
    bmods = np.array(B.orders, dtype=np.int64)
    cmods = np.array(product.group.orders, dtype=np.int64)
    rows = []
    for a in all_coords(A):
        K = kernel_uniform(scaled_rows(np.tensordot(a, beta, axes=1), T.orders, L), L) % bmods
        rows.append(np.einsum("pij,i,rj->rp", coef, a, K) % cmods)
    return np.concatenate(rows)


class DualPairing:
    """Characters of A with values in Z/exp(A); the pairing is perfect."""

    def __init__(self, A: FinAbGroup):
        self.base = A
        self.group = FinAbGroup(A.orders)
        self.modulus = A.exponent

    def pairing(self, chi: AbElement, a: AbElement) -> int:
        _same_groups("pair", (chi.parent, a.parent), (self.group, self.base))
        e = self.modulus
        total = 0
        for c, x, n in zip(chi.coords, a.coords, self.base.orders):
            total += c * x * (e // n)
        return total % e


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _prime_powers(A: FinAbGroup) -> list[tuple[int, int]]:
    """(p, p^e) for each prime power p^e exactly dividing an order of A, by
    trial division: one pair per order and prime."""
    out = []
    for n in A.orders:
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                q = 1
                while m % p == 0:
                    m //= p
                    q *= p
                out.append((p, q))
            p += 1
        if m > 1:
            out.append((m, m))
    return out


def primary_multiset(A: FinAbGroup) -> Counter:
    return Counter(q for _, q in _prime_powers(A))


def same_invariants(A: FinAbGroup, B: FinAbGroup) -> bool:
    """Abstract isomorphism test via primary cyclic factor multisets."""
    return primary_multiset(A) == primary_multiset(B)


def invariant_factors(A: FinAbGroup) -> list[int]:
    by_prime: dict[int, list[int]] = {}
    for p, q in _prime_powers(A):
        by_prime.setdefault(p, []).append(q)
    for p in by_prime:
        by_prime[p].sort(reverse=True)
    depth = max((len(v) for v in by_prime.values()), default=0)
    out = []
    for i in range(depth):
        f = 1
        for p in by_prime:
            if i < len(by_prime[p]):
                f *= by_prime[p][i]
        out.append(f)
    return out


def is_cyclic(A: FinAbGroup) -> bool:
    return len(invariant_factors(A)) <= 1
