"""Dense cochain tables and the operations the compatibility squares need.

Conventions (fixed once, used everywhere):

* inhomogeneous bar differential
  (dc)(s0,...,sr) = s0.c(s1..sr) + sum_i (-1)^i c(.., s_{i-1} s_i, ..) + (-1)^{r+1} c(s0..s_{r-1}),
  so a 1-cocycle satisfies x_{st} = x_s + s.x_t;
* cup product (x u y)(s_vec, t_vec) = pair(x(s_vec), (s1...sr).y(t_vec));
* conjugation of a cochain over a normal subgroup twists indices only,
  (c^s)_{t1..tr} = c_{s^-1 t1 s, ...} (the coefficients carry a trivial
  subgroup action wherever this is used);
* Shapiro evaluation picks the identity coset, sh(a)(s_vec) = a_{s_vec}(1);
  of all components of a decomposition at once it is one evaluation,
  :func:`shapiro_components`.  The tensor-side map sh' is that of the omega
  decomposition, which alone holds the coordinates of M (x) M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .abelian import AbElement, AbHom
from .groups import CosetSection, FiniteGroup, GModule, InducedModule, OmegaDecomposition, Subgroup


@dataclass
class Cochain:
    module: GModule
    degree: int
    table: np.ndarray  # shape (n,)*degree + (k,)

    def __post_init__(self):
        n = self.module.group.size
        k = self.module.ab.rank
        expected = (n,) * self.degree + (k,)
        self.table = np.asarray(self.table, dtype=np.int64).reshape(expected)
        mods = np.array(self.module.ab.orders, dtype=np.int64)
        if self.table.size:
            self.table = self.table % mods

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Cochain") -> "Cochain":
        self._check_same_kind(other)
        return Cochain(self.module, self.degree, self.table + other.table)

    def __sub__(self, other: "Cochain") -> "Cochain":
        self._check_same_kind(other)
        return Cochain(self.module, self.degree, self.table - other.table)

    def _check_same_kind(self, other: "Cochain"):
        if self.module is not other.module or self.degree != other.degree:
            raise ValueError("cochains must share their module and degree")

    def __neg__(self) -> "Cochain":
        return Cochain(self.module, self.degree, -self.table)

    def __mul__(self, k: int) -> "Cochain":
        return Cochain(self.module, self.degree, self.table * int(k))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self.table.any()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.module is other.module
            and self.degree == other.degree
            and (self.table == other.table).all()
        )

    def value(self, *args) -> AbElement:
        if len(args) != self.degree:
            raise ValueError(f"cochain of degree {self.degree} evaluated at {len(args)} arguments")
        return self.module.ab.element(self.table[tuple(int(a) for a in args)])

    def restricted_table(self, embed) -> np.ndarray:
        """The table with every argument reindexed through `embed`.

        With `embed` the embedding array of a subgroup this is the table of
        the restriction; with a permutation it reindexes the arguments.
        """
        return self.table[np.ix_(*(embed,) * self.degree)]

    def mapped(self, h: AbHom, target_module: GModule) -> "Cochain":
        """Push the coefficients through an equivariant homomorphism."""
        flat = self.table.reshape(_lead(self.table), self.module.ab.rank)
        out = h.apply_coords(flat)
        return Cochain(target_module, self.degree, out.reshape(self.table.shape[:-1] + (h.target.rank,)))


def _lead(table) -> int:
    out = 1
    for d in table.shape[:-1]:
        out *= d
    return out


def zero_cochain(module: GModule, degree: int) -> Cochain:
    n = module.group.size
    return Cochain(module, degree, np.zeros((n,) * degree + (module.ab.rank,), dtype=np.int64))


def random_cochain(module: GModule, degree: int, rng) -> Cochain:
    n = module.group.size
    shape = (n,) * degree + (module.ab.rank,)
    mods = np.array(module.ab.orders, dtype=np.int64)
    table = rng.integers(0, np.maximum(mods, 1), size=shape)
    return Cochain(module, degree, table)


def differential(c: Cochain) -> Cochain:
    """Bar differential; d(d(c)) == 0 for every cochain."""
    M = c.module
    G = M.group
    n = G.size
    k = M.ab.rank
    r = c.degree
    out = np.zeros((n,) * (r + 1) + (k,), dtype=np.int64)
    # term 0: s0 . c(s1..sr)
    flat = c.table.reshape(_lead(c.table), k)
    acted = np.einsum("gij,tj->gti", M.act, flat)
    out += acted.reshape((n,) + (n,) * r + (k,))
    # middle terms, on sparse grids that broadcast to the full index
    grids = np.indices((n,) * (r + 1), sparse=True)
    for i in range(1, r + 1):
        fused = G.mul[grids[i - 1], grids[i]]
        idx = tuple(grids[j] for j in range(i - 1)) + (fused,) + tuple(grids[j] for j in range(i + 1, r + 1))
        out += (-1) ** i * c.table[idx]
    # last term: drop s_r
    sign = (-1) ** (r + 1)
    shaped = c.table.reshape((n,) * r + (1, k))
    out = out + sign * np.broadcast_to(shaped, out.shape)
    return Cochain(M, r + 1, out)


def is_cocycle(c: Cochain) -> bool:
    return differential(c).is_zero


def cup(x: Cochain, y: Cochain, pairing, target_module: GModule) -> Cochain:
    """Cup product along a bilinear pairing on coefficients."""
    if x.module.group is not y.module.group:
        raise ValueError("cup product needs cochains over the same group")
    G = x.module.group
    n = G.size
    r, s = x.degree, y.degree
    # product of the first r arguments, as an array over the s-grid
    if r == 0:
        prods = np.zeros((1,), dtype=np.int64)
        xflat = x.table.reshape(1, -1)
    else:
        grids = np.indices((n,) * r)
        prods = grids[0]
        for i in range(1, r):
            prods = G.mul[prods, grids[i]]
        prods = prods.reshape(-1)
        xflat = x.table.reshape(len(prods), -1)
    yflat = y.table.reshape(_lead(y.table), y.module.ab.rank)  # (n^s, k2)
    acted = np.einsum("gij,tj->gti", y.module.act[prods], yflat)  # (n^r, n^s, k2)
    left = xflat[:, None, :]
    out = pairing.pair_coords(np.broadcast_to(left, acted.shape[:2] + (xflat.shape[1],)), acted)
    return Cochain(target_module, r + s, out.reshape((n,) * (r + s) + (pairing.group.rank,)))


def pointwise_tensor(x: Cochain, y: Cochain, pairing, target_module: GModule) -> Cochain:
    """Same-degree pointwise pairing, (x (x) y)_s = pair(x_s, y_s)."""
    if x.degree != y.degree:
        raise ValueError("pointwise tensor needs cochains of the same degree")
    xflat = x.table.reshape(_lead(x.table), x.module.ab.rank)
    yflat = y.table.reshape(_lead(y.table), y.module.ab.rank)
    out = pairing.pair_coords(xflat, yflat)
    return Cochain(target_module, x.degree, out.reshape(x.table.shape[:-1] + (pairing.group.rank,)))


# ---------------------------------------------------------------------------
# Conjugation action on cochains over a normal subgroup
# ---------------------------------------------------------------------------


def conjugation_action(
    G: FiniteGroup, H: Subgroup, embed: np.ndarray, sigma: int, c: Cochain
) -> Cochain:
    """(c^sigma)_{t1..tr} = c_{sigma^-1 t1 sigma, ...} for sigma in G.

    `c` lives over the subgroup-as-group whose embedding array is `embed`.
    The coefficient module must restrict to a trivial H-module, which holds
    throughout (base coefficients carry the trivial subgroup action).
    """
    if not H.normal:
        raise ValueError("conjugation action requires a normal subgroup")
    perm = H.positions[G.mul[G.mul[G.inv[sigma], embed], sigma]]
    return Cochain(c.module, c.degree, c.restricted_table(perm))


# ---------------------------------------------------------------------------
# Shapiro maps
# ---------------------------------------------------------------------------


def shapiro_forward(x: Cochain, H_module: GModule, embed: np.ndarray) -> Cochain:
    """Evaluate an induced-module cochain at the identity coset, over H."""
    M = x.module
    if not isinstance(M, InducedModule):
        raise ValueError("shapiro_forward requires a cochain valued in an induced module")
    out = x.restricted_table(embed)[..., 0 : M.base.rank]  # identity coset is coset 0
    return Cochain(H_module, x.degree, out)


def shapiro_inverse_1(a: Cochain, section: CosetSection, M: InducedModule) -> Cochain:
    """x_s(c) = a_{gamma(c, s)}; satisfies sh(x) = a on the nose."""
    if a.degree != 1:
        raise ValueError("shapiro_inverse_1 takes a 1-cochain")
    # (s, c, i) flattens to the induced coordinate c * ka + i
    return Cochain(M, 1, a.table[section.gamma.T])


def shapiro_inverse_2(a: Cochain, section: CosetSection, M: InducedModule) -> Cochain:
    """x_{s,t}(c) = a_{gamma(c,s), gamma(c sbar, t)}; sh(x) = a exactly."""
    if a.degree != 2:
        raise ValueError("shapiro_inverse_2 takes a 2-cochain")
    gamma = section.gamma
    # indices (s, t, c): gamma(c, s) and gamma(c sbar, t)
    return Cochain(M, 2, a.table[gamma.T[:, None, :], gamma[section._cs.T].transpose(0, 2, 1)])


def shapiro_components(x: Cochain, dec, H_module: GModule, embed: np.ndarray) -> list[Cochain]:
    """Shapiro evaluation of every component of a decomposition `dec` (omega
    or varsigma) of x's module: restrict x through `embed`, then apply the
    identity-coset rows of all components, ``dec.at_identity``, at once."""
    table = x.restricted_table(embed)
    at_identity = dec.at_identity
    flat = at_identity.apply_coords(table.reshape(_lead(table), at_identity.source.rank))
    shape = table.shape[:-1] + (H_module.ab.rank,)
    return [Cochain(H_module, x.degree, part.reshape(shape)) for part in np.split(flat, dec.count, axis=1)]


def sh_prime(x: Cochain, omega: OmegaDecomposition, H_module: GModule, embed: np.ndarray) -> list[Cochain]:
    """Components of the tensor-side Shapiro map: (s_vec) -> x_{s_vec}(g, 1).

    Component g is the Shapiro evaluation of omega component g of x, since
    omega_g(f)(1) = f(g, 1); the layout of M (x) M is omega's alone.
    """
    MM = omega.MM
    if x.module is not MM and x.module.ab != MM.ab:
        raise ValueError("sh_prime takes a cochain valued in M (x) M")
    return shapiro_components(x, omega, H_module, embed)
