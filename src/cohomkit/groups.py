"""Multiplication-table groups and their actions on finite abelian groups.

Conventions that everything downstream relies on:

* the identity always has index 0;
* one function, :func:`cosets`, fixes the coset convention: the
  representative of a coset is its member of lowest index, and cosets are
  numbered in the order of their representatives.  Quotient projections,
  induced-module cosets and set-theoretic sections are its right cosets H g;
  localization transversals are its left cosets g H, read off the transposed
  table.  So every derived table is reproducible byte for byte;
* it alone forms the coset action table c * sbar, which the others read;
* induced-module coordinates are laid out coset-major: coordinate
  (c, i) = coset index c, base-module factor i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .abelian import (
    AbHom,
    FinAbGroup,
    Presentation,
    TensorProduct,
    all_coords,
    quotient_presentation,
    subgroup_span,
)
from .intmat import ModSpan


class FiniteGroup:
    """A finite group given by its multiplication table; identity at index 0."""

    def __init__(self, mul, labels=None, name: str = "G", check: bool = True):
        self.mul = np.asarray(mul, dtype=np.int64)
        if self.mul.ndim != 2 or self.mul.shape[0] != self.mul.shape[1]:
            raise ValueError(f"multiplication table must be square, not of shape {self.mul.shape}")
        n = self.mul.shape[0]
        self.size = n
        self.name = name
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if check:
            self._validate()
        ones = self.mul == 0
        bad = np.flatnonzero(ones.sum(axis=1) != 1)
        if bad.size:
            raise ValueError(f"element {bad[0]} has no unique inverse")
        self.inv = ones.argmax(axis=1)

    def _validate(self):
        n = self.size
        if (self.mul < 0).any() or (self.mul >= n).any():
            raise ValueError("multiplication table entries out of range")
        if (self.mul[0] != np.arange(n)).any() or (self.mul[:, 0] != np.arange(n)).any():
            raise ValueError("index 0 is not an identity element")
        # Light's test: the elements s with (x s) y = x (s y) for every x, y
        # are closed under products, so checking them on a set that generates
        # the table from the identity checks every triple; one s at a time
        gens, reached = [], np.zeros(n, dtype=bool)
        reached[0] = True
        while not reached.all():
            gens.append(int(np.argmin(reached)))
            for children, _, _ in generator_tree(self, gens, [0]):
                reached[children] = True
        for s in gens:
            ok = self.mul[self.mul[:, s]] == self.mul[:, self.mul[s]]
            if not ok.all():
                x, y = np.argwhere(~ok)[0].tolist()
                raise ValueError(f"multiplication table not associative at triple {(x, s, y)}")
        # entries are in range, so a row is a permutation when it hits every column
        hit = np.zeros((n, n), dtype=bool)
        hit[np.arange(n)[:, None], self.mul] = True
        bad = np.flatnonzero(~hit.all(axis=1))
        if bad.size:
            raise ValueError(f"row {bad[0]} is not a permutation")

    # -- basic maps ----------------------------------------------------------

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    @cached_property
    def powers(self) -> np.ndarray:
        """powers[g, i] = g^i for i below the exponent e of the group, an
        n x e table (read-only): the one table of powers that element orders
        and cyclic subgroups are read from."""
        every = np.arange(self.size)
        columns, x = [np.zeros(self.size, dtype=np.int64)], every
        while x.any():
            columns.append(x)
            x = self.mul[x, every]
        powers = np.stack(columns, axis=1)
        powers.flags.writeable = False
        return powers

    @cached_property
    def orders(self) -> np.ndarray:
        """orders[g]: the order of g.  Of the e powers of g, e / order(g)
        are the identity (read-only)."""
        orders = self.powers.shape[1] // (self.powers == 0).sum(axis=1)
        orders.flags.writeable = False
        return orders

    def order_of(self, g: int) -> int:
        return int(self.orders[g])

    def elements(self):
        return range(self.size)

    def is_abelian(self) -> bool:
        return (self.mul == self.mul.T).all()

    def __len__(self):
        return self.size

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.size})"


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]

    @staticmethod
    def make(G: FiniteGroup, members) -> "Subgroup":
        mem = np.unique(np.fromiter(members, dtype=np.int64))
        if mem.size and (mem[0] < 0 or mem[-1] >= G.size):
            raise ValueError("subgroup members out of range")
        inside = np.zeros(G.size, dtype=bool)
        inside[mem] = True
        if not inside[0]:
            raise ValueError("subgroup must contain the identity")
        if not inside[G.inv[mem]].all():
            raise ValueError("subgroup not closed under inverse")
        if not inside[G.mul[np.ix_(mem, mem)]].all():
            raise ValueError("subgroup not closed under multiplication")
        return Subgroup(G, tuple(mem.tolist()))

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def normal(self) -> bool:
        """Whether g s g^-1 lies in the subgroup for every g in G and s in it."""
        G = self.parent
        return bool((self.positions[G.mul[G.mul[:, list(self.members)], G.inv[:, None]]] >= 0).all())

    @cached_property
    def positions(self) -> np.ndarray:
        """positions[g]: the index of g among the sorted members, -1 outside."""
        pos = np.full(self.parent.size, -1, dtype=np.int64)
        pos[list(self.members)] = np.arange(self.size)
        return pos


def cosets(mul: np.ndarray, members) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coset_of, reps, table) for the right cosets H g of the subgroup with these members.

    The representative of a coset is its lowest member, and cosets are
    numbered in the order of their representatives, so reps is sorted and
    reps[0] = 0; table[c, s] is the coset c * sbar of reps[c] * s.  Passing
    the transposed table gives the left cosets g H.
    """
    lowest = mul[np.asarray(members, dtype=np.int64)].min(axis=0)
    reps = np.unique(lowest)
    coset_of = np.searchsorted(reps, lowest)
    return coset_of, reps, coset_of[mul[reps]]


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """The subgroup generated by gens: the vertices of the generator tree
    from the identity, the closure of {1} under multiplication by the
    generators, which in a finite group is a group."""
    levels = generator_tree(G, [int(g) for g in gens], [0])
    return Subgroup.make(G, np.concatenate([[0], *(children for children, _, _ in levels)]))


def minimal_generating_set(G: FiniteGroup) -> list[int]:
    """Greedy in element order: each element outside the span of the
    generators so far joins them."""
    gens: list[int] = []
    inside = np.zeros(G.size, dtype=bool)
    inside[0] = True
    for g in G.elements():
        if not inside[g]:
            gens.append(g)
            inside[list(generated_subgroup(G, gens).members)] = True
            if inside.all():
                break
    return gens


def generator_tree(G: FiniteGroup, gens, roots) -> list[np.ndarray]:
    """A breadth-first tree of the Cayley graph of gens, grown from roots.

    Level d, an int64 array of shape (3, m), holds the m elements at
    distance d from the roots as rows (children, generator indices i,
    parents), child = gens[i] * parent, each parent at distance d - 1, in
    first-visit order: parents in the order they were visited, then
    generators.  So a word for each element, or a table over the elements,
    can be built one level at a time.  The tree spans the elements that
    words in gens reach from roots; a caller that needs the whole group
    checks that the levels cover it.
    """
    rows = G.mul[list(gens)].tolist()
    frontier = list(roots)
    seen = set(frontier)
    levels = []
    while True:
        level = []
        for g in frontier:
            for i, row in enumerate(rows):
                f = row[g]
                if f not in seen:
                    seen.add(f)
                    level.append((f, i, g))
        if not level:
            return levels
        levels.append(np.array(level, dtype=np.int64).T)
        frontier = [f for f, _, _ in level]


def center_subgroup(G: FiniteGroup) -> Subgroup:
    """The elements whose row of the table equals their column."""
    return Subgroup.make(G, np.flatnonzero((G.mul == G.mul.T).all(axis=1)))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """The subgroup generated by all n^2 commutators a b a^-1 b^-1."""
    commutators = G.mul[G.mul, G.mul[G.inv][:, G.inv]]
    return generated_subgroup(G, np.unique(commutators))


def cyclic_generators(G: FiniteGroup) -> np.ndarray:
    """The lowest generator of each cyclic subgroup, in increasing order.

    g^i generates <g> exactly when i is prime to the order of g, so the
    lowest generator of <g> is the least such power in g's row of
    ``G.powers``."""
    powers = G.powers
    prime = np.gcd(np.arange(powers.shape[1]), G.orders[:, None]) == 1
    return np.unique(np.where(prime, powers, G.size).min(axis=1))


def cyclic_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All cyclic subgroups, each once, sorted by members: <g> is the row
    of ``G.powers`` of each of :func:`cyclic_generators`."""
    subs = [Subgroup.make(G, G.powers[g]) for g in cyclic_generators(G)]
    return sorted(subs, key=lambda s: s.members)


def all_subgroups(G: FiniteGroup, cap: int = 10_000) -> list[Subgroup]:
    found = {(0,): Subgroup.make(G, [0])}
    frontier = [(0,)]
    while frontier:
        mem = frontier.pop()
        for g in G.elements():
            if g in mem:
                continue
            new = generated_subgroup(G, list(mem) + [g])
            if new.members not in found:
                found[new.members] = new
                frontier.append(new.members)
                if len(found) > cap:
                    raise ValueError(f"subgroup count exceeds cap {cap}")
    return [found[k] for k in sorted(found)]


def subgroup_group(sub: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """The subgroup as a group in its own right, plus the index embedding."""
    members = np.array(sub.members, dtype=np.int64)  # sorted; identity (0) first
    G = sub.parent
    mul = sub.positions[G.mul[np.ix_(members, members)]]
    H = FiniteGroup(mul, labels=[G.labels[m] for m in sub.members], name=f"{G.name}-sub")
    return H, members


def quotient_group(G: FiniteGroup, H: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """(G/H, projection array); H must be normal.  Coset reps: lowest index."""
    if not H.normal:
        raise ValueError("quotient requires a normal subgroup")
    coset_of, reps, table = cosets(G.mul, H.members)
    Q = FiniteGroup(table[:, reps], labels=[G.labels[r] for r in reps], name=f"{G.name}/H")
    return Q, coset_of


# -- constructors ------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"C{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    n, m = G.size, H.size
    mul = np.zeros((n * m, n * m), dtype=np.int64)
    for a in range(n):
        for x in range(m):
            i = a * m + x
            mul[i] = (G.mul[a][:, None] * m + H.mul[x][None, :]).reshape(-1)
    labels = [f"({g},{h})" for g in G.labels for h in H.labels]
    return FiniteGroup(mul, labels=labels, name=f"{G.name}x{H.name}")


def permutation_group(gens: list[tuple[int, ...]], name: str = "perm") -> FiniteGroup:
    """Group generated by permutations (tuples mapping i -> p[i])."""
    deg = len(gens[0])
    ident = tuple(range(deg))
    elems = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = tuple(p[q[i]] for i in range(deg))
            if r not in elems:
                elems.add(r)
                frontier.append(r)
    ordered = [ident] + sorted(e for e in elems if e != ident)
    pos = {p: i for i, p in enumerate(ordered)}
    n = len(ordered)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(ordered):
        for j, q in enumerate(ordered):
            mul[i, j] = pos[tuple(p[q[k]] for k in range(deg))]
    return FiniteGroup(mul, labels=[str(p) for p in ordered], name=name)


def symmetric_group_3() -> FiniteGroup:
    return permutation_group([(1, 0, 2), (0, 2, 1)], name="S3")


def alternating_subgroup_s3(S3: FiniteGroup) -> Subgroup:
    members = [g for g in S3.elements() if S3.order_of(g) in (1, 3)]
    return Subgroup.make(S3, members)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: (r, s) pairs encoded as s^b r^a."""
    size = 2 * n
    mul = np.zeros((size, size), dtype=np.int64)

    def enc(a, b):
        return b * n + a

    for a in range(n):
        for b in range(2):
            for c in range(n):
                for d in range(2):
                    # (b, a) * (d, c): s^b r^a s^d r^c = s^(b+d) r^(±a + c)
                    aa = (c + (a if d == 0 else -a)) % n
                    bb = (b + d) % 2
                    mul[enc(a, b), enc(c, d)] = enc(aa, bb)
    return FiniteGroup(mul, name=f"D{2*n}")


def quaternion_group() -> FiniteGroup:
    # elements 1, -1, i, -i, j, -j, k, -k encoded 0..7
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    basic = {"1": (1, "1"), "i": (1, "i"), "j": (1, "j"), "k": (1, "k")}

    def mul_base(x, y):
        table = {
            ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
            ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
            ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
        }
        return table[(x, y)]

    def decode(idx):
        sign = -1 if idx % 2 else 1
        base = ["1", "i", "j", "k"][idx // 2]
        return sign, base

    def encode(sign, base):
        return ["1", "i", "j", "k"].index(base) * 2 + (0 if sign == 1 else 1)

    mul = np.zeros((8, 8), dtype=np.int64)
    for x in range(8):
        for y in range(8):
            s1, b1 = decode(x)
            s2, b2 = decode(y)
            s3, b3 = mul_base(b1, b2)
            mul[x, y] = encode(s1 * s2 * s3, b3)
    return FiniteGroup(mul, labels=names, name="Q8")


def class_two_group(v_orders, w_orders, beta, name: str = "G") -> FiniteGroup:
    """The group V x W with (v, z)(v', z') = (v + v', z + z' + beta(v, v')).

    beta(v, v') = sum_{i<j} v_i v'_j beta[i, j] is the upper-triangular
    bilinear map V x V -> W given by the W-vectors beta[i, j], i < j.  It is
    a 2-cocycle, so the product is a group, central in W and of class <= 2.
    Element (v, z) has index v-index * |W| + z-index, coordinates in
    lexicographic order, so the identity is 0.
    """
    V, W = FinAbGroup(tuple(v_orders)), FinAbGroup(tuple(w_orders))
    if not V.rank:
        raise ValueError("V needs at least one cyclic factor")
    vmods = np.array(V.orders, dtype=np.int64)
    wmods = np.array(W.orders, dtype=np.int64)
    beta = np.asarray(beta, dtype=np.int64).reshape(V.rank, V.rank, W.rank) % wmods
    if beta[~np.triu(np.ones((V.rank, V.rank), dtype=bool), 1)].any():
        raise ValueError("beta must vanish on and below the diagonal")
    if (beta * vmods[:, None, None] % wmods).any() or (beta * vmods[None, :, None] % wmods).any():
        raise ValueError("beta is not well defined on the orders of V")
    v, z = all_coords(V), all_coords(W)
    vsum = (v[:, None] + v[None, :]) % vmods  # (a, b) -> v_a + v_b
    shift = np.einsum("ai,bj,ijk->abk", v, v, beta)  # (a, b) -> beta(v_a, v_b)
    zsum = (z[None, :, None, None] + z[None, None, None, :] + shift[:, None, :, None]) % wmods
    vidx = np.ravel_multi_index(tuple(np.moveaxis(vsum, -1, 0)), V.orders)
    zidx = np.ravel_multi_index(tuple(np.moveaxis(zsum, -1, 0)), W.orders)
    mul = vidx[:, None, :, None] * len(z) + zidx
    return FiniteGroup(mul.reshape(len(v) * len(z), -1), name=name)


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over Z/p; order p^3, class 2 for all p.

    (a, b, c)(x, y, z) = (a + x, b + y, c + z + a y): the class-two group
    on V = (Z/p)^2 and W = Z/p with beta(v, v') = v_0 v'_1.
    """
    return class_two_group((p, p), (p,), [[[0], [1]], [[0], [0]]], name=f"Heis{p**3}")


GROUP_CATALOG = {
    "1": lambda: cyclic_group(1),
    "C2": lambda: cyclic_group(2),
    "C3": lambda: cyclic_group(3),
    "C4": lambda: cyclic_group(4),
    "C6": lambda: cyclic_group(6),
    "C2xC2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "S3": symmetric_group_3,
    "D8": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "Heis8": lambda: heisenberg_group(2),
    "Heis27": lambda: heisenberg_group(3),
}


def named_group(name: str) -> FiniteGroup:
    try:
        return GROUP_CATALOG[name]()
    except KeyError:
        raise ValueError(f"unknown group name {name!r}; known: {sorted(GROUP_CATALOG)}")


ABELIAN_CATALOG = {
    "1": (),
    "C2": (2,),
    "C3": (3,),
    "C4": (4,),
    "C6": (6,),
    "C2xC2": (2, 2),
    "C2xC4": (2, 4),
    "C3xC3": (3, 3),
}


def named_abelian(name: str) -> FinAbGroup:
    try:
        return FinAbGroup(ABELIAN_CATALOG[name])
    except KeyError:
        raise ValueError(f"unknown abelian group {name!r}; known: {sorted(ABELIAN_CATALOG)}")


# ---------------------------------------------------------------------------
# G-modules
# ---------------------------------------------------------------------------


class GModule:
    """Action of a table group on a finite abelian group by automorphisms.

    The action matrices are stored reduced mod the factor orders.  A product
    of an action matrix with a matrix or a reduced vector sums rank products
    of two reduced entries; when rank * (max order - 1)^2 >= 2^63 that could
    wrap in int64, so ``_validate`` and ``apply`` form such products with
    Python integers instead.
    """

    def __init__(self, group: FiniteGroup, ab: FinAbGroup, act, check: bool = True):
        self.group = group
        self.ab = ab
        k = ab.rank
        self.act = np.asarray(act, dtype=np.int64).reshape(group.size, k, k)
        mods = np.array(ab.orders, dtype=np.int64).reshape(1, -1, 1)
        if self.act.size:
            self.act = self.act % mods
        top = max(ab.orders, default=1)
        self._product_dtype = object if k * (top - 1) ** 2 >= 1 << 63 else np.int64
        if check:
            self._validate()

    def _validate(self):
        G, k = self.group, self.ab.rank
        if k == 0:
            return
        mods = np.array(self.ab.orders, dtype=self._product_dtype).reshape(-1, 1)
        # reduced mod the factor orders in __init__
        act = self.act.astype(self._product_dtype, copy=False)
        ident = np.eye(k, dtype=np.int64) % mods
        if (act[0] != ident).any():
            raise ValueError("identity must act trivially")
        # well-definedness, by the rule of AbHom for every g at once
        orders = np.array(self.ab.orders, dtype=np.int64)
        if (self.act % (orders[:, None] // np.gcd.outer(orders, orders))).any():
            raise ValueError("matrix does not define a homomorphism on the given orders")
        if ((act @ act[G.inv]) % mods != ident).any():
            raise ValueError("action not invertible")
        # lhs[g, h] = act[g] act[h], to equal act[gh]; blocks of g keep each
        # temporary within max(n^2, n k^2) entries
        step = max(1, G.size // (k * k))
        for start in range(0, G.size, step):
            lhs = (act[start : start + step, None] @ act) % mods
            bad = np.argwhere((lhs != act[G.mul[start : start + step]]).any(axis=(2, 3)))
            if bad.size:
                g, h = bad[0].tolist()
                raise ValueError(f"action law fails at ({start + g},{h})")

    def apply(self, g: int, coords: np.ndarray) -> np.ndarray:
        mods = np.array(self.ab.orders, dtype=np.int64)
        if self._product_dtype is object:
            reduced = np.asarray(coords, dtype=np.int64) % mods
            out = reduced.astype(object) @ self.act[g].T.astype(object)
            return (out % mods.astype(object)).astype(np.int64)
        out = coords @ self.act[g].T
        return out % mods if out.size else out

    def __repr__(self):
        return f"GModule({self.group.name} acting on {self.ab})"


def trivial_module(G: FiniteGroup, A: FinAbGroup) -> GModule:
    act = np.broadcast_to(np.eye(A.rank, dtype=np.int64), (G.size, A.rank, A.rank)).copy()
    return GModule(G, A, act)


class InducedModule(GModule):
    """Functions G/H -> A with G acting by right translation of the argument."""

    def __init__(self, G: FiniteGroup, H: Subgroup, A: FinAbGroup):
        if not H.normal:
            raise ValueError("induced modules here require a normal subgroup")
        self.base = A
        self.H = H
        self.coset_of, self.coset_reps, self.coset_table = cosets(G.mul, H.members)
        m = self.coset_reps.size
        self.n_cosets = m
        k = A.rank
        ab = FinAbGroup(tuple(A.orders) * m)
        # moved[s, c, d] = 1 when d is the coset c * sbar; each coordinate
        # block of coset c goes to the block of c * sbar
        moved = (self.coset_table.T[:, :, None] == np.arange(m)).astype(np.int64)
        act = np.einsum("scd,ij->scidj", moved, np.eye(k, dtype=np.int64))
        super().__init__(G, ab, act.reshape(G.size, m * k, m * k))


def induced_module(G: FiniteGroup, H: Subgroup, A: FinAbGroup) -> InducedModule:
    return InducedModule(G, H, A)


def pullback_module(M: GModule, Q: FiniteGroup, hom: np.ndarray) -> GModule:
    """Module over Q obtained from a homomorphism Q -> M.group given elementwise."""
    act = M.act[np.asarray(hom, dtype=np.int64)]
    return GModule(Q, M.ab, act)


def restrict_module(M: GModule, D: Subgroup) -> tuple[GModule, np.ndarray]:
    """Restriction of M to a subgroup: the pullback along its embedding."""
    Dgrp, embed = subgroup_group(D)
    return pullback_module(M, Dgrp, embed), embed


def constant_inclusion(M: InducedModule, tensor: TensorProduct) -> AbHom:
    """The inclusion j: A (x) A -> M (x) M of constant functions, M = Ind(A).

    a (x) b goes to the sum over coset pairs (c1, c2) of (a at c1) (x) (b at
    c2); ``tensor`` is the TensorProduct of M.ab with itself.
    """
    ka, m = M.base.rank, M.n_cosets
    AA = TensorProduct(M.base, M.base)
    c1, i, c2, j = np.indices((m, ka, m, ka)).reshape(4, -1)
    rows = np.zeros((tensor.group.rank, AA.group.rank), dtype=np.int64)
    rows[tensor.index(c1 * ka + i, c2 * ka + j), AA.index(i, j)] = 1
    return AbHom(AA.group, tensor.group, rows)


def tensor_module(M: GModule, N: GModule) -> tuple[GModule, TensorProduct]:
    if M.group is not N.group:
        raise ValueError("tensor product needs modules over the same group")
    T = TensorProduct(M.ab, N.ab)
    k = T.group.rank
    # the Kronecker product of the two actions, for every g at once; its
    # entries are products of two reduced entries: Python integers past int64
    wide = max(M.ab.orders, default=1) * max(N.ab.orders, default=1) >= 1 << 63
    dtype = object if wide else np.int64
    acts = np.einsum("gij,gkl->gikjl", M.act.astype(dtype), N.act.astype(dtype)).reshape(M.group.size, k, k)
    acts %= np.array(T.group.orders, dtype=dtype).reshape(-1, 1)
    return GModule(M.group, T.group, acts.astype(np.int64)), T


def dual_module(M: GModule) -> GModule:
    """Characters of M with the contragredient action.

    A character of Z/o_i sends the generator to a multiple of 1/o_i, so g
    acts on it by the transpose of g^-1 scaled by o_i / o_j.
    """
    # v[g, i, j] = g^-1[j, i] o_i, below o_j o_i: Python integers past int64
    wide = max(M.ab.orders, default=1) ** 2 >= 1 << 63
    orders = np.array(M.ab.orders, dtype=object if wide else np.int64)
    v = M.act[M.group.inv].transpose(0, 2, 1) * orders[:, None]
    if (v % orders).any():
        raise ValueError("dual action not integral")
    acts = (v // orders) % orders[:, None]
    return GModule(M.group, FinAbGroup(M.ab.orders), acts.astype(np.int64))


def quotient_module(M: GModule, span_rows) -> tuple[GModule, AbHom, Presentation]:
    """Quotient by an action-stable subgroup given by generator rows."""
    pres, proj = quotient_presentation(M.ab, span_rows)
    Q = pres.group
    # g acts on Q through the lifts of its generators
    acts = np.zeros((M.group.size, Q.rank, Q.rank), dtype=np.int64)
    for g in M.group.elements():
        acts[g] = proj.apply_coords(M.apply(g, pres.lifts)).T
    return GModule(M.group, Q, acts), proj, pres


# ---------------------------------------------------------------------------
# Coset sections and localization data
# ---------------------------------------------------------------------------


class CosetSection:
    """Set-theoretic section u: G/H -> G with u(1) = 1 and its 'gamma' table.

    gamma(c, s) = u(c) * s * u(c*sbar)^{-1}, always a member of H, satisfying
    gamma(c, s t) = gamma(c, s) * gamma(c*sbar, t).
    """

    def __init__(self, G: FiniteGroup, H: Subgroup):
        if not H.normal:
            raise ValueError("coset sections here require a normal subgroup")
        self.G = G
        self.Hgroup, self.Hembed = subgroup_group(H)
        # lowest-index section, u[0] = identity; _cs[c, s]: the coset c * sbar
        self.coset_of, self.u, self._cs = cosets(G.mul, H.members)
        self.gamma = H.positions[G.mul[G.mul[self.u], G.inv[self.u[self._cs]]]]
        self._check_cocycle_condition()

    def _check_cocycle_condition(self):
        if (self.gamma < 0).any():
            raise AssertionError("section value escaped the subgroup")
        # gamma(c, s t) == gamma(c, s) * gamma(c sbar, t) for every (c, s, t)
        lhs = self.gamma[:, self.G.mul]
        rhs = self.Hgroup.mul[self.gamma[:, :, None], self.gamma[self._cs]]
        if (lhs != rhs).any():
            c, s, t = np.argwhere(lhs != rhs)[0]
            raise AssertionError(f"section cocycle condition fails at ({c},{s},{t})")


@dataclass
class LocalizationContext:
    """Finite avatar of a place: a decomposition subgroup D with H_D = D cap H."""

    G: FiniteGroup
    H: Subgroup
    D: Subgroup

    def __post_init__(self):
        G, H, D = self.G, self.H, self.D
        self.H_D = Subgroup.make(G, np.intersect1d(H.members, D.members))
        self.Dgroup, self.Dembed = subgroup_group(D)
        # H_D as a subgroup of Dgroup
        self.H_D_in_D = Subgroup.make(self.Dgroup, D.positions[list(self.H_D.members)])
        self.quotient, self.proj = quotient_group(G, H)  # the ambient Galois quotient
        Q = self.quotient
        self.gv = Subgroup.make(Q, self.proj[list(D.members)])
        # left-coset transversal of gv in the quotient, lowest index first
        self._left_coset, reps, _ = cosets(Q.mul.T, self.gv.members)
        self.transversal = tuple(int(s) for s in reps)
        self.e = reps.size
        self._check_factorization()

    def _check_factorization(self):
        """Unique factorization g = s * h: the products s h are a permutation of G/H."""
        Q = self.quotient
        products = np.sort(Q.mul[np.ix_(self.transversal, self.gv.members)], axis=None)
        if not np.array_equal(products, np.arange(Q.size)):
            raise AssertionError("transversal does not give unique factorization")

    def factor(self, g):
        """g = s * h with s in the transversal, h in gv; elementwise over arrays."""
        s = np.asarray(self.transversal)[self._left_coset[g]]
        return s, self.quotient.mul[self.quotient.inv[s], g]


# ---------------------------------------------------------------------------
# Decomposition isomorphisms
# ---------------------------------------------------------------------------


class _Decomposition:
    """An isomorphism ``forward`` onto ``count`` copies of the induced module ``part``,
    one block of rows per component, and its ``inverse``, verified on construction."""

    def _finish(self, name: str, source_act: np.ndarray, part: InducedModule, count: int) -> None:
        self.name, self.source_act, self.part, self.count = name, source_act, part, count
        self.verify()
        # every component evaluated at the identity coset: the coset-0 rows of the blocks
        rows = self.blocks()[:, : part.base.rank].reshape(-1, self.forward.source.rank)
        self.at_identity = AbHom(self.forward.source, FinAbGroup(tuple(part.base.orders) * count), rows)

    def blocks(self) -> np.ndarray:
        """The component matrices, stacked: (count, part rank, source rank)."""
        return self.forward.matrix.reshape(self.count, self.part.ab.rank, self.forward.source.rank)

    def verify(self) -> None:
        """The two maps are mutually inverse, and every component is equivariant."""
        for first, second in ((self.forward, self.inverse), (self.inverse, self.forward)):
            mods = np.array(first.source.orders, dtype=np.int64).reshape(-1, 1)
            if ((second.matrix @ first.matrix - np.eye(len(mods), dtype=np.int64)) % mods).any():
                raise AssertionError(f"{self.name} forward and inverse maps are not mutually inverse")
        # every component against every group element at once: (count, n, rows, cols)
        comps = self.blocks()[:, None]
        mods = np.array(self.part.ab.orders, dtype=np.int64).reshape(-1, 1)
        bad = ((comps @ self.source_act - self.part.act @ comps) % mods).any(axis=(2, 3))
        if bad.any():
            raise AssertionError(f"{self.name} component {int(np.argwhere(bad)[0, 0])} not equivariant")


class OmegaDecomposition(_Decomposition):
    """Componentwise isomorphism M (x) M  ->  Ind(A (x) A)^[G:H] for M = Ind_H^G(A).

    Component at coset g sends f to h |-> f(g h, h); the inverse reassembles
    f(g, h) from component g h^{-1} evaluated at h.  This is the one place
    that knows the coordinates of M (x) M: coordinate (c1 ka + i, c2 ka + j)
    of ``tensor`` is a_i at c1 times a_j at c2, and coordinate t = i ka + j
    of A (x) A sits at h kaa + t in ``ind_AA``.
    """

    def __init__(self, M: InducedModule):
        G, H, A = M.group, M.H, M.base
        self.M = M
        self.MM, self.tensor = tensor_module(M, M)
        self.AA = TensorProduct(A, A)
        self.ind_AA = induced_module(G, H, self.AA.group)
        m = M.n_cosets
        ka = A.rank
        kaa = self.AA.group.rank
        prod = M.coset_table[:, M.coset_reps]  # prod[g, h]: the coset g h
        # every (g, h, i, j) at once, in the order of the forward rows
        g, h, i, j = np.indices((m, m, ka, ka)).reshape(4, -1)
        # row (g, h, t) of the forward map reads f(g h, h) at (i, j)
        fwd = np.zeros((m * m * kaa, self.MM.ab.rank), dtype=np.int64)
        fwd[np.arange(fwd.shape[0]), self.tensor.index(prod[g, h] * ka + i, h * ka + j)] = 1
        total = FinAbGroup(tuple(self.ind_AA.ab.orders) * m)
        self.forward = AbHom(self.MM.ab, total, fwd)
        # f((g, i), (h, j)) is component g h^-1 at coset h; h^-1 is the coset
        # whose product with h is the identity coset 0
        inv_coset = np.argmax(prod == 0, axis=1)
        inv = np.zeros((self.MM.ab.rank, total.rank), dtype=np.int64)
        comp = prod[g, inv_coset[h]]
        inv[self.tensor.index(g * ka + i, h * ka + j), (comp * m + h) * kaa + i * ka + j] = 1
        self.inverse = AbHom(total, self.MM.ab, inv)
        self._finish("omega", self.MM.act, self.ind_AA, m)

    def place(self, g0: int) -> AbHom:
        """omega^-1 on the summand at g0: Ind(A (x) A) -> M (x) M sends x to
        the f with f(c1, c2) = x(c2) where c1 c2^-1 = g0, and 0 elsewhere."""
        b = self.ind_AA.ab.rank
        return AbHom(self.ind_AA.ab, self.MM.ab, self.inverse.matrix[:, g0 * b : (g0 + 1) * b])


class VarsigmaDecomposition(_Decomposition):
    """Restriction of M = Ind_H^G(A) to D, split along a transversal.

    Component at a transversal element s sends f to h |-> f(s h) on the
    local induced module over (D, H_D).
    """

    def __init__(self, ctx: LocalizationContext, M: InducedModule):
        if M.group is not ctx.G or M.H != ctx.H:
            raise ValueError("localization context belongs to another (G, H) than the induced module")
        A = M.base
        self.M_res = pullback_module(M, ctx.Dgroup, ctx.Dembed)
        self.M_local = induced_module(ctx.Dgroup, ctx.H_D_in_D, A)
        ka = A.rank
        local_rank = self.M_local.ab.rank
        # M.coset_of and ctx.proj both come from ``cosets``, so the global
        # coset of an element of G/H is that element itself; a local coset
        # corresponds to the image in G/H of its representative, an element of gv
        self.gv_of_local_coset = ctx.proj[ctx.Dembed[self.M_local.coset_reps]]
        self.local_coset_of_gv = np.full(ctx.quotient.size, -1, dtype=np.int64)
        self.local_coset_of_gv[self.gv_of_local_coset] = np.arange(self.M_local.n_cosets)
        factor = np.arange(ka)
        # row (s, l, i) of the forward map reads f at the coset s * l, factor i
        coset = ctx.quotient.mul[np.asarray(ctx.transversal)[:, None], self.gv_of_local_coset]
        fwd = np.zeros((ctx.e * local_rank, M.ab.rank), dtype=np.int64)
        fwd[np.arange(fwd.shape[0]), (coset[:, :, None] * ka + factor).reshape(-1)] = 1
        total = FinAbGroup(tuple(self.M_local.ab.orders) * ctx.e)
        self.forward = AbHom(M.ab, total, fwd)
        # g = s h: the block of coset g is read from the component at s, local
        # coset of h; the transversal is sorted, so searchsorted finds s in it
        g = np.arange(M.n_cosets)
        s, h = ctx.factor(g)
        col = np.searchsorted(ctx.transversal, s) * local_rank + self.local_coset_of_gv[h] * ka
        inv = np.zeros((M.ab.rank, total.rank), dtype=np.int64)
        inv[(g[:, None] * ka + factor).reshape(-1), (col[:, None] + factor).reshape(-1)] = 1
        self.inverse = AbHom(total, M.ab, inv)
        self._finish("varsigma", self.M_res.act, self.M_local, ctx.e)


# ---------------------------------------------------------------------------
# Stable subgroups of a module
# ---------------------------------------------------------------------------


def stable_span(M: GModule, vectors) -> ModSpan:
    """The smallest action-stable subgroup containing the given elements."""
    L = M.ab.exponent
    span = subgroup_span(M.ab.orders, [np.asarray(v, dtype=np.int64) for v in vectors])
    while True:
        extra = []
        for b in span.basis:
            for g in M.group.elements():
                moved = M.apply(g, b)
                if not span.contains(moved):
                    extra.append(moved)
        if not extra:
            return span
        span = ModSpan(np.concatenate([span.basis, np.array(extra)]), L, n=M.ab.rank)


def submodule_lattice(M: GModule, cap: int = 4096) -> list[ModSpan]:
    """All action-stable subgroups; requires |ab| <= cap."""
    if M.ab.cardinality > cap:
        raise ValueError(f"module of size {M.ab.cardinality} exceeds lattice bound {cap}")
    atoms = {}
    for x in M.ab.elements():
        span = stable_span(M, [np.array(x.coords, dtype=np.int64)])
        atoms[span.basis.tobytes() + bytes(str(span.basis.shape), "ascii")] = span
    found = dict(atoms)
    frontier = list(atoms.values())
    while frontier:
        s = frontier.pop()
        for a in list(atoms.values()):
            joined = subgroup_span(M.ab.orders, np.concatenate([s.basis, a.basis]))
            key = joined.basis.tobytes() + bytes(str(joined.basis.shape), "ascii")
            if key not in found:
                if len(found) > 4 * cap:
                    raise ValueError("stable-subgroup lattice exceeded enumeration cap")
                found[key] = joined
                frontier.append(joined)
    out = sorted(found.values(), key=lambda sp: (sp.size(), sp.basis.tobytes()))
    return out


def is_simple_module(M: GModule) -> bool:
    if M.ab.cardinality == 1:
        return False
    latt = submodule_lattice(M)
    return len([s for s in latt if 1 < s.size() < M.ab.cardinality]) == 0
