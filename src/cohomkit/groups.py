"""Multiplication-table groups and their actions on finite abelian groups.

Conventions that everything downstream relies on:

* the identity always has index 0;
* coset representatives, set-theoretic sections and localization transversals
  are chosen as the member of lowest index, so every derived table is
  reproducible byte for byte;
* induced-module coordinates are laid out coset-major: coordinate
  (c, i) = coset index c, base-module factor i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from .abelian import (
    AbHom,
    FinAbGroup,
    Presentation,
    TensorProduct,
)
from .intmat import ModSpan


class FiniteGroup:
    """A finite group given by its multiplication table; identity at index 0."""

    def __init__(self, mul, labels=None, name: str = "G", check: bool = True):
        self.mul = np.asarray(mul, dtype=np.int64)
        n = self.mul.shape[0]
        assert self.mul.shape == (n, n)
        self.size = n
        self.name = name
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if check:
            self._validate()
        inv = np.full(n, -1, dtype=np.int64)
        for g in range(n):
            hits = np.flatnonzero(self.mul[g] == 0)
            assert hits.size == 1, f"element {g} has no unique inverse"
            inv[g] = hits[0]
        self.inv = inv

    def _validate(self):
        n = self.size
        if (self.mul < 0).any() or (self.mul >= n).any():
            raise ValueError("multiplication table entries out of range")
        if (self.mul[0] != np.arange(n)).any() or (self.mul[:, 0] != np.arange(n)).any():
            raise ValueError("index 0 is not an identity element")
        if n <= 256:
            # a few values of a at a time: two (block, n, n) arrays of about
            # 1 MiB each, not two n^3 arrays (32 MiB each at n = 128)
            step = max(1, (1 << 17) // (n * n))
            for a0 in range(0, n, step):
                rows = self.mul[a0 : a0 + step]
                ok = self.mul[rows] == rows[:, self.mul]  # (a*b)*c == a*(b*c)
                if not ok.all():
                    a, b, c = np.argwhere(~ok)[0]
                    raise ValueError(
                        f"multiplication table not associative at triple {(a0 + a, b, c)}"
                    )
        for g in range(n):
            if sorted(self.mul[g]) != list(range(n)):
                raise ValueError(f"row {g} is not a permutation")

    # -- basic maps ----------------------------------------------------------

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.op(self.op(g, x), int(self.inv[g]))

    def power(self, g: int, k: int) -> int:
        k = int(k)
        if k < 0:
            g, k = int(self.inv[g]), -k
        out = 0
        for _ in range(k):
            out = self.op(out, g)
        return out

    def order_of(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = self.op(x, g)
            k += 1
        return k

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
    normal: bool = field(default=False)

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
        # conjugates g s g^-1 for every g in G and s in the subgroup
        normal = bool(inside[G.mul[G.mul[:, mem], G.inv[:, None]]].all())
        return Subgroup(G, tuple(mem.tolist()), normal)

    @property
    def size(self) -> int:
        return len(self.members)


def generated_subgroup(G: FiniteGroup, gens) -> Subgroup:
    """The subgroup generated by gens: closure of {1} under right
    multiplication by the generators, which in a finite group is a group."""
    gens = np.array([int(g) for g in gens], dtype=np.int64)
    seen = np.zeros(G.size, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size and gens.size:
        step = np.unique(G.mul[np.ix_(frontier, gens)])
        frontier = step[~seen[step]]
        seen[frontier] = True
    return Subgroup.make(G, np.flatnonzero(seen))


def center_subgroup(G: FiniteGroup) -> Subgroup:
    """The elements whose row of the table equals their column."""
    return Subgroup.make(G, np.flatnonzero((G.mul == G.mul.T).all(axis=1)))


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """The subgroup generated by all n^2 commutators a b a^-1 b^-1."""
    commutators = G.mul[G.mul, G.mul[G.inv][:, G.inv]]
    return generated_subgroup(G, np.unique(commutators))


def cyclic_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All cyclic subgroups, deduplicated, in deterministic order."""
    seen = {}
    for g in G.elements():
        sub = generated_subgroup(G, [g])
        seen.setdefault(sub.members, sub)
    return [seen[k] for k in sorted(seen)]


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
    pos = np.full(G.size, -1, dtype=np.int64)
    pos[members] = np.arange(members.size)
    mul = pos[G.mul[np.ix_(members, members)]]
    H = FiniteGroup(mul, labels=[G.labels[m] for m in sub.members], name=f"{G.name}-sub")
    return H, members


def quotient_group(G: FiniteGroup, H: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """(G/H, projection array); H must be normal.  Coset reps: lowest index."""
    assert H.normal, "quotient requires a normal subgroup"
    hset = set(H.members)
    coset_of = np.full(G.size, -1, dtype=np.int64)
    reps = []
    for g in G.elements():
        if coset_of[g] >= 0:
            continue
        idx = len(reps)
        reps.append(g)
        for h in hset:
            coset_of[G.op(h, g)] = idx
    m = len(reps)
    mul = np.zeros((m, m), dtype=np.int64)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            mul[i, j] = coset_of[G.op(a, b)]
    Q = FiniteGroup(mul, labels=[G.labels[r] for r in reps], name=f"{G.name}/H")
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


def heisenberg_group(p: int) -> FiniteGroup:
    """Unitriangular 3x3 matrices over Z/p; order p^3, class 2 for all p."""
    size = p**3

    def enc(a, b, c):
        return (a * p + b) * p + c

    mul = np.zeros((size, size), dtype=np.int64)
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for x in range(p):
                    for y in range(p):
                        for z in range(p):
                            mul[enc(a, b, c), enc(x, y, z)] = enc(
                                (a + x) % p, (b + y) % p, (c + z + a * y) % p
                            )
    return FiniteGroup(mul, name=f"Heis{p**3}")


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
        for g in G.elements():
            AbHom(self.ab, self.ab, act[g])  # well-definedness
        if ((act @ act[G.inv]) % mods != ident).any():
            raise ValueError("action not invertible")
        for g in G.elements():
            # lhs[h] = act[g] act[h], to equal act[gh] for every h at once
            lhs = (act[g] @ act) % mods
            bad = np.flatnonzero((lhs != act[G.mul[g]]).any(axis=(1, 2)))
            if bad.size:
                raise ValueError(f"action law fails at ({g},{int(bad[0])})")

    def apply(self, g: int, coords: np.ndarray) -> np.ndarray:
        mods = np.array(self.ab.orders, dtype=np.int64)
        if self._product_dtype is object:
            reduced = np.asarray(coords, dtype=np.int64) % mods
            out = reduced.astype(object) @ self.act[g].T.astype(object)
            return (out % mods.astype(object)).astype(np.int64)
        out = coords @ self.act[g].T
        return out % mods if out.size else out

    def is_trivial_action(self) -> bool:
        mods = np.array(self.ab.orders, dtype=np.int64).reshape(-1, 1)
        ident = np.eye(self.ab.rank, dtype=np.int64) % mods
        return all((self.act[g] % mods == ident).all() for g in self.group.elements())

    def __repr__(self):
        return f"GModule({self.group.name} acting on {self.ab})"


def trivial_module(G: FiniteGroup, A: FinAbGroup) -> GModule:
    act = np.broadcast_to(np.eye(A.rank, dtype=np.int64), (G.size, A.rank, A.rank)).copy()
    return GModule(G, A, act)


class InducedModule(GModule):
    """Functions G/H -> A with G acting by right translation of the argument."""

    def __init__(self, G: FiniteGroup, H: Subgroup, A: FinAbGroup):
        assert H.normal, "induced modules here require a normal subgroup"
        self.base = A
        self.H = H
        hset = set(H.members)
        coset_of = np.full(G.size, -1, dtype=np.int64)
        reps: list[int] = []
        for g in G.elements():
            if coset_of[g] >= 0:
                continue
            idx = len(reps)
            reps.append(g)
            for h in hset:
                coset_of[G.op(h, g)] = idx
        self.coset_of = coset_of
        self.coset_reps = np.array(reps, dtype=np.int64)
        m = len(reps)
        self.n_cosets = m
        k = A.rank
        ab = FinAbGroup(tuple(A.orders) * m)
        act = np.zeros((G.size, m * k, m * k), dtype=np.int64)
        for s in G.elements():
            for c in range(m):
                src = int(coset_of[G.op(reps[c], s)])  # c * sbar
                for i in range(k):
                    act[s, c * k + i, src * k + i] = 1
        super().__init__(G, ab, act)

    def coset_mul(self, c1: int, c2: int) -> int:
        return int(self.coset_of[self.group.op(int(self.coset_reps[c1]), int(self.coset_reps[c2]))])

    def coset_inv(self, c: int) -> int:
        return int(self.coset_of[self.group.inv[int(self.coset_reps[c])]])


def induced_module(G: FiniteGroup, H: Subgroup, A: FinAbGroup) -> InducedModule:
    return InducedModule(G, H, A)


def restrict_module(M: GModule, D: Subgroup) -> tuple[GModule, np.ndarray]:
    """Restriction of M to a subgroup, as a module over the subgroup's group."""
    Dgrp, embed = subgroup_group(D)
    act = M.act[embed]
    return GModule(Dgrp, M.ab, act), embed


def tensor_module(M: GModule, N: GModule) -> tuple[GModule, TensorProduct]:
    assert M.group is N.group
    T = TensorProduct(M.ab, N.ab)
    k = T.group.rank
    acts = np.zeros((M.group.size, k, k), dtype=np.int64)
    for g in M.group.elements():
        acts[g] = np.kron(M.act[g], N.act[g])
    return GModule(M.group, T.group, acts), T


def dual_module(M: GModule) -> GModule:
    """Characters of M with the contragredient action."""
    A = M.ab
    k = A.rank
    acts = np.zeros((M.group.size, k, k), dtype=np.int64)
    for g in M.group.elements():
        inv = M.act[int(M.group.inv[g])]
        for i in range(k):
            for j in range(k):
                v = int(inv[j, i]) * A.orders[i]
                assert v % A.orders[j] == 0, "dual action not integral"
                acts[g, i, j] = (v // A.orders[j]) % A.orders[i]
    return GModule(M.group, FinAbGroup(A.orders), acts)


def quotient_module(M: GModule, span_rows) -> tuple[GModule, AbHom, Presentation]:
    """Quotient by an action-stable subgroup given by generator rows."""
    pres = Presentation(M.ab.orders, np.eye(M.ab.rank, dtype=np.int64), span_rows)
    Q = pres.group
    k = M.ab.rank
    proj_cols = []
    for j in range(k):
        e = np.zeros(k, dtype=np.int64)
        e[j] = 1
        proj_cols.append(pres.class_coords(e).coords)
    proj = AbHom(M.ab, Q, np.array(proj_cols, dtype=np.int64).T if k else np.zeros((Q.rank, 0)))
    acts = np.zeros((M.group.size, Q.rank, Q.rank), dtype=np.int64)
    gens = [Q.element([int(i == j) for j in range(Q.rank)]) for i in range(Q.rank)]
    for g in M.group.elements():
        cols = []
        for gen in gens:
            lifted = pres.rep(gen)
            moved = M.apply(g, lifted)
            cols.append(proj.apply_coords(moved))
        acts[g] = np.array(cols, dtype=np.int64).T
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
        assert H.normal
        self.G = G
        self.H = H
        self.Hgroup, self.Hembed = subgroup_group(H)
        self.hpos = {int(m): i for i, m in enumerate(self.Hembed)}
        ind = InducedModule(G, H, FinAbGroup((1,)))  # reuse coset bookkeeping
        self.coset_of = ind.coset_of
        self.u = ind.coset_reps.copy()  # lowest-index section; u[0] = identity
        assert self.u[0] == 0
        m = len(self.u)
        gamma = np.zeros((m, G.size), dtype=np.int64)
        for c in range(m):
            for s in G.elements():
                target = int(self.coset_of[G.op(int(self.u[c]), s)])
                val = G.op(G.op(int(self.u[c]), s), int(G.inv[int(self.u[target])]))
                assert val in self.hpos, "section value escaped the subgroup"
                gamma[c, s] = self.hpos[val]
        self.gamma = gamma
        self.n_cosets = m
        self._check_cocycle_condition()

    def _check_cocycle_condition(self):
        G, m = self.G, self.n_cosets
        for c in range(m):
            for s in G.elements():
                cs = int(self.coset_of[G.op(int(self.u[c]), s)])
                for t in G.elements():
                    lhs = self.gamma[c, G.op(s, t)]
                    rhs = self.Hgroup.op(int(self.gamma[c, s]), int(self.gamma[cs, t]))
                    assert lhs == rhs, f"section cocycle condition fails at ({c},{s},{t})"

    def coset_action(self, c: int, s: int) -> int:
        """The coset c * sbar."""
        return int(self.coset_of[self.G.op(int(self.u[c]), s)])


def coset_section(G: FiniteGroup, H: Subgroup) -> CosetSection:
    return CosetSection(G, H)


@dataclass
class LocalizationContext:
    """Finite avatar of a place: a decomposition subgroup D with H_D = D cap H."""

    G: FiniteGroup
    H: Subgroup
    D: Subgroup

    def __post_init__(self):
        G, H, D = self.G, self.H, self.D
        self.H_D = Subgroup.make(G, sorted(set(H.members) & set(D.members)))
        self.Dgroup, self.Dembed = subgroup_group(D)
        dpos = {int(m): i for i, m in enumerate(self.Dembed)}
        # H_D as a subgroup of Dgroup
        self.H_D_in_D = Subgroup.make(self.Dgroup, [dpos[m] for m in self.H_D.members])
        self.quotient, self.proj = quotient_group(G, H)  # the ambient Galois quotient
        gv_members = sorted(set(int(self.proj[d]) for d in D.members))
        self.gv = Subgroup.make(self.quotient, gv_members)
        gvset = set(gv_members)
        # left-coset transversal of gv in the quotient, lowest index first
        reps = []
        assigned = {}
        for g in self.quotient.elements():
            if g in assigned:
                continue
            reps.append(g)
            for h in gvset:
                assigned[self.quotient.op(g, h)] = g
        self.transversal = tuple(reps)
        self.e = len(reps)
        assert self.transversal[0] == 0
        # unique factorization g = s * h
        for g in self.quotient.elements():
            count = sum(
                1
                for s in self.transversal
                for h in gvset
                if self.quotient.op(s, h) == g
            )
            assert count == 1, "transversal does not give unique factorization"

    def factor(self, g: int) -> tuple[int, int]:
        """g = s * h with s in the transversal, h in gv."""
        for s in self.transversal:
            h = self.quotient.op(int(self.quotient.inv[s]), g)
            if h in set(self.gv.members):
                return s, h
        raise AssertionError("factorization failed")


# ---------------------------------------------------------------------------
# Decomposition isomorphisms
# ---------------------------------------------------------------------------


class OmegaDecomposition:
    """Componentwise isomorphism M (x) M  ->  Ind(A (x) A)^[G:H].

    Component at coset g sends f to h |-> f(g h, h); the inverse reassembles
    f(g, h) from component g h^{-1} evaluated at h.
    """

    def __init__(self, G: FiniteGroup, H: Subgroup, A: FinAbGroup):
        self.G, self.H, self.A = G, H, A
        self.M = induced_module(G, H, A)
        self.MM, self.tensor = tensor_module(self.M, self.M)
        self.AA = TensorProduct(A, A)
        self.ind_AA = induced_module(G, H, self.AA.group)
        m = self.M.n_cosets
        ka = A.rank
        kaa = self.AA.group.rank
        self.n_cosets = m
        comps = []
        for g in range(m):
            rows = np.zeros((m * kaa, self.MM.ab.rank), dtype=np.int64)
            for h in range(m):
                gh = self.M.coset_mul(g, h)
                for t in range(kaa):
                    i, j = divmod(t, ka)
                    src = self.tensor.index(gh * ka + i, h * ka + j)
                    rows[h * kaa + t, src] = 1
            comps.append(AbHom(self.MM.ab, self.ind_AA.ab, rows))
        self.components = comps
        total, injections, projections = _sum_of(self.ind_AA.ab, m)
        self.sum_group = total
        fwd = np.zeros((total.rank, self.MM.ab.rank), dtype=np.int64)
        for g in range(m):
            fwd += injections[g].matrix @ comps[g].matrix
        self.forward = AbHom(self.MM.ab, total, fwd)
        inv = np.zeros((self.MM.ab.rank, total.rank), dtype=np.int64)
        for gg in range(m):
            for hh in range(m):
                comp = self.M.coset_mul(gg, self.M.coset_inv(hh))  # g h^-1
                for t in range(kaa):
                    i, j = divmod(t, ka)
                    dst = self.tensor.index(gg * ka + i, hh * ka + j)
                    inv[dst, comp * m * kaa + hh * kaa + t] += 1
        self.inverse = AbHom(total, self.MM.ab, inv)

    def verify(self) -> None:
        mods = np.array(self.MM.ab.orders, dtype=np.int64).reshape(-1, 1)
        ident = np.eye(self.MM.ab.rank, dtype=np.int64) % mods
        assert ((self.inverse.matrix @ self.forward.matrix) % mods == ident).all()
        mods2 = np.array(self.sum_group.orders, dtype=np.int64).reshape(-1, 1)
        ident2 = np.eye(self.sum_group.rank, dtype=np.int64) % mods2
        assert ((self.forward.matrix @ self.inverse.matrix) % mods2 == ident2).all()
        indmods = np.array(self.ind_AA.ab.orders, dtype=np.int64).reshape(-1, 1)
        for g in range(self.n_cosets):
            for s in self.G.elements():
                lhs = (self.components[g].matrix @ self.MM.act[s]) % indmods
                rhs = (self.ind_AA.act[s] @ self.components[g].matrix) % indmods
                assert (lhs == rhs).all(), f"omega component {g} not equivariant at {s}"


def _sum_of(A: FinAbGroup, copies: int):
    total = FinAbGroup(tuple(A.orders) * copies)
    injections = []
    projections = []
    k = A.rank
    for c in range(copies):
        m = np.zeros((total.rank, k), dtype=np.int64)
        for i in range(k):
            m[c * k + i, i] = 1
        injections.append(AbHom(A, total, m))
        projections.append(AbHom(total, A, m.T))
    return total, injections, projections


def omega_decomposition(G: FiniteGroup, H: Subgroup, A: FinAbGroup) -> OmegaDecomposition:
    omega = OmegaDecomposition(G, H, A)
    omega.verify()
    return omega


class VarsigmaDecomposition:
    """Restriction of an induced module to D, split along a transversal.

    Component at a transversal element s sends f to h |-> f(s h) on the
    local induced module over (D, H_D).
    """

    def __init__(self, ctx: LocalizationContext, A: FinAbGroup):
        self.ctx = ctx
        self.A = A
        G, H = ctx.G, ctx.H
        self.M = induced_module(G, H, A)
        self.M_res, self.Dembed = restrict_module(self.M, ctx.D)
        self.M_local = induced_module(ctx.Dgroup, ctx.H_D_in_D, A)
        ka = A.rank
        # quotient-element <-> coset dictionaries
        coset_of_q = {}
        for c in range(self.M.n_cosets):
            coset_of_q[int(ctx.proj[int(self.M.coset_reps[c])])] = c
        local_coset_of_gv = {}
        for c in range(self.M_local.n_cosets):
            parent_elt = int(self.Dembed[int(self.M_local.coset_reps[c])])
            local_coset_of_gv[int(ctx.proj[parent_elt])] = c
        comps = []
        for s in ctx.transversal:
            rows = np.zeros((self.M_local.ab.rank, self.M.ab.rank), dtype=np.int64)
            for h_elt, c_local in local_coset_of_gv.items():
                g = ctx.quotient.op(s, h_elt)
                c_global = coset_of_q[g]
                for i in range(ka):
                    rows[c_local * ka + i, c_global * ka + i] = 1
            comps.append(AbHom(self.M.ab, self.M_local.ab, rows))
        self.components = comps
        total, injections, _ = _sum_of(self.M_local.ab, ctx.e)
        self.sum_group = total
        fwd = np.zeros((total.rank, self.M.ab.rank), dtype=np.int64)
        for idx in range(ctx.e):
            fwd += injections[idx].matrix @ comps[idx].matrix
        self.forward = AbHom(self.M.ab, total, fwd)
        inv = np.zeros((self.M.ab.rank, total.rank), dtype=np.int64)
        local_rank = self.M_local.ab.rank
        for c_global in range(self.M.n_cosets):
            g = int(ctx.proj[int(self.M.coset_reps[c_global])])
            s, h = ctx.factor(g)
            sidx = ctx.transversal.index(s)
            c_local = local_coset_of_gv[h]
            for i in range(ka):
                inv[c_global * ka + i, sidx * local_rank + c_local * ka + i] = 1
        self.inverse = AbHom(total, self.M.ab, inv)

    def verify(self) -> None:
        mods = np.array(self.M.ab.orders, dtype=np.int64).reshape(-1, 1)
        ident = np.eye(self.M.ab.rank, dtype=np.int64) % mods
        assert ((self.inverse.matrix @ self.forward.matrix) % mods == ident).all()
        mods2 = np.array(self.sum_group.orders, dtype=np.int64).reshape(-1, 1)
        ident2 = np.eye(self.sum_group.rank, dtype=np.int64) % mods2
        assert ((self.forward.matrix @ self.inverse.matrix) % mods2 == ident2).all()
        # D-equivariance of each component
        locmods = np.array(self.M_local.ab.orders, dtype=np.int64).reshape(-1, 1)
        for idx in range(self.ctx.e):
            for d_loc in self.ctx.Dgroup.elements():
                d_glob = int(self.Dembed[d_loc])
                lhs = (self.components[idx].matrix @ self.M.act[d_glob]) % locmods
                rhs = (self.M_local.act[d_loc] @ self.components[idx].matrix) % locmods
                assert (lhs == rhs).all(), f"varsigma component {idx} not equivariant"


def varsigma_decomposition(ctx: LocalizationContext, A: FinAbGroup) -> VarsigmaDecomposition:
    vs = VarsigmaDecomposition(ctx, A)
    vs.verify()
    return vs


# ---------------------------------------------------------------------------
# Stable subgroups of a module
# ---------------------------------------------------------------------------


def stable_span(M: GModule, vectors) -> ModSpan:
    """The smallest action-stable subgroup containing the given elements."""
    L = 1
    for o in M.ab.orders:
        L = lcm(L, o)
    rows = [np.asarray(v, dtype=np.int64) for v in vectors]
    rows.extend(np.diag(np.array(M.ab.orders, dtype=np.int64)))
    span = ModSpan(rows, L, n=M.ab.rank)
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
    L = 1
    for o in M.ab.orders:
        L = lcm(L, o)
    lattice = np.diag(np.array(M.ab.orders, dtype=np.int64))
    atoms = {}
    for x in M.ab.elements():
        span = stable_span(M, [np.array(x.coords, dtype=np.int64)])
        atoms[span.basis.tobytes() + bytes(str(span.basis.shape), "ascii")] = span
    found = dict(atoms)
    frontier = list(atoms.values())
    while frontier:
        s = frontier.pop()
        for a in list(atoms.values()):
            joined = ModSpan(np.concatenate([s.basis, a.basis, lattice]), L, n=M.ab.rank)
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
