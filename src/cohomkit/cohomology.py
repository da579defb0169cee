"""Cohomology groups of table groups, presented by Smith normal form.

Cocycles are parameterized by their generator slices.  A cochain u is a
cocycle exactly when D(x) = 0 for every x in a generating set X, where
D(a) = du(a, ., .) (du(a, .) in degree 1): d(du) = 0 at (x, b, g, w) gives
D(x b) = x.D(b) once D(x) = 0, so D(x) = x.D(e) forces D(e) = 0, and then D
vanishes on every word in X.  ``is_cocycle`` reads these conditions on the
cochain's own table.  The tree edges are among them: they determine a
cocycle from its values u(x, w), x in X, and the remaining conditions become
linear constraints on that slice vector; for large groups the constraints
are sampled and the resulting kernel is certified by checking every
generator-slot condition on the reconstructed tables, so the result is exact
regardless of the sample.

One pass, the certificate, forms every condition, and one loop runs it in
a gauge.  Every 2-cocycle u is cohomologous to one that vanishes at (x, g)
on every edge (x g, x, g) of the generator tree: walk the tree with c = 0 on
the roots X and set c(x g) = u(x, g) + x.c(g); then u + d(c) vanishes on the
tree edges.  So Z = (Z in the gauge) + B, and the gauge leaves free exactly
the slices u(x, g) of the pairs off the tree, the pairs whose conditions the
tree does not already impose.  In degree 1 every slice is free: there are
only |X| k of them.

The loop starts from the unit vectors of the free slices.  Its first pass
checks them on a sample of the off-tree pairs, drawn with a fixed seed, and
every later pass checks every pair.  A pass hands back each violated
condition evaluated on the current generators, and the kernel D over their
coefficients gives the next generators D @ gens.  This is exact: c @ gens
meets a condition exactly when c solves it, so the span of D @ gens is the
part of the span of gens that meets every condition checked so far.  When a
pass over every pair finds none violated, the generators span Z' = Z in the
gauge.  On H^2(F128, Z/128) the first pass solves 388 unknowns of 512, and
12 rows remain.

The first pass forms no table.  In the gauge every value is a sum along the
tree path of its element (the spanning-tree normalization of Holt, Eick and
O'Brien, Handbook of Computational Group Theory, ch. 7): a root x gives
u(x, w) = u(x, e w), and the edge f = x g gives u(f, w) = x.u(g, w) +
u(x, g w), its term -u(x, g) being a tree slot, 0 in the gauge.  So
u(f, w) = sum_t act(f F_t^-1) u(X[i_t], h_t w) over the path terms
(i_t, h_t) of f, formed one tree level at a time, where F_t = X[i_t] h_t is
the node of the path at depth t, and the condition at (x, g),
u(x g, w) - x.u(g, w) - u(x, g w) + u(x, g), is a signed sum of path
terms on each unit slice; on F128 that is 12 pairs against 388 tables of
128 x 128.  The later passes still check every pair on tables, and the
loop ends only on a pass that finds none violated, so the result is exact
whatever the first pass read: the last pass certifies the path formula
too.  That is why a build whose first pass was not sampled still runs
one pass over every pair.

Class arithmetic (equality, membership of coboundaries, witnesses) happens
in the gauge, on slice coordinates.  Since Z = Z' + B, H = Z'/B' with
B' = B in the gauge: the image under d of the |X| k 1-cochains that take
unit values on the roots X and are extended along the tree by
c(x g) = x.c(g) + c(x), the only 1-cochains whose coboundary vanishes on
the tree edges.  A class decision first moves its cocycle u into the gauge
by the walk above, t = 0 on the roots and t(x g) = u(x, g) + x.t(g), one
walk for a batch of cochains; the slices of u + d(t) are then
u(x, w) + x.t(w) - t(x w).  The span of B' is swept once per group, with
its coefficients tracked, the first time it is read: it solves for
coboundary witnesses, sum a_j c_j - t, and is the denominator of Z'/B'.
The presentation of Z'/B' is formed the first time it is read, so a build
whose group is never asked for, such as one that only tests cocycles,
forms neither.  The full B, n k rows in degree 2, is formed only where it
is read: ``b_rows``, ``z_rows`` = [B; Z'] and the enumeration of every
cocycle.  Degree 1 has no gauge, and there B' = B.

Every table is filled by one walk down the levels of the generator tree,
T(x g) = x.T(g) + edge(x, g), one step per level: the edge is the law's
other terms when slice vectors are expanded to cochain tables, T(x) when
root values are extended to the 1-cochains behind B', and u(x, g) when a
cochain u is moved into the gauge.  Degree 0 reads the same generating
set: m is fixed by G exactly when x.m = m for every x in X, |X| k
conditions.  The trivial group takes the same path with X = {e}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .abelian import (
    AbElement,
    AbHom,
    FinAbGroup,
    Presentation,
    cached_preimage,
    scaled_rows,
    span_elements,
    subgroup_order,
    subgroup_span,
)
from .cochain import Cochain, differential, zero_cochain
from .groups import GModule, generator_tree, minimal_generating_set
from .intmat import ModSpan, kernel_uniform as _kernel_uniform, matmul_mod

# entries of the (n, W, k, rows) tables that one block of a certificate forms
TABLE_BLOCK = 1 << 22


class BoundExceeded(RuntimeError):
    """A computation was rejected because it would exceed the work bound."""


@dataclass
class CohomologyClass:
    parent: "CohomologyGroup"
    coords: AbElement
    rep: Cochain

    def __eq__(self, other) -> bool:
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.parent is other.parent and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords.coords)

    @property
    def is_zero(self) -> bool:
        return self.coords.is_zero


class CohomologyGroup:
    """H^r(G, M) with explicit cocycle representatives and class decisions.

    Every group, the trivial one included with X = {e}, builds Z' and B'
    (``z_gauge`` and ``b_gauge``, Z and B in the tree gauge) from the
    generator slices; degree 0 solves x.m = m for x in X, and its B' is
    empty.  The presentation of Z'/B', and with it ``group``, is formed
    on first read.
    """

    def __init__(self, module: GModule, degree: int, work_bound: int = 1 << 26):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if degree > 2:
            raise ValueError("cohomology presentations are implemented for degrees 0..2")
        self.module = module
        self.degree = degree
        G = module.group
        self.n = G.size
        self.k = module.ab.rank
        self.L = module.ab.exponent
        self._orders = np.array(module.ab.orders, dtype=np.int64)
        # elements acting as the identity skip the matmul in _acted
        self._acts_trivially = (module.act == np.eye(self.k, dtype=np.int64)).all(axis=(1, 2))
        # over the trivial group X = {e}: e fixes M in degree 0, the law at
        # (e, e) forces u(e) = 0 in degree 1 and imposes nothing in degree 2,
        # where B^2 = M
        self.X = minimal_generating_set(G) or [0]
        if degree == 0:
            self._init_degree0()
            return
        self.W = self.n ** (degree - 1)
        self.s = len(self.X) * self.W * self.k
        entries = self.n * self.W * max(self.k, 1) * max(self.s, 1)
        if entries > work_bound:
            raise BoundExceeded(f"slice tableau of {entries} entries exceeds bound {work_bound}")
        # level d holds the edges (f, xi, g) with f = X[xi] g at depth d and g
        # at depth d - 1: the law at (X[xi], g) gives u(f, .), so a level is
        # filled in one step
        self._levels = generator_tree(G, self.X, self.X)
        if len(self.X) + sum(level.shape[1] for level in self._levels) != self.n:
            raise AssertionError("generating set does not reach every element")
        self._compute_coboundaries()
        self._compute_cocycles()

    # -- degree 0 ------------------------------------------------------------

    def _init_degree0(self):
        # fixed points: (x - 1) m = 0 for every x in X, one condition row per
        # (x, i); an element fixed by the generators is fixed by G
        A = (self.module.act[self.X] - np.eye(self.k, dtype=np.int64)).reshape(len(self.X) * self.k, self.k)
        self.z_gauge = _kernel_uniform(scaled_rows(A, self.module.ab.orders * len(self.X), self.L), self.L)
        self.b_gauge = np.zeros((0, self.k), dtype=np.int64)
        self.W = 1
        self.s = self.k

    # -- tree -----------------------------------------------------------------

    def _acted(self, T: np.ndarray, x, g) -> np.ndarray:
        """x.T(g) for batch-last tables T, shape (n, ..., k, b): the action of
        x on T[g], broadcast over the middle axes, not reduced.

        x (generators) and g (elements) broadcast together: scalars, index
        arrays, or ``slice(None)`` for g; the result broadcasts to their
        axes followed by the middle, k and b axes.
        """
        if self._acts_trivially[x].all():
            return T[g]
        act = self.module.act[x]
        act = act.reshape(act.shape[:-2] + (1,) * (T.ndim - 3) + act.shape[-2:])
        return np.matmul(act, T[g])

    def _law_terms(self, T: np.ndarray, x, g) -> np.ndarray:
        """The terms of the cocycle law's u(x g, .) other than x.u(g, .), on
        batch-last tables T, shape (n, W, k, b), not reduced: u(x) in degree
        1, u(x, g w) - u(x, g) in degree 2.  x and g as in ``_acted``."""
        if self.degree == 1:
            return T[x]
        out = T[np.asarray(x)[..., None], self.module.group.mul[g]]
        out -= T[x, g][..., None, :, :]  # broadcast over w
        return out

    def _walk(self, T: np.ndarray, edge) -> np.ndarray:
        """Fill batch-last tables T, shape (n, ..., k, b), given on the roots
        X, along the tree, one step per depth: T(x g) = x.T(g) + edge(T, x, g),
        reduced mod the orders."""
        X = np.asarray(self.X, dtype=np.int64)
        orders = self._orders[:, None]
        for fs, js, gs in self._levels:
            xs = X[js]
            T[fs] = (self._acted(T, xs, gs) + edge(T, xs, gs)) % orders
        return T

    def _gauge(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """(vecs, t) for batch-last r-cochain tables U, shape (n,)*r + (k, b).

        ``vecs`` (b, s) holds the slice coordinates of U + d(t), which
        vanish on the tree edges, and ``t`` the batch-last 1-cochain tables
        (n, k, b) of the walk t = 0 on the roots, t(x g) = U(x, g) + x.t(g).
        Degrees 0 and 1 have no gauge: t is None and vecs the slices of U.
        """
        b = U.shape[-1]
        if self.degree < 2:
            return U[self.X].reshape(self.s, b).T if self.degree else U.T, None
        t = self._walk(np.zeros((self.n, self.k, b), dtype=np.int64), lambda t, x, g: U[x, g])
        # u(x, w) + x.t(w) - t(x w), as t(x) = 0; each term the size of vecs
        X = np.asarray(self.X, dtype=np.int64)
        vecs = U[X]
        vecs += self._acted(t, X[:, None], slice(None))
        vecs -= t[self.module.group.mul[X]]
        vecs %= self._orders[:, None]
        return vecs.reshape(self.s, b).T, t

    def _defect(self, T: np.ndarray, x: int, g) -> np.ndarray:
        """u(x g, .) minus the law's right-hand side, reduced mod the orders:
        zero exactly where du(x, g, .) = 0.  ``T`` as in ``_law_terms``, and
        g an index array or ``slice(None)``."""
        diff = T[self.module.group.mul[x, g]]
        diff -= self._acted(T, x, g)
        diff -= self._law_terms(T, x, g)
        diff %= self._orders[:, None]
        return diff

    # -- cocycles ------------------------------------------------------------

    def _compute_cocycles(self):
        # the pairs (x, g) whose condition the tree does not already impose
        off_tree = np.ones((len(self.X), self.n), dtype=bool)
        for _, js, gs in self._levels:
            off_tree[js, gs] = False
        pairs = np.argwhere(off_tree)
        per_pair = self.W * self.k
        target_rows = max(3 * self.s, 64)
        if len(pairs) * per_pair > max(target_rows * 2, 4096):
            take = min(len(pairs), max(2, target_rows // max(per_pair, 1)))
            pairs = pairs[np.random.default_rng(0).permutation(len(pairs))[:take]]
        # The unknowns are the slices the gauge leaves free: in degree 2 those
        # of the off-tree pairs, in degree 1 all.  The first pass checks the
        # sampled pairs on the tree paths, every later one all pairs on the
        # tables, and each pass keeps the combinations of the generators that
        # meet the violated conditions.
        free = off_tree[:, :, None] if self.degree == 2 else True
        free = np.broadcast_to(free, (len(self.X), self.W, self.k))
        gens = np.eye(self.s, dtype=np.int64)[free.reshape(-1)]
        orders = np.array(self.ambient_orders, dtype=np.int64)
        bad, rows = self._path_conditions(pairs, free)
        for _ in range(12):
            gens = matmul_mod(_kernel_uniform(rows, self.L), gens, self.L) % orders
            gens = gens[gens.any(axis=1)]
            bad, rows = self._certificate(gens)
            if not bad:
                self.z_gauge = gens
                return
        raise BoundExceeded(
            f"cocycle sampling did not converge in 12 rounds ({len(bad)} of {off_tree.sum()} pairs still violated)"
        )

    def _paths(self) -> np.ndarray:
        """The path terms (xi, h) of every element, shape (n, depth + 1, 2),
        padded with -1: in the gauge u(f, w) = sum_t act(f F_t^-1) u(X[xi], h w)
        over the terms (xi, h) = paths[f, t], whose node F_t = X[xi] h is the
        element at depth t on the tree path of f; in degree 1
        u(f) = sum_t act(f F_t^-1) u(X[xi]).

        A root x is the term (x, e).  The edge f = x g adds (x, g) to the
        terms of g, acted on by x, since u(x g, w) = x.u(g, w) + u(x, g w) -
        u(x, g) and u(x, g) is a tree slot, 0 in the gauge; so the
        coefficient of a term is the action of the generators above its
        node.  One step per depth.
        """
        paths = np.full((self.n, len(self._levels) + 1, 2), -1, dtype=np.int64)
        paths[self.X, 0, 0] = np.arange(len(self.X))
        paths[self.X, 0, 1] = 0  # the identity
        for d, (fs, js, gs) in enumerate(self._levels, 1):
            paths[fs, :d] = paths[gs, :d]
            paths[fs, d, 0] = js
            paths[fs, d, 1] = gs
        return paths

    def _path_conditions(self, pairs: np.ndarray, free: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
        """The conditions of the listed pairs (x index, g) on the unit vectors
        of the ``free`` slices, a mask of shape (|X|, W, k) that holds no
        tree slot, read off the tree paths (``_paths``) with no table formed.

        Returns what ``_certificate(np.eye(s)[free.reshape(-1)])`` returns
        for these pairs: the pairs with a nonzero condition, in the order of
        ``pairs``, and their W * k rows each, scaled from Z/o_i to Z/L.  The
        defect u(x g, w) - x.u(g, w) - u(x, g w) + u(x, g) (degree 1:
        u(x g) - x.u(g) - u(x)) is a signed sum of path terms; each lands in
        the column of its free slice, or in a spare last column if not free.
        """
        width = int(free.sum())
        if width == 0 or len(pairs) == 0:
            return [], np.zeros((0, width), dtype=np.int64)
        col = np.full(free.shape, width, dtype=np.int64)
        col[free] = np.arange(width)
        paths = self._paths()
        G = self.module.group
        X = np.asarray(self.X, dtype=np.int64)
        js, gs = pairs[:, 0], pairs[:, 1]
        fs = G.mul[X[js], gs]
        # the terms of u(x g, .), - x.u(g, .) and - u(x, g .), then + u(x, g)
        slots = paths.shape[1]
        count = 2 * slots + self.degree
        terms = np.empty((len(pairs), count, 2), dtype=np.int64)
        terms[:, :slots] = paths[fs]
        terms[:, slots : 2 * slots] = paths[gs]
        terms[:, 2 * slots :] = pairs[:, None]
        # each term's node F lies on a path that ends at f = x g (x.u(g, .)
        # extends the path of g by x, and (x, g) is the node f itself), so its
        # coefficient is act(f F^-1), signed, and 0 on the padding
        nodes = G.mul[X[terms[:, :, 0]], terms[:, :, 1]]
        coef = self.module.act[G.mul[fs[:, None], G.inv[nodes]]]  # (pairs, terms, k, k)
        coef[terms[:, :, 0] < 0] = 0
        coef[:, slots : 2 * slots + 1] *= -1
        if self.degree == 2:
            elems = G.mul[terms[:, :, 1]]  # (pairs, terms, W): h w
            elems[:, -1] = gs[:, None]  # u(x, g) at every w
            cols = col[terms[:, :, :1], elems]  # (pairs, terms, W, k')
        else:
            cols = col[terms[:, :, 0], 0][:, :, None]
        # the flat index of (pair, w, i, column) in an output with the spare column
        index = np.arange(len(pairs) * self.W * self.k).reshape(len(pairs), 1, self.W, self.k, 1)
        index *= width + 1
        index = index + cols[:, :, :, None, :]
        out = np.zeros((len(pairs), self.W * self.k, width + 1), dtype=np.int64)
        np.add.at(out.reshape(-1), index, coef[:, :, None])
        del index, cols
        # scaled in place, so the only other array of this size is the copy
        # of the pairs hit
        scaled_rows(out, np.tile(self._orders, self.W), self.L, out=out)
        hit = out[:, :, :width].any(axis=(1, 2))
        return [tuple(p) for p in pairs[hit].tolist()], out[hit, :, :width].reshape(-1, width)

    def _certificate(self, kern: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
        """Exact certificate: re-check every generator-slot condition on every row.

        For each generator x, the defect u(x g, w) - (the law's right-hand
        side) is formed for every g, every w and every row at once on the
        batch-last tables and reduced mod the orders once.  Returns the
        pairs (x index, g) with a nonzero defect, generator-major, and,
        W * k rows per pair in the same order, their defects on the rows of
        ``kern``, each row scaled from Z/o_i to Z/L.  On the unit slice
        vectors (``kern`` the identity) these rows are the pairs'
        conditions on the slices, and on any ``kern`` they are those
        conditions times ``kern.T`` mod L.  The tables are formed for a
        block of rows of ``kern`` at a time, at most ``TABLE_BLOCK`` entries
        of (n, W, k, rows) each, in the fewest blocks, the largest as small
        as that number of blocks allows.
        """
        b = kern.shape[0]
        if kern.size == 0:
            return [], np.zeros((0, b), dtype=np.int64)
        per_pair = self.W * self.k
        step = max(1, TABLE_BLOCK // (self.n * per_pair))
        step = -(-b // -(-b // step))  # ceil(b / ceil(b / step))
        blocks = []  # (mask of the pairs hit, first row of kern, their defects on the block)
        for start in range(0, b, step):
            T = self._tables_from_slices(kern[start : start + step])  # (n, W, k, block)
            hit = np.zeros((len(self.X), self.n), dtype=bool)
            rows = []
            for xi, x in enumerate(self.X):
                diff = self._defect(T, x, slice(None))
                hit[xi] = diff.any(axis=(1, 2, 3))
                if hit[xi].any():
                    block = diff[hit[xi]].reshape(-1, T.shape[-1])
                    rows.append(scaled_rows(block, np.tile(self._orders, hit[xi].sum() * self.W), self.L))
            if rows:
                blocks.append((hit, start, np.concatenate(rows).reshape(-1, per_pair, T.shape[-1])))
            del T, diff  # free the block's tables before the next one is formed
        if not blocks:
            return [], np.zeros((0, b), dtype=np.int64)
        bad = np.logical_or.reduce([hit for hit, _, _ in blocks])
        out = np.zeros((bad.sum(), per_pair, b), dtype=np.int64)
        while blocks:  # popped, so each block is freed once it is copied
            hit, start, rows = blocks.pop()
            out[hit[bad], :, start : start + rows.shape[-1]] = rows
        return [(int(xi), int(g)) for xi, g in np.argwhere(bad)], out.reshape(-1, b)

    def _tables_from_slices(self, slices: np.ndarray) -> np.ndarray:
        """Full cochain tables of slice vectors, batch-last: shape (n, W, k, b).

        ``T[..., j]`` is the table of ``slices[j]``.  With the batch axis
        last, a gather over group elements copies contiguous blocks.  One
        step per depth of the tree.
        """
        b = slices.shape[0]
        T = np.zeros((self.n, self.W, self.k, b), dtype=np.int64)
        T[self.X] = slices.T.reshape(len(self.X), self.W, self.k, b) % self._orders[:, None]
        return self._walk(T, self._law_terms)

    # -- coboundaries ----------------------------------------------------------

    def _compute_coboundaries(self):
        # B' = B in the gauge: d of the (r-1)-cochains fixed by unit values on
        # the roots, in degree 2 extended along the tree by c(x g) = x.c(g) + c(x)
        if self.degree == 1:
            self.b_gauge = self._coboundary_rows(np.eye(self.k, dtype=np.int64))
            return
        units = self._extend(np.eye(len(self.X) * self.k, dtype=np.int64))
        self.b_gauge = self._coboundary_rows(np.moveaxis(units, -1, 0))

    def _extend(self, roots: np.ndarray) -> np.ndarray:
        """Batch-last 1-cochain tables (n, k, b) with the values ``roots``,
        shape (|X| k, b), on the roots X, extended along the tree by
        c(x g) = x.c(g) + c(x): d of each vanishes on the tree edges."""
        b = roots.shape[-1]
        T = np.zeros((self.n, self.k, b), dtype=np.int64)
        T[self.X] = roots.reshape(len(self.X), self.k, b)
        return self._walk(T, lambda T, x, g: T[x])

    def _coboundary_rows(self, tables: np.ndarray) -> np.ndarray:
        """Slice coordinates of d of each (r-1)-cochain table, one row each;
        an explicit row count, since -1 is ambiguous when k = 0."""
        rows = [self.slice_coords(differential(Cochain(self.module, self.degree - 1, e))) for e in tables]
        return np.array(rows, dtype=np.int64).reshape(len(tables), self.s)

    # -- public API ------------------------------------------------------------

    @cached_property
    def presentation(self) -> Presentation:
        """Z'/B' in gauge slice coordinates, formed the first time it is read."""
        return Presentation(self.ambient_orders, self.z_gauge, self._b_span)

    @cached_property
    def _b_span(self) -> ModSpan:
        """The B' span, swept once with its coefficients tracked: it solves
        for coboundary witnesses and is the denominator of the presentation."""
        return subgroup_span(self.ambient_orders, self.b_gauge, track=True)

    @property
    def group(self) -> FinAbGroup:
        return self.presentation.group

    @property
    def size(self) -> int:
        return self.group.cardinality

    @cached_property
    def z_rows(self) -> np.ndarray:
        """Generators of the cocycle subgroup, in slice coordinates: the rows
        of B, then those of Z'; formed the first time it is read."""
        return np.concatenate([self.b_rows, self.z_gauge])

    @cached_property
    def b_rows(self) -> np.ndarray:
        """Generators of the coboundary subgroup, in slice coordinates: d of
        each unit (r-1)-cochain, in the order of its table entries; formed
        the first time it is read.  Below degree 2 B' is B."""
        if self.degree < 2:
            return self.b_gauge
        size = self.n * self.k
        return self._coboundary_rows(np.eye(size, dtype=np.int64).reshape(size, self.n, self.k))

    @property
    def ambient_orders(self) -> tuple[int, ...]:
        return tuple(self.module.ab.orders) * (self.s // max(self.k, 1)) if self.k else ()

    def slice_coords(self, c: Cochain) -> np.ndarray:
        """Slice coordinate vector of a cochain table."""
        if self.degree == 0:
            return np.asarray(c.table, dtype=np.int64).reshape(self.s)
        return c.table.reshape(self.n, self.W * self.k)[self.X].reshape(self.s)

    def gauge_coords(self, cochains: list[Cochain]) -> np.ndarray:
        """Slice coordinates of each cochain moved into the gauge, one row
        each, in one walk: the coordinates ``presentation`` reads.  A cocycle
        lands in the span of ``z_gauge``, a coboundary in that of ``b_gauge``."""
        for c in cochains:
            self._check_cochain(c)
        if not cochains:
            return np.zeros((0, self.s), dtype=np.int64)
        return self._gauge(np.stack([c.table for c in cochains], axis=-1))[0]

    def _check_cochain(self, c: Cochain) -> None:
        """Refuse a cochain of another degree, group order, coefficient group
        or action; modules are compared by value."""
        M = c.module
        if M is self.module and c.degree == self.degree:
            return
        same = c.degree == self.degree and M.group.size == self.n and M.ab == self.module.ab
        if same and np.array_equal(M.act, self.module.act):
            return
        raise ValueError(
            f"a {c.degree}-cochain over a group of order {M.group.size} with coefficients"
            f" {M.ab.orders}{' and another action' if same else ''} is not a cochain of"
            f" H^{self.degree} over a group of order {self.n} with coefficients {self.module.ab.orders}"
        )

    def is_cocycle(self, c: Cochain) -> bool:
        """Exact check of the law on the cochain's own table at every
        generator slot (degree 1, 2); see the module docstring."""
        self._check_cochain(c)
        if self.degree == 0:  # x.m = m for every x in X, m a table on one element
            T = c.table.reshape(1, self.k, 1)
            return not ((self._acted(T, np.asarray(self.X), 0) - T[0]) % self._orders[:, None]).any()
        T = c.table.reshape(self.n, self.W, self.k, 1)
        return not any(self._defect(T, x, slice(None)).any() for x in self.X)

    def class_of(self, c: Cochain) -> CohomologyClass:
        if not self.is_cocycle(c):
            raise ValueError("not a cocycle")
        coords = self.group.element(self.presentation.class_coords(self.gauge_coords([c]))[0])
        return CohomologyClass(self, coords, c)

    def cochain(self, vec: np.ndarray) -> Cochain:
        """The cochain with slice coordinates `vec`, expanded by the cocycle law."""
        if self.degree == 0:
            return Cochain(self.module, self.degree, vec)
        return Cochain(self.module, self.degree, self._tables_from_slices(np.reshape(vec, (1, -1))))

    def rep(self, coords: AbElement) -> Cochain:
        return self.cochain(self.presentation.rep(coords))

    def classes(self, cap: int = 20000) -> list[CohomologyClass]:
        if self.size > cap:
            raise BoundExceeded(f"{self.size} classes exceed enumeration cap {cap}")
        out = []
        for coords in self.group.elements():
            out.append(CohomologyClass(self, coords, self.rep(coords)))
        return out

    def is_coboundary(self, c: Cochain) -> bool:
        if not self.is_cocycle(c):
            raise ValueError("not a cocycle")
        return self._b_span.contains(self.gauge_coords([c])[0])

    def cocycles(self, cap: int = 1 << 16) -> list[Cochain]:
        """Every cocycle, in lexicographic order of its slice coordinates."""
        if self.s == 0:
            return [zero_cochain(self.module, self.degree)]
        mods = self.ambient_orders
        span = subgroup_span(mods, self.z_rows)
        count = subgroup_order(span, mods)
        if count > cap:
            raise BoundExceeded(f"{count} cocycles exceed enumeration cap {cap}")
        return [self.cochain(vec) for vec in span_elements(span, mods)]

    def classes_equal(self, c1: Cochain, c2: Cochain) -> bool:
        self._check_cochain(c1)
        self._check_cochain(c2)
        return self.is_coboundary(Cochain(self.module, self.degree, c1.table - c2.table))

    def coboundary_witness(self, c: Cochain):
        """A cochain b with d(b) == c exactly, or None (also for a cochain
        that is not a cocycle)."""
        self._check_cochain(c)
        if self.degree == 0:
            return None
        vecs, t = self._gauge(c.table[..., None])
        sol = self._b_span.solve(vecs[0])
        if sol is None:
            return None
        a = np.asarray(sol[: len(self.b_gauge)], dtype=np.int64)  # coefficients of the rows of B'
        # degree 2: sum a_j c_j - t, sum a_j c_j being the extension of the root values a
        table = a if self.degree == 1 else (self._extend(a[:, None]) - t)[..., 0]
        witness = Cochain(self.module, self.degree - 1, table)
        if (differential(witness).table != c.table).any():
            if not self.is_cocycle(c):  # its slices lie in B' all the same
                return None
            raise AssertionError("coboundary witness mismatch")
        return witness


def cohomology(module: GModule, degree: int, work_bound: int = 1 << 26) -> CohomologyGroup:
    return CohomologyGroup(module, degree, work_bound=work_bound)


# ---------------------------------------------------------------------------
# Short exact sequences and connecting maps
# ---------------------------------------------------------------------------


@dataclass
class ShortExactSequence:
    sub: GModule
    mid: GModule
    quot: GModule
    incl: AbHom
    proj: AbHom

    def __post_init__(self):
        from .abelian import image_size, kernel

        if not (self.sub.group is self.mid.group is self.quot.group):
            raise ValueError("the three modules must share one group")
        mods_mid = np.array(self.mid.ab.orders, dtype=np.int64).reshape(-1, 1)
        mods_q = np.array(self.quot.ab.orders, dtype=np.int64).reshape(-1, 1)
        # every g at once: (n, rows, cols) stacks of action matrices
        if ((self.incl.matrix @ self.sub.act - self.mid.act @ self.incl.matrix) % mods_mid).any():
            raise ValueError("inclusion not equivariant")
        if ((self.proj.matrix @ self.mid.act - self.quot.act @ self.proj.matrix) % mods_q).any():
            raise ValueError("projection not equivariant")
        K, _ = kernel(self.incl)
        if K.cardinality != 1:
            raise ValueError("inclusion must be injective")
        if image_size(self.proj) != self.quot.ab.cardinality:
            raise ValueError("projection must be surjective")
        if not self.proj.compose(self.incl).is_zero:
            raise ValueError("composition must vanish")
        K2, _ = kernel(self.proj)
        if K2.cardinality != self.sub.ab.cardinality:
            raise ValueError("sequence not exact in the middle")


def connecting_cochain(ses: ShortExactSequence, c: Cochain) -> Cochain:
    """delta at the cochain level: lift, differentiate, pull back."""
    if not (c.module is ses.quot or c.module.ab == ses.quot.ab):
        raise ValueError("the cochain must take values in the quotient module")
    lift = cached_preimage(ses.proj)
    pull = cached_preimage(ses.incl)
    n = ses.mid.group.size
    r = c.degree
    flatq = c.table.reshape(-1, ses.quot.ab.rank)
    lifted = np.array([lift(v) for v in flatq], dtype=np.int64)
    b = Cochain(ses.mid, r, lifted.reshape((n,) * r + (ses.mid.ab.rank,)))
    db = differential(b)
    flatm = db.table.reshape(-1, ses.mid.ab.rank)
    pulled = np.array([pull(v) for v in flatm], dtype=np.int64)
    return Cochain(ses.sub, r + 1, pulled.reshape((n,) * (r + 1) + (ses.sub.ab.rank,)))


def connecting_map(
    ses: ShortExactSequence, r: int, Hq: CohomologyGroup | None = None, Hs: CohomologyGroup | None = None
):
    """The connecting homomorphism H^r(G, quot) -> H^{r+1}(G, sub) on classes."""
    Hq = Hq or cohomology(ses.quot, r)
    Hs = Hs or cohomology(ses.sub, r + 1)

    def delta(cls: CohomologyClass) -> CohomologyClass:
        return Hs.class_of(connecting_cochain(ses, cls.rep))

    return delta, Hq, Hs


# ---------------------------------------------------------------------------
# Independent oracle: cohomology of cyclic groups via norm and augmentation
# ---------------------------------------------------------------------------


def cyclic_cohomology_size(M: GModule, degree: int) -> int:
    """|H^r| for a cyclic table group, from fixed points, norms and kernels."""
    G = M.group
    generators = np.flatnonzero(G.orders == G.size)
    if not generators.size:
        raise ValueError("group is not cyclic")
    gen = int(generators[0])
    k = M.ab.rank
    eye = np.eye(k, dtype=np.int64)
    norm = M.act[G.powers[gen]].sum(axis=0)  # over gen^0 .. gen^(n-1)
    sigma_minus_1 = M.act[gen] - eye
    from .abelian import image_size, kernel

    mods = M.ab.orders
    h_norm = AbHom(M.ab, M.ab, norm)
    h_sig = AbHom(M.ab, M.ab, sigma_minus_1)
    if degree == 0:
        K, _ = kernel(h_sig)
        return K.cardinality
    if degree % 2 == 1:
        Kn, _ = kernel(h_norm)
        return Kn.cardinality // image_size(h_sig)
    Ks, _ = kernel(h_sig)
    return Ks.cardinality // image_size(h_norm)
