"""Exact integer matrix routines: one Howell-form sweep over Z/L, and Smith normal form over Z.

All subgroup arithmetic in finite abelian groups runs on one elimination
engine, a column sweep over Z/L (``_sweep``).  In each column the pivot is
the row whose entry has the smallest gcd with L.  When L is composite and
that entry does not divide another entry of the column, a 2x2 xgcd step
folds that row into the pivot, at most Omega(L) times per column.  The pivot
row is scaled by a unit to an entry d | L, the other rows are cleared in one
vectorized update, and the annihilator row (L/d)*r joins the rows still to
be swept.  The result is a Howell form: unlike a Hermite form it is closed
under the annihilator rows, which makes membership and kernels exact over
Z/L for any L.

``ModSpan`` (spans, membership, coordinates, solving, left kernels),
``howell_form``, ``solve_mod`` and ``kernel_uniform`` all run on the sweep;
``diagonalize_mod`` applies its column step to rows and columns to present
quotients of (Z/L)^p.

The sweep works column by column, and a dense pivot row fills in every row
it clears.  ``kernel_uniform`` therefore hands its conditions to the sweep
sparse first: reduced mod L, without zero or repeated rows, in increasing
order of nonzero count.  That is exact because the solution set of a system
of conditions does not depend on their order or on repeats.  Only the
generators returned change; their span, and so its Howell form, does not.

Arithmetic is int64 mod L.  No intermediate value of the sweep exceeds
2(L-1)^2 in absolute value, and ``matmul_mod`` reduces before a sum could
pass 2^63, so every modulus with 2(L-1)^2 >= 2^63, that is L > 2^31, is
refused with ``OverflowAbort`` rather than allowed to wrap.

``smith_normal_form`` (over Z, with pure-Python integers) is kept as the
reference the tests compare against and as a public export.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and g = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class OverflowAbort(ArithmeticError):
    """Raised when a fixed-width fast path would exceed its safe range."""


# ---------------------------------------------------------------------------
# Smith normal form over Z (pure Python, arbitrary precision)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular, D diagonal, d1 | d2 | ..."""

    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        m = len(self.D)
        n = len(self.D[0]) if m else 0
        return tuple(self.D[i][i] for i in range(min(m, n)))


def _det_unimodular(M: list[list[int]]) -> int:
    # fraction-free Bareiss; exact for the small square matrices we feed it
    n = len(M)
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1] if n else 1


def smith_normal_form(A) -> SmithDecomposition:
    """Smith normal form of an integer matrix (list of rows or ndarray)."""
    M = [[int(x) for x in row] for row in A]
    m = len(M)
    n = len(M[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        Mi, Mj = M[i], M[j]
        Ui, Uj = U[i], U[j]
        for c in range(n):
            Mi[c] -= q * Mj[c]
        for c in range(m):
            Ui[c] -= q * Uj[c]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            M[r][i] -= q * M[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(m):
            M[r][i], M[r][j] = M[r][j], M[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while True:
        # find pivot: smallest nonzero |entry| in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = M[i][j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        swap_rows(t, i0)
        swap_cols(t, j0)
        if M[t][t] < 0:
            negate_row(t)
        # clear row and column t
        dirty = False
        for i in range(t + 1, m):
            if M[i][t]:
                q = M[i][t] // M[t][t]
                row_op(i, t, q)
                if M[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if M[t][j]:
                q = M[t][j] // M[t][t]
                col_op(j, t, q)
                if M[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by M[t][t]
        d = M[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if M[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # pull offending row up, redo pivot
            continue
        t += 1

    # divisibility chain on the diagonal is guaranteed by construction
    diag = [M[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        if not (b == 0 or (a != 0 and b % a == 0)):
            raise AssertionError(f"diagonal is not a divisibility chain: {diag}")
    if abs(_det_unimodular(U)) != 1 or abs(_det_unimodular(V)) != 1:
        raise AssertionError("Smith transforms are not unimodular")
    return SmithDecomposition(
        U=tuple(tuple(r) for r in U),
        D=tuple(tuple(r) for r in M),
        V=tuple(tuple(r) for r in V),
    )


# ---------------------------------------------------------------------------
# Howell form over Z/L: one column sweep
# ---------------------------------------------------------------------------

_INT64_MAX = (1 << 63) - 1


def _check_modulus(L: int) -> int:
    """L as an int, refused when int64 arithmetic mod L could wrap."""
    L = int(L)
    if L < 1:
        raise ValueError(f"modulus must be >= 1, got {L}")
    if 2 * (L - 1) ** 2 > _INT64_MAX:
        raise OverflowAbort(f"modulus {L} is too large for int64 arithmetic: 2(L-1)^2 >= 2^63")
    return L


def _unit_lifting(a: int, L: int) -> int:
    """A unit u mod L with u*a % L == gcd(a, L)."""
    a %= L
    if a == 0:
        return 1
    g = gcd(a, L)
    a1 = a // g
    L1 = L // g
    _, s, _ = xgcd(a1, L1)
    u = s % L
    # adjust u by multiples of L1 until it is a unit mod L
    while gcd(u, L) != 1:
        u = (u + L1) % L
    if (u * a) % L != g:
        raise AssertionError(f"unit {u} does not lift {a} to gcd {g} mod {L}")
    return u


def _clear_column(W: np.ndarray, top: int, stop: int, col: int, L: int) -> int:
    """Reduce column ``col`` of rows top..stop-1 of W to a single entry in row ``top``.

    The rows must be zero left of ``col``.  Only invertible row operations are
    used, so W may carry a transform in its later columns.  The pivot is the
    row whose entry has the smallest gcd with L, scaled by a unit to d | L.  A
    row whose entry d does not divide is folded into the pivot by a 2x2 xgcd
    step, which replaces d by a proper divisor, so there are at most Omega(L)
    folds.  Returns d, or 0 when the column is already zero.
    """
    rows = top + W[top:stop, col].nonzero()[0]
    if rows.size == 0:
        return 0
    r = int(rows[np.argmin(np.gcd(W[rows, col], L))]) if rows.size > 1 else int(rows[0])
    others = rows[rows != r]
    if r != top:
        W[[top, r]] = W[[r, top]]
        if others.size and others[0] == top:  # the old top row now sits at r
            others[0] = r
    W[top, col:] = W[top, col:] * _unit_lifting(int(W[top, col]), L) % L
    d = int(W[top, col])
    while others.size:
        bad = np.flatnonzero(W[others, col] % d)
        if not bad.size:
            q = W[others, col] // d
            block = W[others, col:]
            block -= q[:, None] * W[top, col:]
            block %= L
            W[others, col:] = block
            break
        o = int(others[bad[0]])
        b = int(W[o, col])
        g, s, t = xgcd(d, b)
        piv, row = W[top, col:].copy(), W[o, col:].copy()
        W[top, col:] = (s % L * piv + t % L * row) % L
        W[o, col:] = ((-(b // g)) % L * piv + (d // g) * row) % L
        d = g
        others = others[others != o]
    return d


def _sweep(W: np.ndarray, count: int, ncols: int, L: int) -> tuple[list[int], int]:
    """Howell sweep, in place, of rows 0..count-1 of W over its first ncols columns.

    Afterwards rows 0..k-1 are the pivot rows, in increasing pivot column, and
    rows k..count-1 are zero in the first ncols columns.  Each pivot row r
    with entry d > 1 adds its annihilator row (L/d)*r below, which makes the
    pivot rows a Howell basis: the members of the span that vanish left of a
    column are spanned by the rows whose pivot lies at or right of it.
    Returns the pivot columns and the final row count.
    """
    pivots: list[int] = []
    col = 0
    while col < ncols:
        top = len(pivots)
        d = _clear_column(W, top, count, col, L)
        if not d:
            col = _next_nonzero_column(W, top, count, col + 1, ncols)
            continue
        pivots.append(col)
        if d > 1:
            ann = W[top, col:] * (L // d) % L
            if ann.any():
                W[count, col:] = ann
                count += 1
        col += 1
    return pivots, count


def _next_nonzero_column(W: np.ndarray, top: int, stop: int, col: int, ncols: int) -> int:
    """The first column from ``col`` on that is nonzero on rows top..stop-1, or ncols.

    A zero column is a step of the sweep that changes nothing, so the sweep
    may jump over a run of them.  The scan reads windows that double from 8
    columns: at most twice the columns it skips, plus 8.
    """
    width = 8
    while col < ncols:
        hit = np.flatnonzero(W[top:stop, col : min(col + width, ncols)].any(axis=0))
        if hit.size:
            return col + int(hit[0])
        col += width
        width *= 2
    return ncols


class ModSpan:
    """Row span of integer vectors in (Z/L)^n, in Howell form.

    The generators are swept once (``_sweep``), in one workspace of
    preallocated rows.  That gives exact membership, canonical coset
    representatives (``reduce``), coordinates over the canonical basis
    (``coords``) and the size.  With ``track=True`` the sweep runs over the
    first n columns of [generators | I], which also gives members as
    combinations of the *original* generators (``solve``) and the left kernel
    of the generator matrix (``kernel``).  ``basis``, the canonical Howell
    basis with the entries above each pivot reduced mod the pivot, is formed
    the first time it is read.
    """

    def __init__(self, rows, L: int, n: int | None = None, track: bool = False):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1) if rows.size else rows.reshape(0, 0)
        if rows.ndim != 2:
            raise ValueError("generators must form a matrix")
        if rows.shape[0] == 0:
            if n is None:
                raise ValueError("empty generator list needs explicit width")
            rows = rows.reshape(0, n)
        elif n is not None and rows.shape[1] != n:
            raise ValueError(f"generator width {rows.shape[1]} != ambient width {n}")
        self.L = _check_modulus(L)
        m, self.n = rows.shape
        self.track = track
        # each pivot adds at most one row, and the factors L/d >= 2 of the
        # pivots multiply to the span's size, which divides L^m: at most
        # m*log2(L) pivots
        cap = m + min(self.n, m * self.L.bit_length())
        W = np.zeros((cap, self.n + m if track else self.n), dtype=np.int64)
        np.remainder(rows, self.L, out=W[:m, : self.n])
        if track:
            W[np.arange(m), self.n + np.arange(m)] = 1
        self._pivots, count = _sweep(W, m, self.n, self.L)
        self._rows = W[: len(self._pivots)]
        self._rest = W[len(self._pivots) : count]
        self._basis: np.ndarray | None = None

    @property
    def basis(self) -> np.ndarray:
        """Canonical Howell basis: the pivot rows, reduced above each pivot (read-only)."""
        if self._basis is None:
            B = self._rows[:, : self.n] % self.L
            for i, j in enumerate(self._pivots):
                q = B[:i, j] // B[i, j]
                if q.any():
                    B[:i] = (B[:i] - q[:, None] * B[i]) % self.L
            B.flags.writeable = False
            self._basis = B
        return self._basis

    def _eliminate(self, R: np.ndarray, v) -> tuple[np.ndarray, np.ndarray]:
        """(q, r) with r = [v | 0] - q @ R mod L and r zero or reduced at every pivot.

        ``v`` is one vector or a batch of them as rows; one vector runs as a
        batch of one.  The loop runs over the pivots, and each step updates
        at once the rows that are nonzero at its pivot.  A pivot row is zero
        left of its pivot.
        """
        v = np.asarray(v, dtype=np.int64)
        batch = v[None] if v.ndim == 1 else v
        rows = np.zeros((len(batch), R.shape[1]), dtype=np.int64)
        rows[:, : self.n] = batch % self.L
        q = np.zeros((len(batch), len(self._pivots)), dtype=np.int64)
        for i, j in enumerate(self._pivots):
            hit = np.flatnonzero(rows[:, j])
            if hit.size:
                q[hit, i] = rows[hit, j] // R[i, j]
                rows[hit, j:] = (rows[hit, j:] - q[hit, i, None] * R[i, j:]) % self.L
        return (q[0], rows[0]) if v.ndim == 1 else (q, rows)

    # -- queries -----------------------------------------------------------

    def reduce(self, v) -> np.ndarray:
        """Canonical coset representative of v modulo this span; of each row of a batch."""
        return self._eliminate(self._rows[:, : self.n], v)[1]

    def contains(self, v) -> bool:
        return not self.reduce(v).any()

    def coords(self, v):
        """Coefficients c with c @ basis == v mod L, or None when v is outside the span."""
        q, r = self._eliminate(self.basis, v)
        return None if r.any() else q

    def solve(self, v):
        """Coefficients c (over the original generators) with c @ gens = v; of
        each row of a batch.  None when v, or any row of the batch, is
        outside the span."""
        if not self.track:
            raise ValueError("span was built without coefficient tracking")
        _, rows = self._eliminate(self._rows, v)
        if rows[..., : self.n].any():
            return None
        return (-rows[..., self.n :]) % self.L

    def kernel(self) -> np.ndarray:
        """Rows generating {c : c @ gens == 0 mod L}."""
        if not self.track:
            raise ValueError("span was built without coefficient tracking")
        K = self._rest[:, self.n :]
        return K[K.any(axis=1)]

    def size(self) -> int:
        """Number of elements of the span inside (Z/L)^n."""
        total = 1
        for i, j in enumerate(self._pivots):
            total *= self.L // int(self._rows[i, j])
        return total


def howell_form(rows, L: int, n: int | None = None) -> np.ndarray:
    """Canonical Howell basis of the span of ``rows`` in (Z/L)^n."""
    return ModSpan(rows, L, n=n).basis


def solve_mod(A, b, L: int):
    """One solution x of A @ x == b (mod L), or None."""
    A = np.asarray(A, dtype=np.int64)
    span = ModSpan(A.T, L, n=A.shape[0], track=True)
    return span.solve(np.asarray(b, dtype=np.int64))


def kernel_uniform(A, L: int) -> np.ndarray:
    """Rows generating {x : A @ x == 0 mod L}; scales to thousands of rows.

    The left kernel of A^T, read off one tracked sweep; composite L is swept
    directly.  Each row of A is one column of that sweep, so the rows are
    taken sparse first: A is reduced mod L, zero and repeated rows are
    dropped, and the rest are stable-sorted by increasing nonzero count
    (a static form of Markowitz's fill-reducing order).  A zero row is no
    condition and a repeated row the same condition twice, and the set
    {x : A @ x == 0} does not depend on the order of the conditions, so the
    kernel is exactly the same subgroup; only its generators differ.
    """
    L = _check_modulus(L)
    A = np.asarray(A, dtype=np.int64) % L
    A = A[_sparse_first(A)]
    return ModSpan(A.T, L, n=A.shape[0], track=True).kernel()


def _sparse_first(A: np.ndarray) -> np.ndarray:
    """Indices of the nonzero rows of A, each row once (at its first position),
    stable-sorted by increasing nonzero count."""
    nnz = np.count_nonzero(A, axis=1)
    rows = np.flatnonzero(nnz)
    # Sorted by a hash of the row and then by position, equal rows are
    # adjacent unless a colliding row falls between them; each row is
    # compared exactly with its predecessor, so a collision can only keep a
    # repeat, never drop a row.  The hash is a dot product mod 2^64 with
    # splitmix64-scrambled column weights.
    z = np.arange(1, A.shape[1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    key = (A @ (z ^ (z >> np.uint64(31))).view(np.int64))[rows]
    order = np.lexsort((rows, key))
    rows, key = rows[order], key[order]
    cand = np.flatnonzero(key[1:] == key[:-1])
    repeat = cand[(A[rows[cand + 1]] == A[rows[cand]]).all(axis=1)] + 1
    rows = np.sort(np.delete(rows, repeat))
    return rows[np.argsort(nnz[rows], kind="stable")]


def matmul_mod(A, B, L: int) -> np.ndarray:
    """(A @ B) % L for entries in [0, L), reducing before an int64 sum could wrap."""
    L = _check_modulus(L)
    A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
    step = max(1, (_INT64_MAX - L) // max((L - 1) ** 2, 1))
    out = np.zeros(A.shape[:-1] + B.shape[1:], dtype=np.int64)
    for s in range(0, A.shape[-1], step):
        out = (out + A[..., s : s + step] @ B[s : s + step]) % L
    return out


def diagonalize_mod(R, L: int) -> tuple[list[int], np.ndarray]:
    """Diagonalize R (p x r) over Z/L: U @ R @ V == D mod L, U invertible.

    Runs the sweep's column step (``_clear_column``) on the rows and then the
    columns of the trailing block, with the pivot of smallest gcd with L,
    until the pivot's row and column are clear and it divides the rest of
    the block.  Returns (d, U): the nonzero diagonal d_1 | d_2 | ..., each a
    divisor of L, after which D is zero, and U.  V is not formed.
    """
    L = _check_modulus(L)
    R = np.asarray(R, dtype=np.int64)
    p, r = R.shape
    W = np.zeros((p, r + p), dtype=np.int64)  # [R | U]
    np.remainder(R, L, out=W[:, :r])
    W[np.arange(p), r + np.arange(p)] = 1
    cols = W[:, :r].T  # row operations here are column operations on R
    diag: list[int] = []
    for t in range(min(p, r)):
        while True:
            block = W[t:, t:r]
            i, j = np.nonzero(block)
            if not i.size:
                return diag, W[:, r:]
            j0 = t + int(j[np.argmin(np.gcd(block[i, j], L))])
            if j0 != t:
                W[:, [t, j0]] = W[:, [j0, t]]
            _clear_column(W, t, p, t, L)
            d = _clear_column(cols, t, r, t, L)
            if W[t + 1 :, t].any():  # a column swap or fold refilled column t
                continue
            bad = np.flatnonzero((W[t + 1 :, t + 1 : r] % d).any(axis=1))
            if not bad.size:
                break
            W[t] = (W[t] + W[t + 1 + bad[0]]) % L
        diag.append(d)
    return diag, W[:, r:]
