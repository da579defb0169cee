"""Smith normal form and Howell-form span arithmetic against brute force."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomkit.intmat import (
    ModSpan,
    OverflowAbort,
    _clear_column,
    _sweep,
    diagonalize_mod,
    howell_form,
    kernel_uniform,
    smith_normal_form,
    solve_mod,
    xgcd,
)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, s, t = xgcd(a, b)
    assert g == s * a + t * b
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


@pytest.mark.parametrize(
    "A,diag",
    [
        ([[1, 0], [0, 1]], (1, 1)),
        ([[2, 4], [6, 8]], (2, 4)),
        ([[0, 0], [0, 0]], (0, 0)),
    ],
)
def test_snf_pinned(A, diag):
    s = smith_normal_form(A)
    assert s.diagonal == diag
    U, D, V = np.array(s.U), np.array(s.D), np.array(s.V)
    assert (U @ np.array(A) @ V == D).all()


def test_snf_gcd_and_det_relation():
    # d1 = gcd of entries, d1*d2 = |det| for the 2x2 example
    s = smith_normal_form([[2, 4], [6, 8]])
    d1, d2 = s.diagonal
    assert d1 == 2 == np.gcd.reduce([2, 4, 6, 8])
    assert d1 * d2 == abs(2 * 8 - 4 * 6)


def test_snf_random_roundtrip():
    rng = random.Random(0)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        s = smith_normal_form(A)
        U = np.array(s.U, dtype=object)
        V = np.array(s.V, dtype=object)
        D = np.array(s.D, dtype=object)
        assert (U @ np.array(A, dtype=object) @ V == D).all()
        nonzero = [d for d in s.diagonal if d]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0


def _brute_span(rows, L, n):
    S = {(0,) * n}
    changed = True
    while changed:
        changed = False
        for r in rows:
            for s in list(S):
                t = tuple((a + b) % L for a, b in zip(s, r))
                if t not in S:
                    S.add(t)
                    changed = True
    return S


def test_modspan_against_brute_force():
    rng = random.Random(1)
    for _ in range(250):
        L = rng.choice([2, 3, 4, 6, 8, 9, 12])
        n = rng.randint(1, 3)
        k = rng.randint(0, 3)
        rows = [[rng.randrange(L) for _ in range(n)] for _ in range(k)]
        span = ModSpan(rows, L, n=n, track=True)
        S = _brute_span(rows, L, n) if k else {(0,) * n}
        assert span.size() == len(S)
        vs = [[rng.randrange(L) for _ in range(n)] for _ in range(4)]
        for v in vs:
            assert span.contains(v) == (tuple(v) in S)
            c = span.solve(v)
            if tuple(v) in S:
                M = np.array(rows, dtype=np.int64).reshape(k, n)
                recon = (np.array(c) @ M) % L if k else np.zeros(n, int)
                assert (recon == np.array(v) % L).all()
            else:
                assert c is None
        # a batch solves as its rows do, and is refused when any row is outside
        members = [v for v in vs if tuple(v) in S]
        batch = span.solve(np.array(members, dtype=np.int64).reshape(len(members), n))
        assert np.array_equal(batch, np.array([span.solve(v) for v in members]).reshape(len(members), k))
        if len(members) < len(vs):
            assert span.solve(vs) is None


def test_modspan_reduce_is_canonical():
    span = ModSpan([[2, 0], [0, 2]], 4, n=2)
    # representatives of the same coset reduce identically
    assert (span.reduce([1, 3]) == span.reduce([3, 1])).all()
    assert (span.reduce([0, 0]) == 0).all()


@pytest.mark.parametrize("L", [2, 3, 4, 6, 8, 9, 12, 16, 27])
def test_kernel_uniform_matches_brute(L):
    rng = random.Random(L)
    for _ in range(60):
        m, s = rng.randint(0, 4), rng.randint(1, 3)
        A = np.array(
            [[rng.randrange(L) for _ in range(s)] for _ in range(m)], dtype=np.int64
        ).reshape(m, s)
        K = kernel_uniform(A, L)
        if K.size and m:
            assert ((A @ K.T) % L == 0).all()
        span_rows = np.concatenate([K, L * np.eye(s, dtype=np.int64)]) if K.size else L * np.eye(s, dtype=np.int64)
        span = ModSpan(span_rows, L, n=s)
        brute = sum(
            1
            for x in itertools.product(range(L), repeat=s)
            if m == 0 or ((A @ np.array(x)) % L == 0).all()
        )
        assert span.size() == brute


@st.composite
def _reordered_system(draw):
    """A system A, and A with its rows permuted plus zero and repeated rows."""
    L = draw(st.sampled_from([6, 12, 36, 128]))
    s = draw(st.integers(1, 5))
    m = draw(st.integers(0, 6))
    entry = st.integers(0, L - 1)
    rows = draw(st.lists(st.lists(entry, min_size=s, max_size=s), min_size=m, max_size=m))
    A = np.array(rows, dtype=np.int64).reshape(m, s)
    extra = [np.zeros((draw(st.integers(0, 2)), s), dtype=np.int64)]
    if m:
        picks = draw(st.lists(st.integers(0, m - 1), max_size=3))
        extra.append(A[picks] + L * draw(st.integers(0, 2)))  # repeats, some not reduced
    B = np.concatenate([A] + extra)
    B = B[draw(st.permutations(range(B.shape[0])))] if B.shape[0] else B
    return L, s, A, B


@given(_reordered_system())
@settings(max_examples=200, deadline=None)
def test_kernel_uniform_ignores_row_order_zeros_and_repeats(inst):
    # the kernel is a set of solutions, so its canonical basis cannot depend
    # on the order of the conditions, on zero rows or on repeated rows
    L, s, A, B = inst
    K, KB = kernel_uniform(A, L), kernel_uniform(B, L)
    assert np.array_equal(howell_form(K, L, n=s), howell_form(KB, L, n=s))
    assert not ((B % L) @ KB.T % L).any()


def test_kernel_and_solve_pinned():
    assert sorted(map(tuple, kernel_uniform(np.array([[2]]), 4).tolist())) == [(2,)]
    x = solve_mod(np.array([[2]]), [2], 4)
    assert x is not None and (2 * x[0]) % 4 == 2
    assert solve_mod(np.array([[2]]), [1], 4) is None


@st.composite
def _span_instance(draw):
    L = draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12]))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    rows = draw(
        st.lists(st.lists(st.integers(0, L - 1), min_size=n, max_size=n), min_size=k, max_size=k)
    )
    return L, n, np.array(rows, dtype=np.int64)


@given(_span_instance())
@settings(max_examples=120, deadline=None)
def test_span_members_reduce_to_zero(inst):
    L, n, rows = inst
    span = ModSpan(rows, L, n=n, track=True)
    # any combination of the generators is contained and solvable
    coeffs = rows.sum(axis=0) * 0 + 1
    member = rows.sum(axis=0) % L
    assert span.contains(member)
    sol = span.solve(member)
    assert ((sol @ rows) % L == member).all()
    # the canonical representative of a member is zero
    assert not span.reduce(member).any()


@given(_span_instance(), st.lists(st.integers(0, 20), min_size=4, max_size=4))
@settings(max_examples=120, deadline=None)
def test_reduce_is_constant_on_cosets(inst, shift_coeffs):
    L, n, rows = inst
    span = ModSpan(rows, L, n=n)
    v = np.arange(n, dtype=np.int64) % L
    shift = sum(c * r for c, r in zip(shift_coeffs, rows)) % L
    assert (span.reduce(v) == span.reduce((v + shift) % L)).all()


@given(_span_instance(), st.integers(0, 6), st.booleans(), st.integers(0, 1 << 30))
@settings(max_examples=120, deadline=None)
def test_batch_reduce_matches_one_row_at_a_time(inst, count, track, seed):
    L, n, rows = inst
    span = ModSpan(rows, L, n=n, track=track)
    V = np.random.default_rng(seed).integers(-3 * L, 3 * L, size=(count, n))
    got = span.reduce(V)
    assert got.shape == (count, n)
    for v, r in zip(V, got):
        assert np.array_equal(r, span.reduce(v))


@pytest.mark.parametrize("L", [3**20, 2**40 + 15])
def test_moduli_beyond_int64_are_refused(L):
    with pytest.raises(OverflowAbort, match=str(L)):
        kernel_uniform([[L - 1, 1]], L)
    with pytest.raises(OverflowAbort, match=str(L)):
        ModSpan([[L - 1, 1]], L)


@pytest.mark.parametrize("L", [2**31 - 1, 2**31])
def test_largest_accepted_moduli_stay_exact(L):
    K = kernel_uniform([[L - 1, 1]], L)
    assert all(((L - 1) * a + b) % L == 0 for a, b in K.tolist())
    assert ModSpan(K, L, n=2).contains([1, 1])


@st.composite
def _remixed_generators(draw):
    """Generators, and the same span from a unimodular remix plus a redundant row."""
    L = draw(st.sampled_from([4, 6, 8, 12, 18, 30, 36, 128]))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    entry = st.integers(0, L - 1)
    rows = np.array(
        draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k)), dtype=np.int64
    )
    upper = np.array(
        draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k)), dtype=np.int64
    )
    perm = draw(st.permutations(range(k)))
    unimodular = (np.eye(k, dtype=np.int64) + np.triu(upper, 1))[list(perm)]
    extra = np.array(draw(st.lists(entry, min_size=k, max_size=k)), dtype=np.int64)
    remixed = np.concatenate([unimodular @ rows, (extra @ rows)[None]]) % L
    return L, n, rows, remixed


@given(_remixed_generators())
@settings(max_examples=200, deadline=None)
def test_basis_is_canonical(inst):
    L, n, rows, remixed = inst
    assert np.array_equal(ModSpan(rows, L, n=n).basis, ModSpan(remixed, L, n=n).basis)


@st.composite
def _relation_matrix(draw):
    L = draw(st.sampled_from([2, 4, 6, 8, 12, 30, 36]))
    p = draw(st.integers(1, 4))
    r = draw(st.integers(0, 4))
    entry = st.integers(0, L - 1)
    R = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=p, max_size=p))
    return L, np.array(R, dtype=np.int64).reshape(p, r)


@given(_relation_matrix())
@settings(max_examples=200, deadline=None)
def test_diagonalize_mod_matches_smith_over_z(inst):
    # (Z/L)^p / colspan(R) is Z^p / colspan([R | L*I]), whose invariant
    # factors the pure-Python Smith normal form gives
    L, R = inst
    p = R.shape[0]
    diag, U = diagonalize_mod(R, L)
    ours = diag + [L] * (p - len(diag))
    assert all(L % d == 0 for d in ours)
    assert all(b % a == 0 for a, b in zip(ours, ours[1:]))
    stacked = [list(row) + [L * (i == j) for j in range(p)] for i, row in enumerate(R.tolist())]
    assert ours == list(smith_normal_form(stacked).diagonal)
    # U is invertible mod L and maps every relation into the diagonal,
    # so c -> (U @ c mod d_i) presents the quotient
    assert ModSpan(U, L, n=p).size() == L**p
    UR = U.astype(object) @ R.astype(object)
    assert all(UR[i, j] % ours[i] == 0 for i in range(p) for j in range(R.shape[1]))


def _sweep_column_by_column(W, count, ncols, L):
    """The sweep with one column step for every column, zero or not."""
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        d = _clear_column(W, top, count, col, L)
        if not d:
            continue
        pivots.append(col)
        if d > 1:
            ann = W[top, col:] * (L // d) % L
            if ann.any():
                W[count, col:] = ann
                count += 1
    return pivots, count


@pytest.mark.parametrize("track", [False, True], ids=["plain", "tracked"])
@pytest.mark.parametrize("L", [12, 36, 60, 128])
def test_sweep_skipping_zero_columns_matches_the_column_by_column_sweep(L, track):
    """Columns in runs of zeros (up to 60 long, past every scan window) and
    repeats of earlier columns, which clear to zero once swept; the skipping
    sweep leaves the same workspace, pivots and row count."""
    rng = np.random.default_rng(L + track)
    for _ in range(40):
        m = int(rng.integers(1, 12))
        cols = []
        while len(cols) < int(rng.integers(1, 120)):
            kind = rng.integers(3)
            if kind == 0:
                cols += [np.zeros(m, dtype=np.int64)] * int(rng.integers(1, 61))
            elif kind == 1 and cols:
                cols.append(cols[int(rng.integers(len(cols)))] * int(rng.integers(1, L)) % L)
            else:
                scale = int(rng.choice([d for d in range(1, L + 1) if L % d == 0]))
                cols.append(rng.integers(0, L, size=m) * scale % L)
        rows = np.stack(cols, axis=1)
        n = rows.shape[1]
        cap = m + min(n, m * L.bit_length())
        W = np.zeros((cap, n + m if track else n), dtype=np.int64)
        W[:m, :n] = rows
        if track:
            W[np.arange(m), n + np.arange(m)] = 1
        want = W.copy()
        assert _sweep(W, m, n, L) == _sweep_column_by_column(want, m, n, L)
        assert np.array_equal(W, want)
