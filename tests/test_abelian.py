"""Groups-as-cyclic-products: homs, kernels, cokernels, pairings."""

import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohomkit.abelian import (
    AbHom,
    DualPairing,
    ExteriorSquare,
    FinAbGroup,
    Presentation,
    TensorProduct,
    all_coords,
    cokernel,
    image_size,
    invariant_factors,
    is_cyclic,
    kernel,
    cached_preimage,
    same_invariants,
    scaled_rows,
    solve_preimage,
    subgroup_order,
    subgroup_span,
    vanishing_products,
)
from cohomkit.intmat import ModSpan, OverflowAbort, kernel_uniform, matmul_mod

Z4 = FinAbGroup((4,))


def test_kernel_of_doubling_on_z4():
    K, incl = kernel(AbHom(Z4, Z4, [[2]]))
    assert K.cardinality == 2
    assert incl(K.element([1])).coords == (2,)  # the x2 embedding


def test_kernel_trivial_and_full():
    K0, incl0 = kernel(AbHom.zero(Z4, Z4))
    assert K0.cardinality == 4
    K1, _ = kernel(AbHom.identity(FinAbGroup((2, 2))))
    assert K1.cardinality == 1


def test_cokernel_of_diagonal_inclusion():
    C2 = FinAbGroup((2,))
    C24 = FinAbGroup((2, 2, 2, 2))
    j = AbHom(C2, C24, [[1], [1], [1], [1]])
    Q, proj = cokernel(j)
    assert same_invariants(Q, FinAbGroup((2, 2, 2)))
    assert proj.compose(j).is_zero
    assert image_size(proj) == Q.cardinality


def test_cokernel_surjective_and_zero():
    s = AbHom(FinAbGroup((4,)), FinAbGroup((2,)), [[1]])
    assert cokernel(s)[0].cardinality == 1
    Q0, p0 = cokernel(AbHom.zero(FinAbGroup((2,)), FinAbGroup((2, 2))))
    assert Q0.cardinality == 4 and image_size(p0) == 4


@pytest.mark.parametrize(
    "a,b,card",
    [((4,), (6,), 2), ((2,), (3,), 1), ((2, 2, 2), (2, 2, 2), 2**9)],
)
def test_tensor_cardinalities(a, b, card):
    assert TensorProduct(FinAbGroup(a), FinAbGroup(b)).group.cardinality == card


def test_tensor_bilinear_on_generators():
    A, B = FinAbGroup((4, 2)), FinAbGroup((6,))
    t = TensorProduct(A, B)
    for a1 in A.generators():
        for a2 in A.generators():
            for b in B.generators():
                lhs = t.pair(a1 + a2, b)
                rhs = t.pair(a1, b) + t.pair(a2, b)
                assert lhs == rhs


@pytest.mark.parametrize(
    "orders,card", [((2, 2, 2), 8), ((5,), 1), ((2, 4), 2)]
)
def test_exterior_square_cardinalities(orders, card):
    assert ExteriorSquare(FinAbGroup(orders)).group.cardinality == card


def test_exterior_alternating():
    A = FinAbGroup((2, 4))
    w = ExteriorSquare(A)
    for a in A.elements():
        assert w.wedge(a, a).is_zero
        for b in A.elements():
            assert (w.wedge(a, b) + w.wedge(b, a)).is_zero


def test_dual_pairing_perfect_small_groups():
    # every abelian group of order <= 64, as unordered factor tuples
    seen = set()
    tuples = [()]
    for _ in range(3):
        tuples += [t + (o,) for t in tuples for o in (2, 3, 4, 5, 7, 8, 9) if _prod(t) * o <= 64]
    for t in tuples:
        key = tuple(sorted(t))
        if key in seen:
            continue
        seen.add(key)
        A = FinAbGroup(key)
        d = DualPairing(A)
        for chi in d.group.elements():
            if all(d.pairing(chi, a) == 0 for a in A.elements()):
                assert chi.is_zero


def _prod(t):
    out = 1
    for x in t:
        out *= x
    return out


def test_dual_nondegenerate_z6():
    A = FinAbGroup((6,))
    d = DualPairing(A)
    killers = [chi for chi in d.group.elements() if all(d.pairing(chi, a) == 0 for a in A.elements())]
    assert killers == [d.group.zero()]


def test_solve_preimage():
    h = AbHom(Z4, Z4, [[2]])
    s = solve_preimage(h, Z4.element([2]))
    assert s is not None and h(s).coords == (2,)
    assert solve_preimage(h, Z4.element([1])) is None
    assert solve_preimage(AbHom.identity(Z4), Z4.element([3])).coords == (3,)


def test_cached_preimage():
    h = AbHom(Z4, Z4, [[2]])
    lift = cached_preimage(h)
    pre = lift([2])
    assert h(Z4.element(pre)).coords == (2,)
    assert lift((2,)) is pre  # solved once, then cached
    with pytest.raises(ValueError, match="not in the image"):
        lift([1])


def test_kernel_image_product_exhaustive():
    rng = random.Random(7)
    for _ in range(120):
        src = FinAbGroup(tuple(rng.choice([1, 2, 3, 4, 6]) for _ in range(rng.randint(1, 3))))
        tgt = FinAbGroup(tuple(rng.choice([1, 2, 3, 4, 6]) for _ in range(rng.randint(1, 3))))
        assert src.cardinality <= 256
        M = np.zeros((tgt.rank, src.rank), dtype=np.int64)
        for i, m in enumerate(tgt.orders):
            for j, n in enumerate(src.orders):
                g = m // np.gcd(m, n)
                M[i, j] = g * rng.randrange(0, np.gcd(m, n))
        h = AbHom(src, tgt, M)
        K, incl = kernel(h)
        assert K.cardinality * image_size(h) == src.cardinality
        # incl is injective and h . incl = 0
        assert h.compose(incl).is_zero
        assert image_size(incl) == K.cardinality


def test_hom_additivity_random_sampling():
    rng = random.Random(9)
    src, tgt = FinAbGroup((4, 6)), FinAbGroup((2, 12))
    h = AbHom(src, tgt, [[1, 0], [3, 2]])
    for _ in range(50):
        a, b = src.random_element(rng), src.random_element(rng)
        assert h(a + b) == h(a) + h(b)


@pytest.mark.parametrize("orders,coords", [((2,), [1, 1]), ((2, 3), [1, 1, 5]), ((2, 3), [1]), ((), [0])])
def test_element_refuses_a_coordinate_count_other_than_the_rank(orders, coords):
    with pytest.raises(ValueError, match=r"coordinates .* do not fit orders"):
        FinAbGroup(orders).element(coords)


@pytest.mark.parametrize("coords", [[1.7, 2], [1.0, 2], np.array([1.0, 2.0]), [1, "2"], [1, None]])
def test_element_refuses_a_coordinate_that_is_not_an_integer(coords):
    with pytest.raises(ValueError, match="not all integers"):
        FinAbGroup((2, 3)).element(coords)


def test_element_takes_integer_coordinates_of_any_integer_type():
    G = FinAbGroup((2, 3))
    for coords in ([3, -1], np.array([3, -1]), (np.int32(3), np.int64(-1)), [True, 2]):
        assert G.element(coords).coords == (1, int(coords[1]) % 3)


def test_hom_rejects_ill_defined_matrix():
    with pytest.raises(ValueError):
        AbHom(FinAbGroup((2,)), FinAbGroup((4,)), [[1]])  # 2*1 != 0 mod 4


def test_hom_well_definedness_without_products_at_2_40():
    # every endomorphism of a cyclic group is one; m * n would wrap in int64
    n = 2**40 + 15
    A = FinAbGroup((n,))
    h = AbHom(A, A, [[2**39 + 1]])
    assert int(h.matrix[0, 0]) == 2**39 + 1
    # well-definedness agrees with the Python-int rule m_i | M_ij * n_j
    orders = (n, 2 * n, 4)
    for i, j in itertools.product(range(3), repeat=2):
        for entry in (1, 2, n, 2**39 + 1, 2 * n - 1):
            src, tgt = FinAbGroup((orders[j],)), FinAbGroup((orders[i],))
            if (entry * orders[j]) % orders[i] == 0:
                assert int(AbHom(src, tgt, [[entry]]).matrix[0, 0]) == entry % orders[i]
            else:
                with pytest.raises(ValueError):
                    AbHom(src, tgt, [[entry]])
    # products of residues near 2^40 do not fit int64: refused, not wrapped
    for call in (lambda: h.apply_coords(np.array([n - 1])), lambda: h.compose(h), lambda: h(A.element([3]))):
        with pytest.raises(OverflowAbort, match=str(n)):
            call()


def test_hom_apply_and_compose_exact_at_2_31_minus_1():
    n = 2**31 - 1
    rng = random.Random(11)
    A = FinAbGroup((n, n))
    for _ in range(20):
        m1 = [[rng.randrange(n) for _ in range(2)] for _ in range(2)]
        m2 = [[rng.randrange(n) for _ in range(2)] for _ in range(2)]
        x = [rng.randrange(n) for _ in range(2)]
        h1, h2 = AbHom(A, A, m1), AbHom(A, A, m2)
        want = [sum(m1[i][j] * x[j] for j in range(2)) % n for i in range(2)]
        assert h1.apply_coords(np.array(x, dtype=np.int64)).tolist() == want
        want_c = [[sum(m1[i][k] * m2[k][j] for k in range(2)) % n for j in range(2)] for i in range(2)]
        assert h1.compose(h2).matrix.tolist() == want_c
    # one step up, two summands of 2^31 * 2^31 no longer fit in int64
    src, tgt = FinAbGroup((2**31 + 1, 3)), FinAbGroup((2**31 + 1,))
    with pytest.raises(OverflowAbort, match=str(2**31 + 1)):
        AbHom(src, tgt, [[1, 0]]).apply_coords(np.ones(2, dtype=np.int64))


def test_invariant_factors_and_comparisons():
    assert invariant_factors(FinAbGroup((2, 3))) == [6]
    assert invariant_factors(FinAbGroup((2, 4, 8, 3, 9, 5))) == [360, 12, 2]
    assert is_cyclic(FinAbGroup((2, 3))) and not is_cyclic(FinAbGroup((2, 2)))
    assert same_invariants(FinAbGroup((6,)), FinAbGroup((2, 3)))
    assert not same_invariants(FinAbGroup((8,)), FinAbGroup((2, 4)))


def test_invariant_factors_of_a_large_prime_order_take_no_scan_over_the_order():
    start = time.perf_counter()
    assert invariant_factors(FinAbGroup((2**31 - 1,))) == [2**31 - 1]
    assert invariant_factors(FinAbGroup((2**31 - 1, 6, 4))) == [12 * (2**31 - 1), 2]
    assert time.perf_counter() - start < 1


def test_presentation_roundtrip_random():
    rng = random.Random(3)
    for _ in range(80):
        orders = tuple(rng.choice([2, 3, 4]) for _ in range(rng.randint(1, 3)))
        n = len(orders)
        sg = [[rng.randrange(8) for _ in range(n)] for _ in range(rng.randint(0, 3))]
        tg = []
        pres = Presentation(orders, sg, tg)
        for cls in pres.group.elements():
            v = pres.rep(cls)
            assert pres.class_coords([v]).tolist() == [list(cls.coords)]


def test_presentation_quotient_sizes():
    # (Z/4)^2 / <(2,0)> has order 8
    pres = Presentation((4, 4), np.eye(2, dtype=np.int64), [[2, 0]])
    assert pres.group.cardinality == 8
    assert pres.is_zero_class([2, 0]) and not pres.is_zero_class([0, 2])


@pytest.mark.parametrize(
    "orders, s_gens, t_gens",
    [
        ((4,), [[2]], [[1]]),
        ((2, 4), [[1, 1]], [[1, 0]]),
        ((2, 4), [[1, 1]], [[0, 2], [0, 1]]),  # the first row lies in S, the second does not
        ((6, 4), [[3, 0], [0, 2]], [[2, 0]]),
    ],
)
def test_presentation_rejects_a_denominator_outside_the_numerator(orders, s_gens, t_gens):
    with pytest.raises(ValueError, match="denominator subgroup is not contained in numerator"):
        Presentation(orders, s_gens, t_gens)


@pytest.mark.parametrize(
    "orders, s_gens, t_gens",
    [
        ((4, 4), np.eye(2, dtype=np.int64), [[2, 0]]),
        ((2, 4), np.eye(2, dtype=np.int64), [[1, 2]]),
        ((2, 4, 8), [[1, 1, 1], [0, 2, 4]], [[0, 2, 4]]),
        ((3, 6), [[1, 1]], []),
    ],
)
def test_presentation_reads_a_swept_denominator_as_its_generators(orders, s_gens, t_gens):
    span = subgroup_span(orders, t_gens, track=True)
    given_span, given_rows = Presentation(orders, s_gens, span), Presentation(orders, s_gens, t_gens)
    assert given_span.t_span is span
    assert given_span.group == given_rows.group
    for cls in given_rows.group.elements():
        v = given_rows.rep(cls)
        assert np.array_equal(given_span.rep(cls), v)
        assert given_span.class_coords([v]).tolist() == [list(cls.coords)]


def _reference_rep(pres, cls):
    """The lift of a class by its own solve of U c = y, through a tracked
    span of the columns of U."""
    y = np.zeros(len(pres._diag), dtype=np.int64)
    y[pres._keep] = cls.coords
    c = ModSpan(pres._U.T, pres.L, n=len(pres._diag), track=True).solve(y)
    return matmul_mod(c, pres.s_span.basis, pres.L) % np.array(pres.ambient_orders, dtype=np.int64)


def _presentation_cases():
    yield (), [], []  # ambient rank 0
    yield (4, 6), [[1, 1]], [[1, 1]]  # T = S: a trivial quotient
    yield (2, 4), [], []  # S = 0
    rng = random.Random(27)
    for _ in range(120):
        orders = tuple(rng.choice([1, 2, 3, 4, 6, 8, 9, 12]) for _ in range(rng.randint(0, 3)))
        s_gens = [[rng.randrange(24) for _ in orders] for _ in range(rng.randint(0, 3))]
        t_gens = [[k * x for x in row] for row in s_gens for k in [rng.randrange(4)] * rng.randint(0, 1)]
        yield orders, s_gens, s_gens if rng.random() < 0.1 else t_gens


def test_presentation_converts_in_batches_as_one_solve_per_class_would():
    for orders, s_gens, t_gens in _presentation_cases():
        pres = Presentation(orders, s_gens, t_gens)
        classes = list(pres.group.elements())
        reps = np.array([pres.rep(cls) for cls in classes], dtype=np.int64).reshape(len(classes), len(orders))
        for cls, v in zip(classes, reps):
            assert v.tobytes() == _reference_rep(pres, cls).tobytes(), (orders, s_gens, t_gens, cls)
        coords = pres.class_coords(reps)
        assert coords.dtype == np.int64
        assert coords.tolist() == [list(cls.coords) for cls in classes]
        # members of S that are not lifts: sums of multiples of its generators
        rng = random.Random(len(classes))
        gens = np.array(s_gens, dtype=np.int64).reshape(len(s_gens), len(orders))
        coeffs = np.array([[rng.randrange(12) for _ in gens] for _ in range(5)], dtype=np.int64).reshape(5, -1)
        members = coeffs @ gens % np.array(orders, dtype=np.int64)
        batch = pres.class_coords(members)
        assert batch.tolist() == [pres.class_coords(row[None])[0].tolist() for row in members]


def test_presentation_refuses_a_batch_with_a_row_outside_the_numerator():
    pres = Presentation((2, 4), [[0, 2]], [])
    assert pres.class_coords([[0, 2], [0, 0]]).tolist() == [[1], [0]]
    with pytest.raises(ValueError, match="not a member"):
        pres.class_coords([[0, 2], [0, 1]])
    with pytest.raises(ValueError, match="batch of rows"):
        pres.class_coords([0, 2])


def test_presentation_refuses_a_span_of_other_orders():
    # a span over Z/4 without the order-lattice row (2, 0) of (2, 4), and a span over Z/8
    with pytest.raises(ValueError, match="denominator span"):
        Presentation((2, 4), np.eye(2, dtype=np.int64), ModSpan([[0, 1]], 4, n=2))
    with pytest.raises(ValueError, match="denominator span"):
        Presentation((2, 4), np.eye(2, dtype=np.int64), subgroup_span((2, 8), [[0, 2]]))


def test_subgroup_span_leaves_out_lattice_rows_that_are_zero():
    # over (2, 4, 4) only the row 2 e_0 is nonzero mod 4: two rows, one lattice row
    span = subgroup_span((2, 4, 4), [[1, 1, 0], [0, 2, 2]], track=True)
    assert span.solve([1, 1, 0]).shape == (3,)
    assert subgroup_order(span, (2, 4, 4)) == 8
    # every order is the lcm: no lattice row at all, and no coefficient past the rows
    span = subgroup_span((128,) * 4, [[1, 2, 3, 4]], track=True)
    assert span.solve([2, 4, 6, 8]).tolist() == [2]
    assert subgroup_order(span, (128,) * 4) == 128


# -- the mixed-order rule -------------------------------------------------------

_MIXED_ORDERS = st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12]), min_size=1, max_size=3)


def _generated(rows, orders) -> np.ndarray:
    """The subgroup of prod Z/orders generated by rows, by closure under adding
    each row; its elements as sorted rows."""
    mods = np.array(orders, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(mods)) % mods
    members = np.zeros((1, len(mods)), dtype=np.int64)
    while True:
        sums = ((members[:, None] + rows) % mods).reshape(-1, len(mods))
        grown = np.unique(np.concatenate([members, sums]), axis=0)
        if len(grown) == len(members):
            return members
        members = grown


@st.composite
def _mixed_hom(draw):
    """(source orders, target orders, M): x -> M x is well defined from
    prod Z/source to prod Z/target; entries unreduced and of either sign."""
    src, tgt = tuple(draw(_MIXED_ORDERS)), tuple(draw(_MIXED_ORDERS))
    e = draw(st.lists(st.integers(-30, 30), min_size=len(src) * len(tgt), max_size=len(src) * len(tgt)))
    t = np.array(tgt, dtype=np.int64).reshape(-1, 1)
    sm = np.array(src, dtype=np.int64).reshape(1, -1)
    return src, tgt, np.array(e, dtype=np.int64).reshape(len(tgt), len(src)) * (t // np.gcd(t, sm))


@given(_mixed_hom())
@settings(max_examples=100, deadline=None)
def test_scaled_rows_kernel_is_the_solution_set(instance):
    src, tgt, M = instance
    L = math.lcm(*src, *tgt)
    K = kernel_uniform(scaled_rows(M, tgt, L), L)
    xs = all_coords(FinAbGroup(src))
    solutions = xs[~((xs @ M.T) % np.array(tgt)).any(axis=1)]
    assert np.array_equal(_generated(K, src), solutions)


@given(_MIXED_ORDERS, st.data())
@settings(max_examples=100, deadline=None)
def test_subgroup_order_counts_the_combinations(orders, data):
    m = data.draw(st.integers(0, 3))
    rows = np.array(
        data.draw(st.lists(st.integers(-30, 30), min_size=m * len(orders), max_size=m * len(orders))),
        dtype=np.int64,
    ).reshape(m, len(orders))
    G = FinAbGroup(tuple(orders))
    # c . rows for every c with c_k below the order of row k
    row_orders = tuple(G.element(r).order() for r in rows)
    combos = all_coords(FinAbGroup(row_orders)) @ rows % np.array(orders)
    assert subgroup_order(subgroup_span(orders, rows), orders) == len(np.unique(combos, axis=0))


# -- spans of vanishing products ----------------------------------------------


def pair_loop_vanishing_products(product, lam):
    """Reference: test every pair (a, b) of A x A."""
    A = product.factors[0]
    make = product.wedge if isinstance(product, ExteriorSquare) else product.pair
    rows = []
    for a in A.elements():
        for b in A.elements():
            w = make(a, b)
            if lam(w).is_zero:
                rows.append(w.coords)
    return np.array(rows, dtype=np.int64).reshape(len(rows), product.group.rank)


def span_basis(rows, C: FinAbGroup) -> np.ndarray:
    """Canonical Howell basis of the subgroup of C generated by rows."""
    return subgroup_span(C.orders, rows).basis


@st.composite
def _bilinear_instance(draw):
    orders = draw(st.sampled_from([(2, 4), (3, 9), (4, 2), (2, 2, 4), (6,), (4, 8)]))
    A = FinAbGroup(orders)
    product = draw(st.sampled_from([ExteriorSquare(A), TensorProduct(A, A)]))
    C = product.group
    T = FinAbGroup(tuple(draw(st.lists(st.sampled_from([2, 3, 4, 8, 9]), min_size=1, max_size=2))))
    entries = draw(st.lists(st.integers(0, 71), min_size=T.rank * C.rank, max_size=T.rank * C.rank))
    M = np.array(entries, dtype=np.int64).reshape(T.rank, C.rank)
    t = np.array(T.orders, dtype=np.int64).reshape(-1, 1)
    c = np.array(C.orders, dtype=np.int64).reshape(1, -1)
    # well defined: entry (k, p) is a multiple of t_k / gcd(t_k, c_p)
    return product, AbHom(C, T, M * (t // np.gcd(t, c)))


@given(_bilinear_instance())
@settings(max_examples=60, deadline=None)
def test_vanishing_products_span_equals_pair_loop(instance):
    product, lam = instance
    C = product.group
    got = vanishing_products(product, lam)
    assert not lam.apply_coords(got).any()  # every generator is a vanishing product
    want = pair_loop_vanishing_products(product, lam)
    assert (span_basis(got, C) == span_basis(want, C)).all()


def test_vanishing_products_rejects_foreign_map():
    A = FinAbGroup((2, 4))
    lam = AbHom(TensorProduct(A, A).group, FinAbGroup((2,)), np.zeros((1, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        vanishing_products(ExteriorSquare(A), lam)
