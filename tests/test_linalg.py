import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prismlab import linalg
from prismlab.field import FieldElement, FieldSpec
from prismlab.linalg import Matrix, eval_poly, null_basis, poly_deflate

from conftest import FOUR_FIELDS, count_calls, random_element
from ref import charpoly_by_elements, charpoly_by_identity_products, rref_by_columns


def test_identity_and_mul(q3s):
    I = Matrix.identity(q3s, 3)
    A = Matrix(q3s, [[1, 2, 0], [0, 1, 5], [7, 0, 1]])
    assert A * I == A
    assert I * A == A


@pytest.mark.parametrize("n", [1, 2, 4])
def test_is_identity(q3s, n):
    I = Matrix.identity(q3s, n)
    assert I.is_identity()
    # built from fresh elements, not the shared zero and one
    assert Matrix(q3s, [[int(i == j) for j in range(n)] for i in range(n)]).is_identity()
    for i in range(n):
        for j in range(n):
            for x in (0, 2, q3s.pi()) if i == j else (1, q3s.pi()):
                rows = [list(r) for r in I.rows]
                rows[i][j] = x
                assert not Matrix(q3s, rows).is_identity()


def test_is_identity_refuses_a_non_square_matrix(q3s):
    assert not Matrix(q3s, [[1, 0, 0], [0, 1, 0]]).is_identity()
    assert not Matrix(q3s, [[1, 0], [0, 1], [0, 0]]).is_identity()
    assert not Matrix(q3s, [[1, 0]]).is_identity()


def test_rref_and_rank(q3s):
    A = Matrix(q3s, [[1, 2], [2, 4]])
    assert A.rank() == 1
    B = Matrix(q3s, [[q3s.pi(), 1], [0, 1]])
    assert B.rank() == 2


def test_kernel_basis(q3s):
    A = Matrix(q3s, [[1, 2], [2, 4]])
    ker = A.kernel_basis()
    assert len(ker) == 1
    v = ker[0]
    assert all(x.is_zero() for x in A.apply(v))


def test_kernel_of_invertible_is_trivial(q3s, rng):
    for _ in range(20):
        A = Matrix(q3s, [[random_element(rng, q3s) for _ in range(3)] for _ in range(3)])
        ker = A.kernel_basis()
        assert len(ker) == 3 - A.rank()
        for v in ker:
            assert all(x.is_zero() for x in A.apply(v))


def test_charpoly_diagonal(q3s):
    A = Matrix(q3s, [[1, 0], [0, 2]])
    # (x - 1)(x - 2) = x^2 - 3x + 2
    cp = A.charpoly()
    assert cp[0] == q3s.from_rational(2)
    assert cp[1] == q3s.from_rational(-3)
    assert cp[2] == q3s.one()


def test_charpoly_companion_sqrt3(q3s):
    A = Matrix(q3s, [[0, 3], [1, 0]])
    cp = A.charpoly()
    # x^2 - 3, with roots +-pi
    assert cp[0] == q3s.from_rational(-3)
    assert cp[1].is_zero()
    assert eval_poly(cp, q3s.pi()).is_zero()
    assert eval_poly(cp, -q3s.pi()).is_zero()


def test_poly_deflate(q3s):
    A = Matrix(q3s, [[0, 3], [1, 0]])
    cp = A.charpoly()
    q = poly_deflate(cp, q3s.pi())
    assert eval_poly(q, -q3s.pi()).is_zero()
    assert q[-1] == q3s.one()


def test_column_pivots(q3s):
    A = Matrix(q3s, [[0, 0], [1, 0]])
    # column space is spanned by e_2 (index 1)
    assert A.column_pivots() == [1]


def test_scale_and_fraction(q3s):
    A = Matrix(q3s, [[2, 0], [0, 2]])
    assert A.scale(Fraction(1, 2)) == Matrix.identity(q3s, 2)


def test_trace_and_charpoly_refuse_non_square(q3):
    A = Matrix(q3, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="trace of a 2x3"):
        A.trace()
    with pytest.raises(ValueError, match="charpoly of a 2x3"):
        A.charpoly()


def test_reduce_rows_example(q3):
    A = Matrix(q3, [[0, 0, 0], [1, 2, 0], [2, 4, 0], [0, 1, 3]])
    R, pivots, independent = A.reduce_rows()
    assert pivots == [0, 1] and independent == [1, 3]
    assert R == rref_by_columns(A)[0][:2]
    assert null_basis(q3, 3, R, pivots) == A.kernel_basis()


def rank_deficient(rng, spec, nrows, ncols, rank):
    """A random nrows x ncols matrix of rank at most rank: a product of
    random nrows x rank and rank x ncols factors with sparse entries, so
    zero rows, repeated rows and zero columns occur."""
    def entry():
        return random_element(rng, spec, 4) if rng.random() < 0.6 else 0
    B = Matrix(spec, [[entry() for _ in range(rank)] for _ in range(nrows)])
    C = Matrix(spec, [[entry() for _ in range(ncols)] for _ in range(rank)])
    return B * C if rank else Matrix.zero(spec, nrows, ncols)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10 ** 6), field=st.integers(0, 3), nrows=st.integers(1, 7),
       ncols=st.integers(1, 7), rank=st.integers(0, 7))
def test_reduce_rows_matches_two_eliminations(seed, field, nrows, ncols, rank):
    """One pass over the rows against the column-order elimination of the
    matrix (its rref, rank and kernel) and of its transpose (the
    column-space pivots)."""
    spec = FOUR_FIELDS[field]
    A = rank_deficient(random.Random(seed), spec, nrows, ncols, min(rank, nrows, ncols))
    R, pivots, independent = A.reduce_rows()
    full, ref_pivots = rref_by_columns(A)
    assert pivots == ref_pivots and A.rank() == len(ref_pivots)
    assert R == full[:len(pivots)]
    rref_matrix, rref_pivots = A.rref()
    assert rref_pivots == ref_pivots and [list(r) for r in rref_matrix.rows] == full
    transposed = Matrix(spec, list(zip(*A.rows)))
    assert independent == rref_by_columns(transposed)[1] == A.column_pivots()
    kernel = null_basis(spec, ncols, full, ref_pivots)
    assert null_basis(spec, ncols, R, pivots) == A.kernel_basis() == kernel


@st.composite
def square_matrices(draw):
    spec = draw(st.sampled_from(FOUR_FIELDS))
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    zero_frac = draw(st.sampled_from([0, 0.3, 0.7]))
    return Matrix(spec, [[0 if rng.random() < zero_frac else random_element(rng, spec, 5)
                          for _ in range(n)] for _ in range(n)])


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_charpoly_matches_identity_product_loop(A):
    assert A.charpoly() == charpoly_by_identity_products(A)


def test_charpoly_builds_no_identity_or_scale(q3s, monkeypatch):
    """Operation counts: the diagonal shift is added in place."""
    rng = random.Random(5)
    A = Matrix(q3s, [[random_element(rng, q3s) for _ in range(4)] for _ in range(4)])
    calls = count_calls(monkeypatch, [(Matrix, "identity"), (Matrix, "scale")])
    A.charpoly()
    assert calls == {"identity": 0, "scale": 0}


# the benchmark's four fields, the quintic u^5 + 3u^4 - 6u^2 + 3u + 12 and
# u^3 + 3u^2 + 3, all over Q_3 but Q_2(sqrt 2)
CHARPOLY_FIELDS = FOUR_FIELDS + (FieldSpec(3, [12, 3, -6, 0, 3, 1]), FieldSpec(3, [3, 0, 3, 1]))
huge_numerators = st.integers(-9, 9) | st.integers(-2 ** 200, 2 ** 200)


@st.composite
def integer_kernel_matrices(draw):
    """Square matrices of size 1-6 with numerators up to 2^200 over p-power
    and coprime denominators, some rows and columns zero, entries with
    nonzero higher coordinates."""
    spec = draw(st.sampled_from(CHARPOLY_FIELDS))
    n = draw(st.integers(1, 6))
    p = spec.p
    dens = st.sampled_from([1, p, p ** 4, p ** 40, 5 if p != 5 else 7, 7 * p ** 2, 2 ** 61 - 1])
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    coord = st.builds(Fraction, huge_numerators, dens)

    def entry(r, c):
        if r in zero_rows or c in zero_cols:
            return 0
        return spec.element(draw(st.lists(coord, min_size=spec.e, max_size=spec.e)))
    return Matrix(spec, [[entry(r, c) for c in range(n)] for r in range(n)])


@settings(max_examples=120, deadline=None)
@given(integer_kernel_matrices())
def test_charpoly_stores_what_the_element_loop_stores(A):
    got, want = A.charpoly(), charpoly_by_elements(A)
    assert [(c._num, c._den) for c in got] == [(c._num, c._den) for c in want]
    assert got[-1] is A.spec.one()


def test_charpoly_makes_no_field_arithmetic(cubic3, monkeypatch):
    """Operation counts: a 4 x 4 charpoly over the cubic runs on integer
    numerators and builds one element per coefficient below the leading 1."""
    rng = random.Random(11)
    A = Matrix(cubic3, [[random_element(rng, cubic3) for _ in range(4)] for _ in range(4)])
    want = charpoly_by_elements(A)
    names = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__")
    calls = count_calls(monkeypatch, [(FieldElement, name) for name in names]
                        + [(linalg, "_make")])
    assert A.charpoly() == want
    assert calls == dict.fromkeys(names, 0) | {"_make": 4}


@st.composite
def small_charpoly_matrices(draw):
    """Square matrices of size 1-4 over the benchmark fields, entries zero
    or with coordinates over p-divisible and coprime denominators."""
    spec = draw(st.sampled_from(FOUR_FIELDS))
    n = draw(st.integers(1, 4))
    p = spec.p
    coord = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, p, p ** 3, 7 * p, 7]))
    entry = st.just(0) | st.lists(coord, min_size=spec.e, max_size=spec.e).map(spec.element)
    return Matrix(spec, draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                      min_size=n, max_size=n)))


@settings(max_examples=150, deadline=None)
@given(small_charpoly_matrices())
def test_charpoly_numerators_over_their_scale_are_the_charpoly(A):
    scale, f = A.charpoly_numerators()
    assert type(scale) is int and scale > 0 and len(f) == A.nrows + 1
    assert all(len(x) == A.spec.e and all(type(c) is int for c in x) for x in f)
    assert [A.spec.element([Fraction(c, scale) for c in x]) for x in f] == charpoly_by_elements(A)


def test_charpoly_numerators_scale_is_den_to_the_n(q3s):
    """f_j = d_j * den^j over den^n, d_j the coefficients of the charpoly
    of den * A: at size 1 that is -den * A over den."""
    assert Matrix(q3s, [[q3s.element([Fraction(2, 3), Fraction(-1, 9)])]]).charpoly_numerators() \
        == (9, [(-6, 1), (9, 0)])
    # den = 2: den * A = [[1, 2], [0, 3]] has charpoly x^2 - 4x + 3
    A = Matrix(q3s, [[Fraction(1, 2), 1], [0, Fraction(3, 2)]])
    assert A.charpoly_numerators() == (4, [(3, 0), (-8, 0), (4, 0)])
