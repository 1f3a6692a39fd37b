"""The integer-coordinate field kernel and the zero-skipping matrix product,
each checked against a plain reference in ref.py.

The field reference works on tuples of Fractions with the schoolbook
multiply and the fold pi^e = -(c_0 + ... + c_{e-1} pi^(e-1)); the matrix
reference is the dense dot product over every index.
"""
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from prismlab.errors import InputFormatError, ZeroInversion
from prismlab.field import FieldSpec, _product_kernel, regular
from prismlab.linalg import Matrix, poly_deflate
from prismlab.serialize import parse_field

from conftest import random_element
from ref import product_by_dot_products, ref_add, ref_mul, ref_neg, ref_one

# the three fields of the acceptance suite, and a cubic with a middle term
SPECS = [FieldSpec(3, [-3, 1]), FieldSpec(3, [-3, 0, 1]), FieldSpec(2, [-2, 0, 1]),
         FieldSpec(3, [3, 3, 0, 1])]


def assert_canonical(x):
    """Stored form reduced, and coords Fractions in lowest terms."""
    assert x._den > 0 and gcd(x._den, *x._num) == 1
    assert len(x.coords) == x.spec.e
    for c in x.coords:
        assert type(c) is Fraction and gcd(c.numerator, c.denominator) == 1
    if x.is_zero():
        assert x._num == (0,) * x.spec.e and x._den == 1


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=36)


@st.composite
def spec_and_coords(draw, count=2):
    spec = draw(st.sampled_from(SPECS))
    vecs = [tuple(draw(st.lists(rationals, min_size=spec.e, max_size=spec.e)))
            for _ in range(count)]
    return spec, vecs


@settings(max_examples=150, deadline=None)
@given(spec_and_coords())
def test_ring_operations_match_reference(data):
    spec, (x, y) = data
    a, b = spec.element(x), spec.element(y)
    cases = [(a + b, ref_add(x, y)), (a - b, ref_add(x, ref_neg(y))),
             (-a, ref_neg(x)), (a * b, ref_mul(spec, x, y)),
             (a * 6, ref_mul(spec, x, (Fraction(6),) + (Fraction(0),) * (spec.e - 1))),
             (a * Fraction(-2, 9), tuple(c * Fraction(-2, 9) for c in x))]
    for got, want in cases:
        assert got.coords == want
        assert_canonical(got)


@settings(max_examples=100, deadline=None)
@given(spec_and_coords(count=1))
def test_invert_matches_reference(data):
    spec, (x,) = data
    a = spec.element(x)
    if not any(x):
        with pytest.raises(ZeroInversion):
            a.invert()
        return
    inv = a.invert()
    assert_canonical(inv)
    assert ref_mul(spec, x, inv.coords) == ref_one(spec)


@settings(max_examples=100, deadline=None)
@given(spec_and_coords(count=2))
def test_equality_and_hash_follow_the_value(data):
    spec, (x, y) = data
    a, b = spec.element(x), spec.element(y)
    # the same value reached along two routes: one stored form, one hash
    c = (a + b) - b
    assert c == a and hash(c) == hash(a)
    assert c._num == a._num and c._den == a._den
    assert (a == b) == (x == y)
    # a rational element equals the rational
    r = spec.from_rational(x[0])
    assert r == x[0] and r.coords[0] == x[0]


@settings(max_examples=50, deadline=None)
@given(spec_and_coords(count=1))
def test_zero_has_one_form(data):
    spec, (x,) = data
    a = spec.element(x)
    zeros = [a - a, a * 0, 0 * a, a + (-a), spec.from_rational(0),
             spec.element([Fraction(0, 7)] * spec.e), spec.zero() * a]
    for z in zeros:
        assert z.is_zero() and z == spec.zero() and hash(z) == hash(spec.zero())
        assert_canonical(z)


@st.composite
def eisenstein(draw):
    """A random monic Eisenstein E at p in {2, 3, 5, 7} of degree 1 to 6,
    its coefficients up to p * 2^100 in size and of either sign."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    e = draw(st.integers(1, 6))
    big = st.integers(-2 ** 100, 2 ** 100)
    unit = draw(big.filter(lambda k: k % p))
    return FieldSpec(p, [p * unit] + [p * draw(big) for _ in range(e - 1)] + [1])


@st.composite
def numerators(draw, spec):
    """An element of spec from integer numerators of both signs over one
    common denominator."""
    den = draw(st.integers(1, 10 ** 6))
    nums = draw(st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=spec.e, max_size=spec.e))
    return spec.element([Fraction(n, den) for n in nums])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_kernel_matches_reference(data):
    spec = data.draw(eisenstein())
    x, y = data.draw(numerators(spec)), data.draw(numerators(spec))
    prod = x * y
    assert prod.coords == ref_mul(spec, x.coords, y.coords)
    assert_canonical(prod)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_regular_columns_match_reference(data):
    """Column j of the regular representation is num * pi^j mod E."""
    spec = data.draw(eisenstein())
    num = data.draw(numerators(spec))._num
    e = spec.e
    pi = ((Fraction(-spec.ecoeffs[0]),) if e == 1
          else (Fraction(0), Fraction(1)) + (Fraction(0),) * (e - 2))
    cols, power = regular(spec, num), ref_one(spec)
    assert len(cols) == e
    for col in cols:
        assert col == ref_mul(spec, num, power)
        power = ref_mul(spec, power, pi)


def test_product_kernel_takes_a_coefficient_too_long_to_print():
    """E's constants are bound as names, not printed into the kernel's
    source, so a coefficient past the int-to-str digit limit still builds."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    p = 3
    c0 = p * (p * 10 ** (limit + 10) + 1)
    spec = FieldSpec(p, [c0, 0, 1])
    x, y = spec.element([1, Fraction(-2, 5)]), spec.element([Fraction(7, 3), 4])
    assert (x * y).coords == ref_mul(spec, x.coords, y.coords)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inverse_kernel_matches_reference(data):
    spec = data.draw(eisenstein())
    x = data.draw(numerators(spec).filter(lambda x: not x.is_zero()))
    inv = x.invert()
    assert ref_mul(spec, x.coords, inv.coords) == ref_one(spec)
    assert_canonical(inv)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_inverse_kernel_norm_matches_faddeev_leverrier(data):
    """The kernel's characteristic polynomial, from Newton's identities on
    traces, against Matrix.charpoly (Faddeev-LeVerrier) of the regular
    matrix of num over Q: d_e is its constant term det(-M) = (-1)^e N(num),
    and r = num^(e-1) + d_1 num^(e-2) + ... + d_(e-1)."""
    spec = data.draw(eisenstein())
    num = data.draw(numerators(spec).filter(lambda x: not x.is_zero()))._num
    r, c = spec._invnum(num)
    q = FieldSpec(spec.p, [-spec.p, 1])
    chi = Matrix(q, list(zip(*regular(spec, num)))).charpoly()
    assert c == chi[0] and c != 0
    want, power = [Fraction(0)] * spec.e, ref_one(spec)
    for coeff in chi[1:]:
        want = ref_add(want, tuple(coeff.rational_value() * w for w in power))
        power = ref_mul(spec, power, num)
    assert r == want


def test_inverse_kernel_takes_a_coefficient_too_long_to_print():
    """E's constants and its power traces are bound as names, not printed
    into the kernel's source, so a coefficient past the int-to-str digit
    limit still builds."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    p = 3
    c1 = p * (p * 10 ** (limit + 10) + 1)
    spec = FieldSpec(p, [p, c1, p, 1])
    x = spec.element([1, Fraction(-2, 5), 7])
    assert ref_mul(spec, x.coords, x.invert().coords) == ref_one(spec)


def test_product_kernel_is_compiled_once_per_polynomial():
    coeffs = [5 * 29, 5 * 31, 5 * 37, 1]
    before = _product_kernel.cache_info()
    first, second = FieldSpec(5, coeffs), FieldSpec(5, coeffs)
    assert first._mulnum is second._mulnum and first._invnum is second._invnum
    for _ in range(100):
        spec = parse_field({"p": 5, "E": coeffs})
        assert spec._mulnum is first._mulnum and spec._invnum is first._invnum
    after = _product_kernel.cache_info()
    assert after.misses - before.misses == 1
    assert after.hits - before.hits == 101


def test_coords_are_read_only(q3s):
    a = q3s.element([1, 2])
    with pytest.raises(AttributeError):
        a.coords = (Fraction(0), Fraction(0))


def test_coordinate_count_is_checked_without_assert(q3s):
    with pytest.raises(InputFormatError, match="^at most 2 coordinates expected$"):
        q3s.element([1, 2, 3])
    assert q3s.element(["1/2", 3]) == q3s.from_rational(Fraction(1, 2)) + 3 * q3s.pi()


def test_short_coordinate_lists_are_padded(q3s, cubic3):
    """spec.element fills the missing higher coordinates with 0."""
    assert q3s.element([1]) == q3s.one()
    assert cubic3.element(["1/3", 2]) == cubic3.from_rational(Fraction(1, 3)) + 2 * cubic3.pi()
    zero = cubic3.element([])
    assert_canonical(zero)
    assert zero == cubic3.zero()


def test_inverse_at_e_one_is_canonical(q3):
    """At e = 1 the compiled inverse is the only path: the sign of the
    norm moves to the numerator and the denominator stays positive."""
    x = q3.from_rational(Fraction(-2, 9)).invert()
    assert_canonical(x)
    assert x.coords == (Fraction(-9, 2),)


def test_zero_and_one_are_shared(q3s):
    assert q3s.zero() is q3s.zero() and q3s.one() is q3s.one()
    assert q3s.one().coords == (Fraction(1), Fraction(0))


# --- matrices ----------------------------------------------------------------

def random_matrix(rng, spec, nrows, ncols, zero_frac):
    return Matrix(spec, [[spec.zero() if rng.random() < zero_frac
                          else random_element(rng, spec, 5) for _ in range(ncols)]
                         for _ in range(nrows)])


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(SPECS), n=st.integers(1, 7), k=st.integers(1, 7),
       p=st.integers(1, 7), zero_frac=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
       seed=st.integers(0, 10 ** 6))
def test_sparse_product_matches_dense(spec, n, k, p, zero_frac, seed):
    rng = random.Random(seed)
    A = random_matrix(rng, spec, n, k, zero_frac)
    B = random_matrix(rng, spec, k, p, zero_frac)
    got = A * B
    assert (got.nrows, got.ncols) == (n, p)
    assert got == product_by_dot_products(A, B)
    for row in got.rows:
        for x in row:
            assert_canonical(x)


def test_block_triangular_product(rng, q3s):
    # strictly lower triangular times lower triangular, as in operator families
    n = 6
    L = Matrix(q3s, [[random_element(rng, q3s) if j < i else 0 for j in range(n)]
                     for i in range(n)])
    M = Matrix(q3s, [[random_element(rng, q3s) if j <= i else 0 for j in range(n)]
                     for i in range(n)])
    assert L * M == product_by_dot_products(L, M)
    assert M * L == product_by_dot_products(M, L)


def test_shape_errors_are_typed(q3s):
    with pytest.raises(ValueError):
        Matrix(q3s, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix(q3s, [[1, 2]]) * Matrix(q3s, [[1, 2]])
    with pytest.raises(ValueError):
        Matrix(q3s, [[1, 2]]) + Matrix(q3s, [[1], [2]])


def test_deflate_rejects_a_non_root(q3s):
    # x^2 - 3 has roots +-pi, and 1 is not one of them
    chi = [q3s.from_rational(-3), q3s.zero(), q3s.one()]
    assert poly_deflate(chi, q3s.pi()) == [q3s.pi(), q3s.one()]
    with pytest.raises(ValueError):
        poly_deflate(chi, q3s.one())
