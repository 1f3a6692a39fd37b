from fractions import Fraction

import pytest

from prismlab.linalg import Matrix, eval_poly, poly_deflate

from conftest import random_element


def test_identity_and_mul(q3s):
    I = Matrix.identity(q3s, 3)
    A = Matrix(q3s, [[1, 2, 0], [0, 1, 5], [7, 0, 1]])
    assert A * I == A
    assert I * A == A


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
