"""The operator-family walks decided on packed integers.

PackedLevel.agrees is checked against PackedLevel.matrix() followed by ==,
PackedLevel.ev against _gauss_ev of PackedLevel.matrix(),
and the two walks of strat (_first_off_family and first_off_recurrence)
against their references in ref.py, which build every level by Matrix
products.
"""
import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from prismlab import strat
from prismlab.connops import _gauss_ev
from prismlab.field import FieldSpec
from prismlab.linalg import Matrix, falling_levels, falling_powers
from prismlab.strat import LogConnection

from conftest import FOUR_FIELDS, KERNEL_FIELDS, KERNEL_SCALARS, kernel_scalar, random_connection
from ref import first_off_family_by_matrices, first_off_recurrence_by_matrices


CHANGES = ("random", "seventh", "huge", "alias", "zero", "negate")


def changed(rows, spec, kind, j, c, t, rng, level=None):
    """rows, a list of row lists, with one change of the given kind at
    entry (j, c), coordinate t.

    seventh adds 1/7, which no den^k has as a factor; huge adds +-10^80,
    beyond every packing width here; alias, given the packed level that
    rows come from, adds 2^width / den^k at (j, c) and takes 1 / den^k from
    (j, c + 1), digits that pack to the integer of the unchanged pair."""
    n = len(rows)

    def plus(x, coord, value):
        cs = list(x.coords)
        cs[coord] += value
        return spec.element(cs)

    if kind == "random":
        rows[j][c] = spec.element([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 9]))
                                   for _ in range(spec.e)])
    elif kind == "seventh":
        rows[j][c] = plus(rows[j][c], t, Fraction(1, 7))
    elif kind == "huge":
        rows[j][c] = plus(rows[j][c], t, rng.choice([10 ** 80, -10 ** 80]))
    elif kind == "alias" and level is not None and c + 1 < n:
        dk = level.dk
        rows[j][c] = plus(rows[j][c], t, Fraction(2 ** level.packing.width, dk))
        rows[j][c + 1] = plus(rows[j][c + 1], t, Fraction(-1, dk))
    elif kind == "zero":
        rows[j][c] = spec.zero()
    elif kind == "negate":
        rows[j][c] = -rows[j][c]
    return rows


def family(field, l, m, choice, seed):
    """(spec, a, phi_1 = a * (T d/dT + N)) for a random connection N."""
    spec = FieldSpec(field[0], list(field[1]))
    a = kernel_scalar(spec, choice)
    conn = random_connection(random.Random(seed), spec, l, m)
    return spec, a, conn.operator(a)


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(KERNEL_FIELDS), l=st.integers(1, 3), m=st.integers(1, 3),
       choice=st.sampled_from(KERNEL_SCALARS), D=st.integers(2, 6),
       seed=st.integers(0, 10 ** 6), at=st.integers(0, 4),
       kinds=st.lists(st.sampled_from(CHANGES), max_size=3))
@example(field=KERNEL_FIELDS[1], l=1, m=2, choice="prism", D=3, seed=1, at=1,
         kinds=["alias"])
@example(field=KERNEL_FIELDS[4], l=1, m=3, choice="irrational", D=4, seed=2, at=0,
         kinds=["huge", "seventh"])
@example(field=KERNEL_FIELDS[0], l=2, m=2, choice=0, D=6, seed=4, at=3,
         kinds=["zero", "negate"])
def test_agrees_matches_matrix_equality(field, l, m, choice, D, seed, at, kinds):
    """PackedLevel.agrees(A) is level.matrix() == A, for A a level of a
    random family with up to three changes: non-integral over den^k,
    beyond the width, a carry alias, zero and negated entries."""
    spec, a, phi1 = family(field, l, m, choice, seed)
    n = phi1.nrows
    levels = list(falling_levels(phi1, a, D + 1))
    assert len(levels) == D - 1
    level = levels[at % len(levels)]
    rng = random.Random(seed)
    rows = [list(row) for row in level.matrix().rows]
    for kind in kinds:
        rows = changed(rows, spec, kind, rng.randrange(n), rng.randrange(n),
                       rng.randrange(spec.e), rng, level)
    A = Matrix(spec, rows)
    assert level.agrees(A) == (level.matrix() == A)
    assert level.agrees(level.matrix())


EV_SCALARS = ("prism", "log", Fraction(1, 9), "pi", 0, "irrational")


@settings(max_examples=80, deadline=None)
@given(spec=st.sampled_from(FOUR_FIELDS), l=st.integers(1, 3), m=st.integers(1, 3),
       choice=st.sampled_from(EV_SCALARS), D=st.integers(2, 7),
       seed=st.integers(0, 10 ** 6), trivial=st.booleans())
@example(spec=FOUR_FIELDS[0], l=1, m=2, choice=Fraction(1, 9), D=4, seed=0, trivial=True)
@example(spec=FOUR_FIELDS[1], l=2, m=2, choice=Fraction(1, 9), D=5, seed=3, trivial=False)
@example(spec=FOUR_FIELDS[3], l=1, m=2, choice="pi", D=6, seed=7, trivial=False)
@example(spec=FOUR_FIELDS[2], l=2, m=3, choice="pi", D=5, seed=8, trivial=True)
def test_ev_is_the_gauss_ev_of_the_matrix(spec, l, m, choice, D, seed, trivial):
    """PackedLevel.ev() is _gauss_ev(level.matrix()) at every level, None
    at a vanishing one: with a zero residual, phi_1 = a T d/dT has the
    weights 0, ..., m - 1, so P_k = 0 from k = m on."""
    a = spec.pi() if choice == "pi" else kernel_scalar(spec, choice)
    conn = (LogConnection.trivial(spec, l, m) if trivial
            else random_connection(random.Random(seed), spec, l, m))
    levels = list(falling_levels(conn.operator(a), a, D + 1))
    assert len(levels) == D - 1
    for k, level in enumerate(levels, 2):
        ev = level.ev()
        assert ev == _gauss_ev(level.matrix())
        if trivial:
            assert (ev is None) == (a.is_zero() or k >= m)


def test_ev_reads_a_denominator_divisible_by_p():
    """a = 1/9 over Q_3 puts 3 in den^k, and its e * v_p is taken off."""
    spec = FOUR_FIELDS[0]
    a = spec.from_rational(Fraction(1, 9))
    phi1 = Matrix(spec, [[a * Fraction(1, 2), 1], [0, a * Fraction(1, 4)]])
    for level in falling_levels(phi1, a, 6):
        assert level.dk % 3 == 0
        assert level.ev() == _gauss_ev(level.matrix()) < 0


def quadratic_level():
    """P_2 of a 2 x 2 family over Q_3(sqrt 3), its matrix and its width."""
    spec = FieldSpec(3, [-3, 0, 1])
    phi1 = Matrix(spec, [[spec.element([1, Fraction(1, 2)]), 3], [0, spec.element([-2, 1])]])
    level = next(falling_levels(phi1, spec.a_prism(), 3))
    return spec, level, [list(row) for row in level.matrix().rows]


def test_agrees_refuses_a_carry_alias():
    """+2^width at (0, 0) and -1 at (0, 1), as digits of den^k P_k, pack
    to the integer of P_k itself; the width check refuses them."""
    spec, level, rows = quadratic_level()
    dk, w = level.dk, level.packing.width
    rows[0][0] = rows[0][0] + Fraction(2 ** w, dk)
    rows[0][1] = rows[0][1] - Fraction(1, dk)
    A = Matrix(spec, rows)
    old = [int(x.coords[0] * dk) for x in level.matrix().rows[0]]
    new = [int(x.coords[0] * dk) for x in A.rows[0]]
    assert new == [old[0] + 2 ** w, old[1] - 1]
    assert new[0] + (new[1] << w) == old[0] + (old[1] << w)
    assert not level.agrees(A) and A != level.matrix()


def test_agrees_on_denominators_widths_and_zeros():
    """1/7 is not integral over den^k; 10^80 lies beyond the width; zero and
    negated entries are compared as any other."""
    spec, level, rows = quadratic_level()
    for value in (Fraction(1, 7), 10 ** 80, -10 ** 80):
        A = [list(row) for row in rows]
        A[1][0] = A[1][0] + value
        assert not level.agrees(Matrix(spec, A))
    for r, c in ((0, 0), (1, 1)):
        A = [list(row) for row in rows]
        A[r][c] = -A[r][c]
        assert level.agrees(Matrix(spec, A)) == (A[r][c] == rows[r][c])
        A[r][c] = spec.zero()
        assert level.agrees(Matrix(spec, A)) == rows[r][c].is_zero()
    assert not level.agrees(Matrix(FieldSpec(3, [-3, 1]), [[1, 0], [0, 1]]))
    assert not level.agrees(Matrix(spec, [[1]]))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(KERNEL_FIELDS), l=st.integers(1, 3), m=st.integers(1, 3),
       choice=st.sampled_from(KERNEL_SCALARS), D=st.integers(1, 6),
       seed=st.integers(0, 10 ** 6),
       moves=st.lists(st.tuples(st.integers(1, 6), st.sampled_from(CHANGES)), max_size=3),
       leibniz=st.booleans())
@example(field=KERNEL_FIELDS[1], l=1, m=2, choice="prism", D=3, seed=5,
         moves=[(3, "huge"), (3, "seventh")], leibniz=True)
@example(field=KERNEL_FIELDS[2], l=2, m=1, choice="log", D=4, seed=6,
         moves=[(2, "alias"), (4, "random")], leibniz=True)
def test_walks_match_their_matrix_references(field, l, m, choice, D, seed, moves, leibniz):
    """_first_off_family and first_off_recurrence give the answers of their
    references, which build every level, on genuine families and families
    with up to three levels changed. With leibniz drawn false, psi_1 is
    _t_linear of phi_1's generator columns with the twist a + 1, so that
    phi_1 is off psi_1 too, as it is when check_cocycle finds phi_1 off
    the Leibniz law."""
    spec, a, phi1 = family(field, l, m, choice, seed)
    n = phi1.nrows
    phi = list(falling_powers(phi1, a, D + 1))
    levels = [None, None] + list(falling_levels(phi1, a, D + 1))
    rng = random.Random(seed)
    for k, kind in moves:
        if k <= D:
            rows = changed([list(row) for row in phi[k].rows], spec, kind, rng.randrange(n),
                           rng.randrange(n), rng.randrange(spec.e), rng, levels[k])
            phi[k] = Matrix(spec, rows)
    psi1 = phi1 if leibniz else strat._t_linear(spec, l, [row[:l] for row in phi1.rows],
                                                 a + 1)
    assert strat._first_off_family(phi, psi1, a) == first_off_family_by_matrices(phi, psi1, a)
    assert strat.first_off_recurrence(phi, a) == first_off_recurrence_by_matrices(phi, a)


def test_walks_take_a_family_of_another_shape():
    """An operator of the wrong shape is off the recurrence, as == says."""
    spec = FieldSpec(3, [-3, 1])
    phi1 = Matrix(spec, [[1, 2], [0, 3]])
    phi = list(falling_powers(phi1, spec.one(), 4))
    phi[3] = Matrix(spec, [[1, 2, 3], [4, 5, 6]])
    assert strat.first_off_recurrence(phi, spec.one()) == 3
    assert first_off_recurrence_by_matrices(phi, spec.one()) == 3
    got = strat._first_off_family(phi, phi1, spec.one())
    assert got == first_off_family_by_matrices(phi, phi1, spec.one())
    assert list(falling_levels(phi1, spec.one(), 2)) == []
