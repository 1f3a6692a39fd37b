"""Stratification <-> log connection equivalence, cocycle and descent checks."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from prismlab.errors import LeibnizViolation, NotAStratification, PrismlabError, RingMismatch
from prismlab.linalg import Matrix
from prismlab.pdalg import PDElement
from prismlab.series import TruncSeries
from prismlab.strat import (Family, LogConnection, Stratification, check_cocycle,
                            check_leibniz, from_connection, operator_family, to_connection,
                            verify_key_lemma)

from conftest import (FOUR_FIELDS, KERNEL_FIELDS, KERNEL_SCALARS, count_calls, kernel_scalar,
                      random_connection, random_element)
from ref import (cocycle_by_expansion, cocycle_sides_by_triple_sums, falling_by_products,
                 family_by_products, key_lemma_by_expansion, leibniz_by_every_power,
                 t_power_by_shift)


def flat_index(k, j, l):
    """Position of T^k e_j in the flattened basis, T-degree major."""
    return k * l + j


class TestOperatorFamily:
    def test_recurrence(self, rng, q3s):
        a = q3s.a_prism()
        conn = random_connection(rng, q3s, 2, 2)
        phi = operator_family(conn.operator().scale(a), a, 5)
        n = conn.size()
        assert phi[0] == Matrix.identity(q3s, n)
        for k in range(4):
            step = phi[1] - Matrix.identity(q3s, n).scale(a * k)
            assert phi[k + 1] == step * phi[k]

    def test_flat_connection_has_constant_family(self, q3):
        conn = LogConnection.trivial(q3, 2, 1)
        a = q3.a_prism()
        strat = from_connection(conn, a, 4)
        for n in range(1, 5):
            assert strat.phi[n].is_zero()

    def test_scalar_degree_two(self, q3):
        c = q3.from_rational(Fraction(5))
        conn = LogConnection(q3, "T", 1, 1, [[TruncSeries.constant(q3, 1, c)]])
        a = q3.a_prism()
        strat = from_connection(conn, a, 2)
        assert strat.phi[1][0, 0] == a * c
        assert strat.phi[2][0, 0] == a * a * c * (c - 1)

    def test_twist_family_is_diagonal_falling_factorial(self, q3s):
        # N = n * id on a rank one module: the degree-j operator acts on
        # T^k by a^j * (n + k)(n + k - 1)...(n + k - j + 1)
        n, m, D = 3, 3, 4
        conn = LogConnection(q3s, "T", 1, m, [[TruncSeries.constant(q3s, m, n)]])
        a = q3s.a_prism()
        strat = from_connection(conn, a, D)
        for j in range(D + 1):
            for k in range(m):
                expect = (a ** j) * q3s.from_rational(falling_by_products(Fraction(n + k), j))
                for k2 in range(m):
                    got = strat.phi[j][k2, k]
                    assert got == (expect if k2 == k else q3s.zero())


class TestRoundTrip:
    def test_exact_round_trip_small(self, rng, q3):
        conn = random_connection(rng, q3, 2, 3)
        a = q3.a_prism()
        back = to_connection(from_connection(conn, a, 8))
        assert back == conn
        assert back.unif == "T"

    @pytest.mark.parametrize("l,m", [(1, 1), (2, 2), (3, 4), (2, 4)])
    def test_round_trip_sizes(self, rng, q3s, l, m):
        conn = random_connection(rng, q3s, l, m)
        a = q3s.a_prism()
        assert to_connection(from_connection(conn, a, 2 * m + 2)) == conn

    def test_round_trip_ramified_two(self, rng, q2s):
        conn = random_connection(rng, q2s, 2, 3)
        assert to_connection(from_connection(conn, q2s.a_prism(), 8)) == conn

    def test_round_trip_with_log_constant(self, rng, q3s):
        conn = random_connection(rng, q3s, 2, 2)
        assert to_connection(from_connection(conn, q3s.a_log(), 6)) == conn


class TestLeibnizGate:
    def test_valid_family_passes(self, rng, q3s):
        strat = from_connection(random_connection(rng, q3s, 2, 3), q3s.a_prism(), 6)
        assert check_leibniz(strat)["ok"]

    def test_multiplication_by_t_violates(self, q3):
        l, m = 1, 3
        a = q3.one()
        phi1 = t_power_by_shift(q3, l, m, 1)
        phi = [Matrix.identity(q3, l * m), phi1]
        strat = Stratification(q3, l, m, 1, a, phi)
        rep = check_leibniz(strat)
        assert not rep["ok"]
        assert rep["witness"]["power"] == 1
        with pytest.raises(LeibnizViolation):
            to_connection(strat)

    def test_non_unit_degree_zero_rejected(self, rng, q3):
        strat = from_connection(random_connection(rng, q3, 1, 2), q3.a_prism(), 4)
        bad = Stratification(q3, 1, 2, 4, strat.a,
                             [strat.phi[0].scale(2)] + strat.phi[1:])
        with pytest.raises(NotAStratification):
            to_connection(bad)

    @pytest.mark.parametrize("entry,value", [((0, 0), 2), ((3, 3), 0), ((1, 2), 1),
                                             ((3, 0), Fraction(1, 3))])
    def test_degree_zero_off_identity_in_one_entry(self, rng, q3s, entry, value):
        """phi_0 = I changed in one entry, on or off the diagonal, is
        refused by to_connection and check_cocycle alike."""
        strat = from_connection(random_connection(rng, q3s, 2, 2), q3s.a_prism(), 3)
        rows = [list(r) for r in strat.phi[0].rows]
        rows[entry[0]][entry[1]] = q3s.from_rational(value)
        bad = Stratification(q3s, 2, 2, 3, strat.a, [Matrix(q3s, rows)] + strat.phi[1:])
        with pytest.raises(NotAStratification,
                           match="^operator of pd-degree zero is not the identity$"):
            to_connection(bad)
        assert check_cocycle(bad) == {"ok": False, "degeneracy_ok": False, "witness": None}

    def test_degree_zero_has_no_connection(self, rng, q3):
        """D = 0 leaves no phi_1 to read N from, so no N = 0 is made up."""
        strat = from_connection(random_connection(rng, q3, 2, 2), q3.a_prism(), 0)
        with pytest.raises(NotAStratification, match="pd-degree 0 has no phi_1"):
            to_connection(strat)


class TestConstructorChecks:
    """Raised errors, not asserts, so they hold under python -O too."""

    def test_negative_degree_rejected(self, q3):
        with pytest.raises(NotAStratification):
            Stratification(q3, 1, 1, -1, 1, [])
        with pytest.raises(NotAStratification):
            from_connection(LogConnection.trivial(q3, 1, 1), q3.a_prism(), -1)

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (3, 3)])
    def test_operator_of_another_shape_rejected(self, q3, shape):
        """An operator with the right number of rows but not of columns is
        refused as one with the wrong number of rows is, before
        check_cocycle can index past its columns."""
        M = Matrix(q3, [[1] * shape[1] for _ in range(shape[0])])
        with pytest.raises(NotAStratification, match="^operators must be 2x2$"):
            Stratification(q3, 1, 2, 2, 1, [Matrix.identity(q3, 2), M, M])

    @pytest.mark.parametrize("D", [0, 1, 4])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (4, 3), (3, 2), (3, 4), (3, 3)])
    def test_family_of_another_shape_rejected(self, q3, D, shape):
        """A Family is checked on phi_1 = M (phi_0 = I at D = 0), whose shape
        all its operators share: wrong rows are refused at every D, wrong
        columns from D = 1 on. At D = 0 the one operator is I_3 whatever M's
        columns, and that family is accepted, as is one from a 3x3 M. M is
        diag(0, 1, ...), phi_1 of the trivial connection at a = 1: the 2x2
        case at D = 4 was accepted and passed check_cocycle."""
        M = Matrix(q3, [[r if r == c else 0 for c in range(shape[1])] for r in range(shape[0])])
        if shape == (3, 3) or D == 0 and shape[0] == 3:
            st = Stratification(q3, 1, 3, D, q3.one(), Family(M, q3.one(), D))
            assert st.phi[0] == Matrix.identity(q3, 3) and len(st.phi) == D + 1
            assert check_cocycle(st)["ok"]
        else:
            with pytest.raises(NotAStratification, match="^operators must be 3x3$"):
                Stratification(q3, 1, 3, D, q3.one(), Family(M, q3.one(), D))

    def test_operators_over_another_field_rejected(self, q3):
        """Operators, or a scalar a, over Q_5 where Q_3 is due are refused
        with RingMismatch, in a list and in a Family (checked on its phi_1,
        phi_0 at D = 0); before, check_cocycle raised a plain ValueError."""
        from prismlab.field import FieldSpec
        q5 = FieldSpec(5, [-5, 1])
        I, M = Matrix.identity(q5, 2), Matrix(q5, [[0, 1], [0, 1]])
        with pytest.raises(RingMismatch, match="^operator over a different field$"):
            Stratification(q3, 1, 2, 1, q3.one(), [I, M])
        with pytest.raises(RingMismatch, match="^operator over a different field$"):
            Stratification(q3, 1, 2, 1, q3.one(), [Matrix.identity(q3, 2), M])
        for D in (0, 1, 3):
            with pytest.raises(RingMismatch, match="^operator over a different field$"):
                Stratification(q3, 1, 2, D, q3.one(), Family(M, q5.one(), D))
        phi = from_connection(LogConnection.trivial(q3, 1, 2), 1, 3).phi
        for a in (q5.one(), q5.a_prism()):
            with pytest.raises(RingMismatch, match="^a over a different field$"):
                Stratification(q3, 1, 2, 3, a, phi)
        assert check_cocycle(Stratification(q3, 1, 2, 3, 1, phi))["ok"]

    def test_explicit_family_is_kept_as_a_copy(self, q3s):
        """A family given explicitly is stored as a list of its own, so a
        change to the caller's list afterwards reaches neither phi nor
        check_cocycle; from_connection's phi stays a Family."""
        import random

        made = from_connection(random_connection(random.Random(3), q3s, 2, 2), q3s.a_prism(), 4)
        assert isinstance(made.phi, Family)
        ops = list(made.phi)
        st = Stratification(q3s, 2, 2, 4, made.a, ops)
        assert type(st.phi) is list and st.phi is not ops
        before = check_cocycle(st)
        assert before["ok"]
        ops[3] = ops[3] + Matrix.identity(q3s, 4)
        ops.append(ops[1])
        assert st.phi == list(made.phi) and st.phi != ops
        assert check_cocycle(st) == before

    @pytest.mark.parametrize("l,m", [(0, 1), (1, 0), (-1, 2)])
    def test_empty_module_rejected(self, q3, l, m):
        with pytest.raises(RingMismatch):
            LogConnection(q3, "T", l, m, [])


@settings(max_examples=40, deadline=None)
@given(field=st.integers(0, 2), l=st.integers(1, 2), m=st.integers(1, 4),
       seed=st.integers(0, 10 ** 6))
def test_leibniz_at_d_one_matches_every_power(field, l, m, seed):
    import random

    from prismlab.field import FieldSpec
    spec = [FieldSpec(3, [-3, 1]), FieldSpec(3, [-3, 0, 1]), FieldSpec(2, [-2, 0, 1])][field]
    rng = random.Random(seed)
    strat = from_connection(random_connection(rng, spec, l, m), spec.a_prism(), 2)
    assert check_leibniz(strat) == leibniz_by_every_power(strat) == {"ok": True, "witness": None}
    n = l * m
    # one perturbed entry, a scalar shift (which commutes with T), and a
    # perturbation confined to the top T-degree
    r, c = rng.randrange(n), rng.randrange(n)
    single = [[random_element(rng, spec, 3) if (i, j) == (r, c) else 0
               for j in range(n)] for i in range(n)]
    shift = Matrix.identity(spec, n).scale(random_element(rng, spec, 3))
    top = [[random_element(rng, spec, 3) if i >= n - l and j >= n - l else 0
            for j in range(n)] for i in range(n)]
    for delta in (Matrix(spec, single), shift, Matrix(spec, top)):
        bad = strat.perturbed(1, delta)
        assert check_leibniz(bad) == leibniz_by_every_power(bad)


class TestCocycle:
    def test_identity_datum_passes(self, q3):
        # at m=1 the identity gluing datum literally has zero higher terms
        phi = [Matrix.identity(q3, 2)] + [Matrix.zero(q3, 2, 2) for _ in range(4)]
        strat = Stratification(q3, 2, 1, 4, q3.one(), phi)
        rep = check_cocycle(strat)
        assert rep["ok"] and rep["degeneracy_ok"]

    def test_identity_datum_higher_modulus(self, q3):
        # for m > 1 the identity datum is the product family of N = 0,
        # whose degree-n operator is a^n * diag(falling factorial of k)
        strat = from_connection(LogConnection.trivial(q3, 2, 3), q3.a_prism(), 6)
        assert check_cocycle(strat)["ok"]

    def test_from_connection_passes_unramified(self, rng, q3):
        strat = from_connection(random_connection(rng, q3, 1, 2), q3.a_prism(), 5)
        assert check_cocycle(strat)["ok"]

    def test_from_connection_passes_ramified(self, rng, q3s):
        strat = from_connection(random_connection(rng, q3s, 2, 3), q3s.a_prism(), 6)
        rep = check_cocycle(strat)
        assert rep["ok"] and rep["witness"] is None

    def test_single_entry_perturbation_fails_in_degree_two(self, rng, q3s):
        strat = from_connection(random_connection(rng, q3s, 2, 2), q3s.a_prism(), 5)
        n = strat.l * strat.m
        delta = Matrix(q3s, [[1 if (r, c) == (1, 2) else 0 for c in range(n)]
                             for r in range(n)])
        rep = check_cocycle(strat.perturbed(2, delta))
        assert not rep["ok"]
        mono = rep["witness"]["monomial"]
        assert mono["x1"] + mono["x2"] == 2

    def test_t_shift_perturbation_fails_in_degree_two(self, rng, q3):
        strat = from_connection(random_connection(rng, q3, 2, 3), q3.a_prism(), 6)
        delta = t_power_by_shift(q3, 2, 3, 1)
        rep = check_cocycle(strat.perturbed(2, delta))
        assert not rep["ok"]
        mono = rep["witness"]["monomial"]
        assert mono["x1"] + mono["x2"] == 2
        assert rep["degeneracy_ok"]

    def test_degree_zero_perturbation_breaks_degeneracy(self, rng, q3):
        strat = from_connection(random_connection(rng, q3, 1, 2), q3.a_prism(), 4)
        rep = check_cocycle(strat.perturbed(0, Matrix.identity(q3, 2)))
        assert not rep["ok"]
        assert not rep["degeneracy_ok"]

    def test_closed_form_cross_check(self, rng, q3s):
        strat = from_connection(random_connection(rng, q3s, 2, 1), q3s.a_prism(), 6)
        lhs, rhs = cocycle_sides_by_triple_sums(strat)
        assert all(lhs[i][j] == rhs[i][j] for i in range(2) for j in range(2))
        assert check_cocycle(strat)["ok"]
        bad = strat.perturbed(2, Matrix.identity(q3s, 2))
        lhs2, rhs2 = cocycle_sides_by_triple_sums(bad)
        assert any(lhs2[i][j] != rhs2[i][j] for i in range(2) for j in range(2))
        assert not check_cocycle(bad)["ok"]


# the benchmark's four fields: Q_3 as u - 3, and u^2 - 3, u^2 - 2, u^3 + 3u + 3
FIELD_TABLE = ((3, (-3, 1)), (3, (-3, 0, 1)), (2, (-2, 0, 1)), (3, (3, 3, 0, 1)))


def random_matrix(rng, spec, n):
    return Matrix(spec, [[random_element(rng, spec, 3) for _ in range(n)] for _ in range(n)])


def single_entry(spec, n, r, c, rng):
    """The n x n matrix with one nonzero random entry, at (r, c)."""
    x = random_element(rng, spec, 3)
    x = spec.one() if x.is_zero() else x
    return Matrix(spec, [[x if (i, j) == (r, c) else 0 for j in range(n)] for i in range(n)])


@settings(max_examples=25, deadline=None)
@given(field=st.integers(0, 3), l=st.integers(1, 2), m=st.integers(1, 3),
       D=st.integers(0, 5), log=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_cocycle_matches_expansion(field, l, m, D, log, seed):
    """check_cocycle's report, witness included, is the level-2 expansion's,
    on genuine families, each phi_n with one entry changed, phi_1 changed
    off the generator columns, the recurrence from a random phi_1, and
    random families with phi_0 = I."""
    import random

    from prismlab.field import FieldSpec
    p, E = FIELD_TABLE[field]
    spec = FieldSpec(p, list(E))
    a = spec.a_log() if log else spec.a_prism()
    rng = random.Random(seed)
    n = l * m
    genuine = from_connection(random_connection(rng, spec, l, m), a, D)
    families = [genuine]
    for k in range(D + 1):
        r, c = rng.randrange(n), rng.randrange(n)
        families.append(genuine.perturbed(k, Matrix(spec, [
            [random_element(rng, spec, 3) if (i, j) == (r, c) else 0 for j in range(n)]
            for i in range(n)])))
    if D >= 1 and n > l:
        # phi_1 off the Leibniz law on a column c >= l only: the family is
        # first off at level 1 there
        families.append(genuine.perturbed(1, single_entry(spec, n, rng.randrange(n),
                                                          rng.randrange(l, n), rng)))
    if D >= 1:
        families.append(Stratification(spec, l, m, D, a, operator_family(
            random_matrix(rng, spec, n), a, D + 1)))
    families.append(Stratification(spec, l, m, D, a, [Matrix.identity(spec, n)] + [
        random_matrix(rng, spec, n) for _ in range(D)]))
    for strat in families:
        assert check_cocycle(strat) == cocycle_by_expansion(strat)


def test_cocycle_pass_uses_matrices_only(monkeypatch):
    """A genuine family at E = u^3 + 3u + 3, l = 2, m = 8, D = 16 passes with
    no PDElement product and no Matrix product: the recurrence runs in the
    integer kernel falling_powers and the Leibniz law is an index shift."""
    import random

    from prismlab.field import FieldSpec
    spec = FieldSpec(3, [3, 3, 0, 1])
    D = 16
    strat = from_connection(random_connection(random.Random(16), spec, 2, 8),
                            spec.a_prism(), D)
    calls = {"pd": 0, "mat": 0}
    pd_mul, mat_mul = PDElement.__mul__, Matrix.__mul__

    def counting(key, mul):
        def wrapped(self, other):
            calls[key] += 1
            return mul(self, other)
        return wrapped

    monkeypatch.setattr(PDElement, "__mul__", counting("pd", pd_mul))
    monkeypatch.setattr(Matrix, "__mul__", counting("mat", mat_mul))
    assert check_cocycle(strat) == {"ok": True, "degeneracy_ok": True, "witness": None}
    assert calls == {"pd": 0, "mat": 0}


def test_off_generator_perturbations_match_expansion():
    """Every single-entry change of phi_n (1 <= n <= D) in a column c >= l
    gets the level-2 expansion's report, whose witness is the closed form
    X1^[1] X2^[n-1] T^(r div l) e_(r mod l) at generator c; cells with
    l, m <= 2 and D <= 3 over the benchmark's four fields."""
    import random

    rng = random.Random(13)
    for spec in FOUR_FIELDS:
        for l, m, D in ((1, 2, 1), (1, 2, 3), (2, 2, 2), (2, 2, 3)):
            n = l * m
            genuine = from_connection(random_connection(rng, spec, l, m), spec.a_prism(), D)
            for k in range(1, D + 1):
                for r in range(n):
                    for c in range(l, n):
                        bad = genuine.perturbed(k, single_entry(spec, n, r, c, rng))
                        rep = check_cocycle(bad)
                        assert rep == cocycle_by_expansion(bad)
                        assert rep["witness"] == {"generator": c, "component": r % l,
                                                  "monomial": {"x1": 1, "x2": k - 1,
                                                               "t": r // l}}


def test_off_generator_failure_walks_the_family_once(monkeypatch):
    """Counts, no timing: a failing check whose least bad column is not a
    generator column makes one falling_powers walk of the whole family and
    no Matrix.apply, Matrix product or PDElement product, both for a
    changed phi_2 (the benchmark's failing jobs) and for a phi_1 off the
    Leibniz law."""
    import random

    from prismlab.field import FieldSpec
    spec = FieldSpec(3, [3, 3, 0, 1])
    D = 8
    genuine = from_connection(random_connection(random.Random(13), spec, 2, 4),
                              spec.a_prism(), D)
    delta = single_entry(spec, 8, 5, 3, random.Random(5))
    for k in (1, 2):
        bad = genuine.perturbed(k, delta)
        kernel = counting_kernel(monkeypatch)
        # Matrix.__mul__ and PDElement.__mul__ both count under "__mul__"
        products = count_calls(monkeypatch, [(Matrix, "apply"), (Matrix, "__mul__"),
                                             (PDElement, "__mul__")])
        rep = check_cocycle(bad)
        monkeypatch.undo()
        assert rep["witness"] == {"generator": 3, "component": 1,
                                  "monomial": {"x1": 1, "x2": k - 1, "t": 2}}
        assert kernel == {"calls": 1, "steps": D - 1, "released": 1}
        assert products == {"apply": 0, "__mul__": 0}


class TestKeyLemma:
    def test_scalar_family_passes(self, q3):
        a = q3.a_prism()
        c = q3.from_rational(Fraction(2, 3))
        phi1 = Matrix(q3, [[a * c]])
        phi = operator_family(phi1, a, 10)
        assert verify_key_lemma(phi, a, 3, 6)["ok"]

    def test_random_two_by_two_passes(self, rng, q3s):
        a = q3s.a_prism()
        phi1 = Matrix(q3s, [[random_element(rng, q3s, 4) for _ in range(2)]
                            for _ in range(2)])
        phi = operator_family(phi1, a, 10)
        assert verify_key_lemma(phi, a, 3, 6)["ok"]

    def test_squared_operator_fails_at_first_twist(self, rng, q3s):
        a = q3s.a_prism()
        phi1 = Matrix(q3s, [[random_element(rng, q3s, 4) for _ in range(2)]
                            for _ in range(2)])
        phi = operator_family(phi1, a, 10)
        phi[2] = phi[1] * phi[1]
        rep = verify_key_lemma(phi, a, 3, 6)
        assert not rep["ok"]
        assert rep["witness"]["n"] == 1
        assert rep["witness"]["pd_degree"] == 1

    def test_requires_long_enough_family(self, q3):
        phi = operator_family(Matrix(q3, [[1]]), q3.one(), 4)
        with pytest.raises(PrismlabError, match="operator family too short for this check"):
            verify_key_lemma(phi, q3.one(), 3, 6)


KEY_LEMMA_SCALARS = ("prism", "log", 1, Fraction(2, 3), 0)


@settings(max_examples=30, deadline=None)
@given(field=st.integers(0, 3), l=st.integers(1, 2), m=st.integers(1, 2),
       n_max=st.integers(0, 2), D=st.integers(0, 3),
       choice=st.sampled_from(KEY_LEMMA_SCALARS), seed=st.integers(0, 10 ** 6))
def test_key_lemma_matches_expansion(field, l, m, n_max, D, choice, seed):
    """verify_key_lemma's report, witness included, is the PDElement
    expansion's, on a genuine family and on the family with one entry
    changed at each level phi_0..phi_(n_max + D)."""
    import random

    spec = FOUR_FIELDS[field]
    a = {"prism": spec.a_prism(), "log": spec.a_log()}.get(choice, choice)
    rng = random.Random(seed)
    n = l * m
    genuine = from_connection(random_connection(rng, spec, l, m), a, n_max + D)
    families = [genuine] + [genuine.perturbed(k, single_entry(
        spec, n, rng.randrange(n), rng.randrange(n), rng)) for k in range(n_max + D + 1)]
    for strat in families:
        phi = list(strat.phi)
        assert verify_key_lemma(phi, strat.a, n_max, D) == \
            key_lemma_by_expansion(phi, strat.a, n_max, D)


def test_key_lemma_builds_no_pd_element(rng, q3s, monkeypatch):
    """Counts only: verify_key_lemma reads its scalars in closed form and
    builds no PDElement, on a passing and on a failing family."""
    phi1 = Matrix(q3s, [[random_element(rng, q3s, 4) for _ in range(2)] for _ in range(2)])
    phi = operator_family(phi1, q3s.a_prism(), 10)
    bad = phi[:2] + [phi[1] * phi[1]] + phi[3:]
    calls = count_calls(monkeypatch, [(PDElement, "__init__"), (PDElement, "_trusted")])
    assert verify_key_lemma(phi, q3s.a_prism(), 3, 6)["ok"]
    assert not verify_key_lemma(bad, q3s.a_prism(), 3, 6)["ok"]
    assert calls == {"__init__": 0, "_trusted": 0}


def test_operator_family_length_is_count(q3):
    """operator_family(phi1, a, count) has max(count, 0) operators: a count
    below 1 yields nothing, phi_0 included."""
    phi1 = Matrix(q3, [[2, 1], [0, 3]])
    for count in (-3, -1, 0, 1, 2, 5):
        assert len(operator_family(phi1, q3.one(), count)) == max(count, 0)
    assert operator_family(phi1, q3.one(), 1) == [Matrix.identity(q3, 2)]


@settings(max_examples=20, deadline=None)
@given(l=st.integers(1, 2), m=st.integers(1, 3), seed=st.integers(0, 10 ** 6))
def test_round_trip_property(l, m, seed):
    import random

    from prismlab.field import FieldSpec
    spec = FieldSpec(3, [-3, 0, 1])
    rng = random.Random(seed)
    conn = random_connection(rng, spec, l, m)
    assert to_connection(from_connection(conn, spec.a_prism(), 2 * m + 2)) == conn


@settings(max_examples=10, deadline=None)
@given(m=st.integers(1, 2), seed=st.integers(0, 10 ** 6))
def test_cocycle_property(m, seed):
    import random

    from prismlab.field import FieldSpec
    spec = FieldSpec(3, [-3, 1])
    rng = random.Random(seed)
    strat = from_connection(random_connection(rng, spec, 2, m), spec.a_prism(),
                            2 * m + 1)
    assert check_cocycle(strat)["ok"]


kernel_numerators = st.integers(-9, 9) | st.integers(2 ** 200, 2 ** 201) \
    | st.integers(-2 ** 201, -2 ** 200)


@st.composite
def dense_operator(draw):
    """(spec, phi_1): dense, non-triangular, denominators in {1, 2, 3, 4, 9,
    27}, with some zero rows and columns."""
    from prismlab.field import FieldSpec
    p, E = draw(st.sampled_from(KERNEL_FIELDS))
    spec = FieldSpec(p, list(E))
    n = draw(st.integers(1, 4))
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    rows = [[spec.zero() if r in zero_rows or c in zero_cols else spec.element(
        [Fraction(draw(kernel_numerators), draw(st.sampled_from([1, 2, 3, 4, 9, 27])))
         for _ in range(spec.e)]) for c in range(n)] for r in range(n)]
    return spec, Matrix(spec, rows)


def _quintic_operator(zero):
    from prismlab.field import FieldSpec
    spec = FieldSpec(3, [12, 3, -6, 0, 3, 1])
    return spec, Matrix(spec, [[0 if zero else spec.element([r - c, Fraction(1, 3), 0, 2, -r])
                                for c in range(3)] for r in range(3)])


@settings(max_examples=60, deadline=None)
@given(op=dense_operator(), choice=st.sampled_from(KERNEL_SCALARS),
       count=st.integers(1, 8))
@example(op=_quintic_operator(False), choice="irrational", count=1)
@example(op=_quintic_operator(False), choice="prism", count=2)
@example(op=_quintic_operator(False), choice="log", count=3)
@example(op=_quintic_operator(True), choice="prism", count=6)
@example(op=_quintic_operator(False), choice=0, count=6)
def test_operator_family_matches_matrix_products(op, choice, count):
    spec, phi1 = op
    a = kernel_scalar(spec, choice)
    got = operator_family(phi1, a, count)
    want = family_by_products(phi1, a, count)
    assert len(got) == len(want) == count
    for P, Q in zip(got, want):
        assert P == Q
        assert [[x.coords for x in row] for row in P.rows] == \
            [[x.coords for x in row] for row in Q.rows]


@settings(max_examples=30, deadline=None)
@given(field=st.sampled_from(KERNEL_FIELDS), l=st.integers(1, 2), m=st.integers(1, 3),
       choice=st.sampled_from(KERNEL_SCALARS), D=st.integers(0, 7),
       big=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_round_trip_matches_matrix_products(field, l, m, choice, D, big, seed):
    """from_connection agrees with the product reference, to_connection
    with the parent's scaling of all of phi_1, and check_leibniz with the
    every-power matrix test, on the four fields and a 2^200 coefficient."""
    import random

    from prismlab.field import FieldSpec
    spec = FieldSpec(field[0], list(field[1]))
    rng = random.Random(seed)
    conn = random_connection(rng, spec, l, m)
    if big:
        N = [list(row) for row in conn.N]
        N[0][0] = N[0][0] + Fraction(2 ** 200, 3)
        conn = LogConnection(spec, "T", l, m, N)
    a = kernel_scalar(spec, choice)
    strat = from_connection(conn, a, D)
    phi1 = conn.operator().scale(a)
    assert strat.phi == family_by_products(phi1, a, D + 1)
    assert check_leibniz(strat) == leibniz_by_every_power(strat)
    if D >= 1 and not a.is_zero():
        op = phi1.scale(a.invert())
        back = to_connection(strat)
        assert back == conn
        assert all(back.N[i][j].coeffs[k] == op[flat_index(k, i, l), j]
                   for i in range(l) for j in range(l) for k in range(m))


@settings(max_examples=60, deadline=None)
@given(field=st.sampled_from(KERNEL_FIELDS), l=st.integers(1, 3), m=st.integers(1, 4),
       choice=st.sampled_from(KERNEL_SCALARS), seed=st.integers(0, 10 ** 6),
       changes=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3),
       relinearize=st.booleans())
def test_t_linear_is_the_leibniz_normal_form(field, l, m, choice, seed, changes,
                                             relinearize):
    """conn.operator(a) is _t_linear of its own generator columns and a, and
    a phi_1 with entries changed (and, when relinearize is drawn, rebuilt
    from its changed generator columns) passes check_leibniz exactly when
    it equals _t_linear of its own generator columns and a."""
    import random

    from prismlab.field import FieldSpec
    from prismlab.strat import _t_linear
    spec = FieldSpec(field[0], list(field[1]))
    rng = random.Random(seed)
    conn = random_connection(rng, spec, l, m)
    a = kernel_scalar(spec, choice)
    n = l * m

    def lin(phi, twist):
        return _t_linear(spec, l, [row[:l] for row in phi.rows], twist)
    assert conn.operator() == lin(conn.operator(), 1)
    phi1 = conn.operator(a)
    assert phi1 == lin(phi1, a)
    rows = [list(row) for row in phi1.rows]
    for r, c in changes:
        rows[r % n][c % n] = random_element(rng, spec, 1)
    phi1 = Matrix(spec, rows)
    if relinearize:
        phi1 = lin(phi1, a)
    strat = Stratification(spec, l, m, 1, a, [Matrix.identity(spec, n), phi1])
    assert check_leibniz(strat)["ok"] == (phi1 == lin(phi1, a))
    assert check_leibniz(strat)["ok"] or not relinearize


def test_round_trip_makes_no_matrix_products(monkeypatch):
    """Operation counts, no timing: on E = u^3 + 3u + 3, l = 1, m = 6,
    D = 14, from_connection and to_connection make no Matrix product, and
    to_connection makes at most l*m*l field multiplications and one
    inversion."""
    import random

    from prismlab.field import FieldElement, FieldSpec
    spec = FieldSpec(3, [3, 3, 0, 1])
    l, m, D = 1, 6, 14
    conn = random_connection(random.Random(14), spec, l, m)
    calls = {"mat": 0, "mul": 0, "inv": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(Matrix, "__mul__", counting("mat", Matrix.__mul__))
    monkeypatch.setattr(FieldElement, "__mul__", counting("mul", FieldElement.__mul__))
    monkeypatch.setattr(FieldElement, "__rmul__", counting("mul", FieldElement.__rmul__))
    monkeypatch.setattr(FieldElement, "invert", counting("inv", FieldElement.invert))
    strat = from_connection(conn, spec.a_prism(), D)
    assert calls["mat"] == 0
    calls.update(mat=0, mul=0, inv=0)
    back = to_connection(strat)
    assert calls == {"mat": 0, "mul": calls["mul"], "inv": 1}
    assert calls["mul"] <= l * m * l
    monkeypatch.undo()
    assert back == conn


def test_operator_family_folds_only_for_its_operators(monkeypatch):
    """Operation counts, no timing: operator_family makes no field product
    or sum, and calls the compiled product spec._mulnum only for the
    regular representations of phi_1's nonzero entries and of a, e - 1
    each, so 3 and 12 operators cost the same folds."""
    import random

    from prismlab import field
    from prismlab.field import FieldElement
    spec = field.FieldSpec(3, [12, 3, -6, 0, 3, 1])
    rng = random.Random(5)
    phi1 = Matrix(spec, [[random_element(rng, spec, 9) if (r + c) % 3 else 0
                          for c in range(4)] for r in range(4)])
    nonzero = sum(not x.is_zero() for row in phi1.rows for x in row)
    a = spec.a_prism()
    calls = {"mul": 0, "add": 0, "fold": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(FieldElement, name, counting("mul", getattr(FieldElement, name)))
    for name in ("__add__", "__radd__", "__sub__"):
        monkeypatch.setattr(FieldElement, name, counting("add", getattr(FieldElement, name)))
    monkeypatch.setattr(spec, "_mulnum", counting("fold", spec._mulnum))
    for count in (3, 12):
        calls.update(mul=0, add=0, fold=0)
        got = operator_family(phi1, a, count)
        assert calls == {"mul": 0, "add": 0, "fold": (nonzero + 1) * (spec.e - 1)}
    monkeypatch.undo()
    assert got == family_by_products(phi1, a, 12)


def counting_kernel(monkeypatch):
    """Patch the kernel generator falling_levels, which the walks of strat
    and falling_powers (so Family) share, to record each kernel
    call, each step (one level yielded) and each kernel generator finished
    or released. A call that yields no level (fewer than three operators
    asked for) takes no step and is not counted."""
    from prismlab import linalg, strat as strat_module
    calls = {"calls": 0, "steps": 0, "released": 0}
    kernel = linalg.falling_levels

    def counting(M, c, count):
        started = False
        try:
            for level in kernel(M, c, count):
                if not started:
                    started = True
                    calls["calls"] += 1
                calls["steps"] += 1
                yield level
        finally:
            calls["released"] += started

    monkeypatch.setattr(linalg, "falling_levels", counting)
    monkeypatch.setattr(strat_module, "falling_levels", counting)
    return calls


def test_first_off_recurrence_stops_at_first_mismatch(monkeypatch):
    """Step counts, no timing: with D = 12, a family broken at phi_2 makes
    one kernel step before first_off_recurrence answers 2, and a genuine
    family makes D - 1."""
    import random

    from prismlab.field import FieldSpec
    from prismlab.strat import first_off_recurrence
    spec = FieldSpec(3, [3, 3, 0, 1])
    D = 12
    genuine = from_connection(random_connection(random.Random(12), spec, 2, 2),
                              spec.a_prism(), D)
    broken = genuine.perturbed(2, Matrix(spec, [[1 if (r, c) == (1, 0) else 0
                                                 for c in range(4)] for r in range(4)]))
    calls = counting_kernel(monkeypatch)
    assert first_off_recurrence(broken.phi, broken.a) == 2
    assert calls["steps"] == 1
    calls["steps"] = 0
    assert first_off_recurrence(genuine.phi, genuine.a) is None
    assert calls["steps"] == D - 1


def test_round_trip_takes_no_kernel_step(monkeypatch):
    """Step counts, no timing: to_connection(from_connection(M, a, D)) reads
    phi_0 and phi_1 only, so falling_powers is never called, at D = 2m + 2."""
    import random

    from prismlab.field import FieldSpec
    spec = FieldSpec(3, [3, 3, 0, 1])
    calls = counting_kernel(monkeypatch)
    for l, m in ((1, 6), (2, 3), (3, 2)):
        conn = random_connection(random.Random(l), spec, l, m)
        assert to_connection(from_connection(conn, spec.a_prism(), 2 * m + 2)) == conn
    assert calls == {"calls": 0, "steps": 0, "released": 0}


def test_first_read_past_phi_1_makes_the_whole_family(monkeypatch):
    """Step counts, no timing: with D = 10, reads of phi[0] and phi[1] take
    no kernel step; the first read of any other index in -D-1..D, or of a
    slice, takes D - 1 steps and releases the kernel generator once, and a
    second read takes none. D = 0 and D = 1 families read phi[-1]."""
    import random

    from prismlab.field import FieldSpec
    spec = FieldSpec(3, [3, 3, 0, 1])
    a, D = spec.a_prism(), 10
    conn = random_connection(random.Random(10), spec, 2, 2)
    want = operator_family(conn.operator(a), a, D + 1)
    calls = counting_kernel(monkeypatch)
    none = {"calls": 0, "steps": 0, "released": 0}
    whole = {"calls": 1, "steps": D - 1, "released": 1}
    reads = [k for k in range(-D - 1, D + 1) if k not in (0, 1)]
    for k in reads + [slice(None), slice(0, 2), slice(3, 3), slice(None, None, -1)]:
        phi = from_connection(conn, a, D).phi
        calls.update(none)
        assert phi[0] == want[0] and phi[1] == want[1] and calls == none
        first = phi[k]
        assert first == want[k] and calls == whole
        assert phi[k] == first and (isinstance(k, slice) or phi[k] is first)
        assert all(phi[j] is phi[j - D - 1] for j in range(D + 1))
        assert list(phi) == want and phi[0] == want[0] and calls == whole
    calls.update(none)
    for D in (0, 1):
        phi = from_connection(conn, a, D).phi
        assert phi[-1] == want[D] and phi[-1] is phi[D] and phi[:] == want[:D + 1]
        for k in (D + 1, -D - 2):
            with pytest.raises(IndexError):
                phi[k]
    assert calls == none


def counting_builds(monkeypatch):
    """Count the levels of a walk built as matrices (PackedLevel.matrix)
    and the field elements made there and in the field (_make)."""
    from prismlab import field, linalg
    return count_calls(monkeypatch, [(linalg.PackedLevel, "matrix"), (linalg, "_make"),
                                     (field, "_make")])


def test_genuine_walk_builds_no_level(monkeypatch):
    """Counts, no timing: on a genuine family with D = 8 given explicitly,
    both walks take D - 1 kernel steps, build no level as a matrix and make
    no field element at levels 2..D."""
    import random

    from prismlab.field import FieldSpec
    from prismlab.strat import _first_off_family, first_off_recurrence
    spec = FieldSpec(3, [3, 3, 0, 1])
    D = 8
    phi = list(from_connection(random_connection(random.Random(8), spec, 2, 3),
                               spec.a_prism(), D).phi)
    a = spec.a_prism()
    kernel = counting_kernel(monkeypatch)
    builds = counting_builds(monkeypatch)
    assert first_off_recurrence(phi, a) is None
    assert _first_off_family(phi, phi[1], a) is None
    assert kernel == {"calls": 2, "steps": 2 * (D - 1), "released": 2}
    assert builds == {"matrix": 0, "_make": 0}


def test_failing_walk_builds_only_the_levels_that_differ(monkeypatch):
    """Counts, no timing: with D = 8, l = 2, m = 4, phi_2 changed at column
    5, phi_5 at column 3 and phi_6 at column 7, check_cocycle walks the
    family once and builds the three levels off psi, phi_6 too, although
    it differs from psi_6 only past the least column found before it."""
    import random

    from prismlab.field import FieldSpec
    spec = FieldSpec(3, [3, 3, 0, 1])
    D = 8
    genuine = from_connection(random_connection(random.Random(21), spec, 2, 4),
                              spec.a_prism(), D)
    rng = random.Random(22)
    bad = genuine.perturbed(2, single_entry(spec, 8, 1, 5, rng))
    bad = bad.perturbed(5, single_entry(spec, 8, 6, 3, rng))
    bad = bad.perturbed(6, single_entry(spec, 8, 0, 7, rng))
    kernel = counting_kernel(monkeypatch)
    builds = counting_builds(monkeypatch)
    rep = check_cocycle(bad)
    assert rep["witness"] == {"generator": 3, "component": 0,
                              "monomial": {"x1": 1, "x2": 4, "t": 3}}
    assert kernel == {"calls": 1, "steps": D - 1, "released": 1}
    assert builds["matrix"] == 3
    assert rep == cocycle_by_expansion(bad)


def test_generator_column_walk_stops_at_its_level(monkeypatch):
    """Counts, no timing: phi_3 changed in generator column 0 (x0 < l), the
    branch that _cocycle_witness expands. The walk stops at phi_3 after two
    kernel steps and builds that level alone; the expansion reads the
    explicit family and takes no kernel step."""
    import random

    from prismlab.field import FieldSpec
    spec = FieldSpec(3, [-3, 0, 1])
    D = 6
    genuine = from_connection(random_connection(random.Random(23), spec, 2, 2),
                              spec.a_prism(), D)
    bad = genuine.perturbed(3, single_entry(spec, 4, 2, 0, random.Random(24)))
    kernel = counting_kernel(monkeypatch)
    builds = counting_builds(monkeypatch)
    rep = check_cocycle(bad)
    assert kernel == {"calls": 1, "steps": 2, "released": 1}
    assert builds["matrix"] == 1
    monkeypatch.undo()
    assert rep == cocycle_by_expansion(bad)
    assert rep["witness"]["generator"] == 0


slice_bounds = st.none() | st.integers(-10, 10)


@settings(max_examples=40, deadline=None)
@given(op=dense_operator(), choice=st.sampled_from(KERNEL_SCALARS), D=st.integers(0, 8),
       reads=st.lists(st.integers(-10, 9), max_size=3),
       cut=st.builds(slice, slice_bounds, slice_bounds, st.sampled_from([None, 1, 2, -1])),
       at=st.integers(0, 8))
@example(op=_quintic_operator(False), choice="prism", D=8, reads=[5, -1, 9],
         cut=slice(1, None), at=2)
@example(op=_quintic_operator(True), choice="log", D=0, reads=[-1, 1],
         cut=slice(None, None, -1), at=0)
def test_lazy_family_matches_eager_references(op, choice, D, reads, cut, at):
    """A generated family (from_connection's) against operator_family and
    the product reference on the benchmark fields and the quintic: reads in
    a drawn order, negative and out-of-range indices, slices, iteration and
    ==, and Stratification.__eq__ and perturbed against the same family
    given explicitly."""
    spec, phi1 = op
    a = kernel_scalar(spec, choice)
    n = phi1.nrows
    want = family_by_products(phi1, a, D + 1)
    assert operator_family(phi1, a, D + 1) == want
    lazy = Family(phi1, a, D)
    assert len(lazy) == D + 1
    for k in reads:
        if -D - 1 <= k <= D:
            assert lazy[k] == want[k]
        else:
            with pytest.raises(IndexError):
                lazy[k]
    assert lazy[cut] == want[cut]
    assert lazy == want and want == lazy and not lazy != want
    assert lazy != want[:-1] and lazy != want + want[:1]
    assert list(lazy) == want
    assert Family(phi1, a, D) == lazy

    def generated():
        return Stratification(spec, 1, n, D, a, Family(phi1, a, D))
    explicit = Stratification(spec, 1, n, D, a, want)
    assert generated() == explicit and explicit == generated()
    delta = Matrix(spec, [[1 if (r, c) == (0, n - 1) else 0 for c in range(n)]
                          for r in range(n)])
    k = at % (D + 1)
    moved = generated().perturbed(k, delta)
    assert moved == explicit.perturbed(k, delta) and moved != explicit
    assert generated() != moved and moved != generated()
    assert moved.phi[k] == want[k] + delta
    assert moved.phi[:k] + moved.phi[k + 1:] == want[:k] + want[k + 1:]
