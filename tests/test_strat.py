"""Stratification <-> log connection equivalence, cocycle and descent checks."""
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from prismlab.errors import LeibnizViolation, NotAStratification
from prismlab.linalg import Matrix
from prismlab.pdalg import CosimpConfig, PDElement, face, one_plus_a_x_pow
from prismlab.series import TruncSeries
from prismlab.strat import (LogConnection, Stratification, check_cocycle,
                            check_leibniz, flat_index, from_connection,
                            multiplication_by_t_power, operator_family,
                            to_connection, verify_key_lemma)

from conftest import random_element


def random_connection(rng, spec, l, m, unif="T"):
    N = [[TruncSeries(spec, m, [random_element(rng, spec, 4) for _ in range(m)], unif)
          for _ in range(l)] for _ in range(l)]
    return LogConnection(spec, unif, l, m, N)


def falling(x, k):
    out = Fraction(1)
    for i in range(k):
        out *= x - i
    return out


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
        conn = LogConnection.from_constant(q3, 1, c)
        a = q3.a_prism()
        strat = from_connection(conn, a, 2)
        assert strat.phi[1][0, 0] == a * c
        assert strat.phi[2][0, 0] == a * a * c * (c - 1)

    def test_twist_family_is_diagonal_falling_factorial(self, q3s):
        # N = n * id on a rank one module: the degree-j operator acts on
        # T^k by a^j * (n + k)(n + k - 1)...(n + k - j + 1)
        n, m, D = 3, 3, 4
        conn = LogConnection.from_constant(q3s, m, q3s.from_rational(Fraction(n)))
        a = q3s.a_prism()
        strat = from_connection(conn, a, D)
        for j in range(D + 1):
            for k in range(m):
                expect = (a ** j) * q3s.from_rational(falling(Fraction(n + k), j))
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
        phi1 = multiplication_by_t_power(q3, l, m, 1)
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


def leibniz_every_power(strat):
    """The Leibniz test over every d = 0..m-1, kept as the reference for
    check_leibniz, which tests d in {0, 1} only."""
    spec, l, m, a = strat.spec, strat.l, strat.m, strat.a
    if strat.D < 1:
        return {"ok": True, "witness": None}
    phi1 = strat.phi[1]
    for d in range(m):
        md = multiplication_by_t_power(spec, l, m, d)
        gap = phi1 * md - md * phi1 - md.scale(a * d)
        if not gap.is_zero():
            where = next((r, c) for r in range(l * m) for c in range(l * m)
                         if not gap[r, c].is_zero())
            return {"ok": False, "witness": {"power": d, "entry": where}}
    return {"ok": True, "witness": None}


@settings(max_examples=40, deadline=None)
@given(field=st.integers(0, 2), l=st.integers(1, 2), m=st.integers(1, 4),
       seed=st.integers(0, 10 ** 6))
def test_leibniz_at_d_one_matches_every_power(field, l, m, seed):
    import random

    from prismlab.field import FieldSpec
    spec = [FieldSpec(3, [-3, 1]), FieldSpec(3, [-3, 0, 1]), FieldSpec(2, [-2, 0, 1])][field]
    rng = random.Random(seed)
    strat = from_connection(random_connection(rng, spec, l, m), spec.a_prism(), 2)
    assert check_leibniz(strat) == leibniz_every_power(strat) == {"ok": True, "witness": None}
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
        assert check_leibniz(bad) == leibniz_every_power(bad)


def cocycle_sides_closed_form(strat):
    """Both sides of the gluing identity by direct triple-sum expansion.

    Only valid on modules with m = 1, where no T-rescaling enters.
    Serves as an independent cross-check of check_cocycle's staged
    composite: returns ([[lhs]], [[rhs]]) indexed [component][generator].
    """
    assert strat.m == 1
    spec, l, D, a = strat.spec, strat.l, strat.D, strat.a
    cfg = CosimpConfig(spec, a, D, 1)
    lhs = [[PDElement.zero(cfg, 2) for _ in range(l)] for _ in range(l)]
    rhs = [[PDElement.zero(cfg, 2) for _ in range(l)] for _ in range(l)]
    for l2 in range(D + 1):
        for mm in range(D + 1 - l2):
            for n in range(D + 1 - l2 - mm):
                mat = strat.phi[l2] * strat.phi[mm + n]
                sign = -1 if mm % 2 else 1
                mono = PDElement.monomial(cfg, 2, (l2 + mm, n), 0,
                                          sign * comb(l2 + mm, l2))
                w = mono * one_plus_a_x_pow(cfg, 2, 1, -(mm + n))
                for i2 in range(l):
                    for j0 in range(l):
                        c = mat[i2, j0]
                        if not c.is_zero():
                            lhs[i2][j0] = lhs[i2][j0] + w.scale(c)
    for n in range(D + 1):
        x2n = PDElement.monomial(cfg, 2, (0, n), 0, 1)
        for i2 in range(l):
            for j0 in range(l):
                c = strat.phi[n][i2, j0]
                if not c.is_zero():
                    rhs[i2][j0] = rhs[i2][j0] + x2n.scale(c)
    return lhs, rhs


def cocycle_by_expansion(strat):
    """Compare both composites of the gluing datum on the level-2 ring.

    The paper's literal definition, kept as the reference for check_cocycle.
    For each flattened basis vector T^k e_j, the inner-then-outer composite
    is expanded through the twisted face maps and compared against the
    direct outer expansion, coefficient by coefficient on monomials
    X1^[k1] X2^[k2] T^j. Running over the whole flattened basis (not just
    the T^0 generators) makes the check sensitive to every matrix entry of
    the family.
    """
    spec, l, m, D, a = strat.spec, strat.l, strat.m, strat.D, strat.a
    cfg = CosimpConfig(spec, a, D, m)
    report = {"ok": True, "degeneracy_ok": True, "witness": None}
    if not strat.phi[0] == Matrix.identity(spec, l * m):
        report["ok"] = False
        report["degeneracy_ok"] = False
        return report

    q = face(0, PDElement.variable(cfg, 1, 1))
    gam_q = [q.gamma(n) for n in range(D + 1)]
    tw_pow = [one_plus_a_x_pow(cfg, 2, 1, k) for k in range(m)]
    t_mono = [PDElement.monomial(cfg, 2, (0, 0), k, 1) for k in range(m)]

    def embed_plain(f: TruncSeries) -> PDElement:
        out = PDElement.zero(cfg, 2)
        for k, c in enumerate(f.coeffs):
            if not c.is_zero():
                out = out + t_mono[k].scale(c)
        return out

    def embed_twisted(f: TruncSeries) -> PDElement:
        out = PDElement.zero(cfg, 2)
        for k, c in enumerate(f.coeffs):
            if not c.is_zero():
                out = out + (t_mono[k] * tw_pow[k]).scale(c)
        return out

    cols = {}

    def phi_col(n, c):
        # column c of phi_n as an l-vector of truncated series; the module
        # generators occupy columns 0..l-1 (flat index of T^0 e_j is j)
        if (n, c) not in cols:
            mat = strat.phi[n]
            cols[(n, c)] = [TruncSeries(spec, m, [mat[flat_index(k, j, l), c]
                                                  for k in range(m)])
                            for j in range(l)]
        return cols[(n, c)]

    x1 = [PDElement.monomial(cfg, 2, (mm, 0), 0, 1) for mm in range(D + 1)]
    x2 = [PDElement.monomial(cfg, 2, (0, n), 0, 1) for n in range(D + 1)]

    for x0 in range(l * m):
        inner = [PDElement.zero(cfg, 2) for _ in range(l)]
        for n in range(D + 1):
            v = phi_col(n, x0)
            for i in range(l):
                if not v[i].is_zero():
                    inner[i] = inner[i] + embed_twisted(v[i]) * gam_q[n]
        lhs = [PDElement.zero(cfg, 2) for _ in range(l)]
        for i in range(l):
            if inner[i].is_zero():
                continue
            for mm in range(D + 1):
                w = phi_col(mm, i)
                factor = x1[mm] * inner[i]
                for i2 in range(l):
                    if not w[i2].is_zero():
                        lhs[i2] = lhs[i2] + embed_plain(w[i2]) * factor
        rhs = [PDElement.zero(cfg, 2) for _ in range(l)]
        for n in range(D + 1):
            v = phi_col(n, x0)
            for i2 in range(l):
                if not v[i2].is_zero():
                    rhs[i2] = rhs[i2] + embed_plain(v[i2]) * x2[n]
        best = None
        for i2 in range(l):
            diff = lhs[i2] - rhs[i2]
            for (ks, j) in diff.terms:
                key = (ks[0] + ks[1], ks[0], j, i2)
                if best is None or key < best[0]:
                    best = (key, i2, ks, j)
        if best is not None:
            _, i2, (k1, k2), j = best
            report["ok"] = False
            report["witness"] = {"generator": x0, "component": i2,
                                 "monomial": {"x1": k1, "x2": k2, "t": j}}
            return report
    return report


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
        delta = multiplication_by_t_power(q3, 2, 3, 1)
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
        lhs, rhs = cocycle_sides_closed_form(strat)
        assert all(lhs[i][j] == rhs[i][j] for i in range(2) for j in range(2))
        assert check_cocycle(strat)["ok"]
        bad = strat.perturbed(2, Matrix.identity(q3s, 2))
        lhs2, rhs2 = cocycle_sides_closed_form(bad)
        assert any(lhs2[i][j] != rhs2[i][j] for i in range(2) for j in range(2))
        assert not check_cocycle(bad)["ok"]


# the benchmark's four fields: Q_3 as u - 3, and u^2 - 3, u^2 - 2, u^3 + 3u + 3
FIELD_TABLE = ((3, (-3, 1)), (3, (-3, 0, 1)), (2, (-2, 0, 1)), (3, (3, 3, 0, 1)))


def random_matrix(rng, spec, n):
    return Matrix(spec, [[random_element(rng, spec, 3) for _ in range(n)] for _ in range(n)])


@settings(max_examples=25, deadline=None)
@given(field=st.integers(0, 3), l=st.integers(1, 2), m=st.integers(1, 3),
       D=st.integers(0, 5), log=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_cocycle_matches_expansion(field, l, m, D, log, seed):
    """check_cocycle's report, witness included, is the level-2 expansion's,
    on genuine families, each phi_n with one entry changed, the recurrence
    from a random phi_1, and random families with phi_0 = I."""
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
    if D >= 1:
        families.append(Stratification(spec, l, m, D, a, operator_family(
            random_matrix(rng, spec, n), a, D + 1)))
    families.append(Stratification(spec, l, m, D, a, [Matrix.identity(spec, n)] + [
        random_matrix(rng, spec, n) for _ in range(D)]))
    for strat in families:
        assert check_cocycle(strat) == cocycle_by_expansion(strat)


def test_cocycle_pass_uses_matrices_only(monkeypatch):
    """A genuine family at E = u^3 + 3u + 3, l = 2, m = 8, D = 16 passes with
    no PDElement product and at most D + 4 matrix products: D for the
    recurrence, four for the Leibniz law at T^0 and T^1."""
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
    assert calls["pd"] == 0 and calls["mat"] <= D + 4


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
        with pytest.raises(ValueError):
            verify_key_lemma(phi, q3.one(), 3, 6)


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


# the benchmark's four fields: e = 1, 2, 2, 3
KERNEL_FIELDS = [(3, (-3, 1)), (3, (-3, 0, 1)), (2, (-2, 0, 1)), (3, (3, 3, 0, 1))]


def family_by_products(phi1, a, count):
    """phi_(n+1) = (phi_1 - n*a) phi_n by plain Matrix products, the
    reference for the integer kernel of operator_family."""
    n = phi1.nrows
    out = [Matrix.identity(phi1.spec, n)]
    for k in range(count - 1):
        out.append((phi1 - Matrix.identity(phi1.spec, n).scale(a * k)) * out[-1])
    return out


def kernel_scalar(spec, choice):
    if choice == "prism":
        return spec.a_prism()
    if choice == "log":
        return spec.a_log()
    if choice == "irrational":
        # not rational once e > 1; for e = 1 every element is
        return spec.element([Fraction(1, 2), 5, -1][:spec.e])
    return spec.from_rational(choice)


KERNEL_SCALARS = ["prism", "log", 1, Fraction(2, 3), 0, "irrational"]
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


@settings(max_examples=60, deadline=None)
@given(op=dense_operator(), choice=st.sampled_from(KERNEL_SCALARS),
       count=st.integers(1, 8))
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
    assert check_leibniz(strat) == leibniz_every_power(strat)
    if D >= 1 and not a.is_zero():
        op = phi1.scale(a.invert())
        back = to_connection(strat)
        assert back == conn
        assert all(back.N[i][j].coeffs[k] == op[flat_index(k, i, l), j]
                   for i in range(l) for j in range(l) for k in range(m))


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
