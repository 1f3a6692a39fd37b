"""Connection algebra: tensor/dual/twist, uniformizer changes, weights,
nilpotency, cohomology, reduction sequences."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from prismlab import connops, series
from prismlab.connops import (bk_twist, change_uniformizer, check_nilpotent,
                              classify_ndR, cohomology, dual,
                              kummer_sen_operator, probe_nilpotency,
                              reduction_ses, residual_sen, tensor,
                              _near_integer_roots, _roots_above, _taylor_shift)
from prismlab.errors import (BadTruncationIndex, NotAUniformizer, RingMismatch)
from prismlab.field import INF, FieldElement, FieldSpec, lift
from prismlab.galois import _slope_threshold
from prismlab.linalg import Matrix
from prismlab.series import TruncSeries, lambda_approx
from prismlab.strat import LogConnection, from_connection, to_connection

from conftest import (FOUR_FIELDS, constant_conn, count_calls, count_element_products,
                      random_connection, random_element, random_rational, twist)
from ref import (compose_by_horner, derivative_by_coefficients, multiplier_by_quotient,
                 near_integer_roots_by_elements, near_weight_count_by_polygons, rank_oracle,
                 rewrite_by_composition, roots_above_by_fractions, taylor_shift_by_elements)


class TestTensorDualTwist:
    def test_twist_tensor_adds(self, q3):
        assert tensor(twist(q3, 3, 2), twist(q3, 3, 5)) == twist(q3, 3, 7)

    def test_dual_of_twist(self, q3s):
        assert dual(twist(q3s, 2, 4)) == twist(q3s, 2, -4)

    def test_trivial_is_unit_for_tensor(self, rng, q3):
        M = random_connection(rng, q3, 2, 3)
        assert tensor(LogConnection.trivial(q3, 1, 3), M) == M
        assert tensor(M, LogConnection.trivial(q3, 1, 3)) == M

    def test_tensor_respects_block_index(self, rng, q3):
        M1 = random_connection(rng, q3, 2, 2)
        M2 = random_connection(rng, q3, 3, 2)
        T = tensor(M1, M2)
        assert T.l == 6
        # entry ((i1,i2),(j1,j2)) = N1[i1][j1] [i2=j2] + N2[i2][j2] [i1=j1]
        assert T.N[0 * 3 + 1][1 * 3 + 1] == M1.N[0][1]
        assert T.N[1 * 3 + 0][1 * 3 + 2] == M2.N[0][2]
        expect = M1.N[1][1] + M2.N[2][2]
        assert T.N[1 * 3 + 2][1 * 3 + 2] == expect

    def test_ring_mismatch(self, rng, q3, q3s):
        with pytest.raises(RingMismatch):
            tensor(random_connection(rng, q3, 1, 2),
                   random_connection(rng, q3s, 1, 2))
        with pytest.raises(RingMismatch):
            tensor(random_connection(rng, q3, 1, 2),
                   random_connection(rng, q3, 1, 3))
        with pytest.raises(RingMismatch):
            tensor(random_connection(rng, q3, 1, 2),
                   random_connection(rng, q3, 1, 2, unif="y"))

    def test_twist_additivity_and_zero(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 2)
        assert bk_twist(M, 0) == M
        assert bk_twist(bk_twist(M, 3), -5) == bk_twist(M, -2)

    def test_twist_residual_weight(self, q3):
        rep = residual_sen(twist(q3, 2, 1))
        assert rep["split"]
        assert rep["weights"][0] == q3.one()


def nilpotent(M, a):
    return check_nilpotent(M, a)["status"] == "ProvenNilpotent"


@settings(max_examples=80, deadline=None)
@given(field=st.integers(0, 3), l1=st.integers(1, 2), l2=st.integers(1, 2),
       m=st.integers(1, 3), seed=st.integers(0, 10 ** 6))
def test_verdicts_obey_the_tensor_laws(field, l1, l2, m, seed):
    """The residual laws of the paper's tensor category, oracles that need
    no second implementation. The weights of M (x) M' are the sums w + w',
    and dist(w + w', Z) >= min(dist(w, Z), dist(w', Z)), so a-nilpotency
    is closed under tensor; the weights of dual(M) are the -w, so dual
    keeps the verdict; the identity of M (x) dual(M) is horizontal, so its
    h0 is at least 1 (here l^2 m <= 12). classify_ndR obeys the same laws
    at a_prism and a_log."""
    import random

    spec = FOUR_FIELDS[field]
    rng = random.Random(seed)
    M, M2 = random_connection(rng, spec, l1, m), random_connection(rng, spec, l2, m)
    both = tensor(M, M2)
    for a in (spec.a_prism(), spec.a_log(), spec.from_rational(spec.p), spec.one()):
        if nilpotent(M, a) and nilpotent(M2, a):
            assert nilpotent(both, a)
        assert nilpotent(dual(M), a) == nilpotent(M, a)
    flags = ("nearly_dR", "log_nearly_dR")
    one, two, prod = classify_ndR(M), classify_ndR(M2), classify_ndR(both)
    for flag in flags:
        if one[flag] and two[flag]:
            assert prod[flag]
    assert classify_ndR(dual(M)) == one
    assert cohomology(tensor(M, dual(M)))["h0"] >= 1


def random_uniformizer(rng, spec, m, unif):
    return TruncSeries(spec, m, [0, rng.choice([1, 2, 5, Fraction(1, 3)])]
                       + [random_element(rng, spec, 3) for _ in range(m - 2)], unif)


class TestChangeUniformizer:
    def test_scalar_rescale_keeps_shape(self, rng, q3):
        M = random_connection(rng, q3, 2, 3)
        y = TruncSeries(q3, 3, [0, 5], "y")
        My = change_uniformizer(M, y)
        inv5 = Fraction(1, 5)
        for i in range(2):
            for j in range(2):
                for k in range(3):
                    assert My.N[i][j].coeffs[k] == M.N[i][j].coeffs[k] * inv5 ** k
        assert My.unif == "y"
        assert My.residual_matrix() == M.residual_matrix()

    def test_t_squared_rejected(self, rng, q3):
        M = random_connection(rng, q3, 1, 3)
        with pytest.raises(NotAUniformizer):
            change_uniformizer(M, TruncSeries(q3, 3, [0, 0, 1], "y"))

    def test_multiplier_frozen_example(self, q3):
        # y = T + T^2 at m = 4; worked out by hand, the top coefficient
        # carries the round-trip gauge correction
        y = TruncSeries(q3, 4, [0, 1, 1, 0], "y")
        c = multiplier_by_quotient(y)
        assert [x.rational_value() for x in c.coeffs] == [
            Fraction(1), Fraction(-1), Fraction(2), Fraction(7, 2)]
        z = y.reversion()
        cz = multiplier_by_quotient(z)
        assert [x.rational_value() for x in cz.coeffs] == [
            Fraction(1), Fraction(1), Fraction(-2), Fraction(-5, 2)]
        # composing the two legs multiplies c_z(y(T)) by c(T): exactly 1
        prod = compose_by_horner(cz, y) * c
        assert prod == TruncSeries.one(q3, 4)

    def test_round_trip_random_uniformizer(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 4)
        y = TruncSeries(q3s, 4, [0, 2, random_element(rng, q3s, 3),
                                 random_element(rng, q3s, 3)], "y")
        My = change_uniformizer(M, y)
        back = change_uniformizer(My, y.reversion().with_unif("T"))
        assert back == M

    @pytest.mark.parametrize("F", range(6))
    @pytest.mark.parametrize("field", range(4))
    def test_round_trip_lambda_all_moduli(self, rng, field, F):
        """u - pi -> lambda_F -> u - pi is exact on a dense rank-2
        connection for m = 2..8, on the benchmark's four fields."""
        spec = FOUR_FIELDS[field]
        for m in range(2, 9):
            M = random_connection(rng, spec, 2, m, unif="u-pi")
            lam = lambda_approx(spec, F, m)
            My = change_uniformizer(M, lam)
            back = change_uniformizer(My, lam.reversion().with_unif("u-pi"))
            assert back == M
            assert My.unif == f"lambda{F}"

    def test_no_reversion_and_no_composition(self, rng, q3s, monkeypatch):
        """Operation counts: a 3 x 3 transport inverts y/T once, takes the
        powers h^2..h^(m-1) of h = (y/T)^(-1) (m pair_dots each), [T^(m-1)]
        h^m and the gauge entry (one each), and one pair_dot per output
        coefficient of the 9 entries; it makes no series product, no
        element product outside the inversion, reverts and composes nothing
        and rewrites no entry on its own. lambda_approx and the Kummer
        transport make no series or element product either."""
        never = {"reversion": 0, "compose": 0, "derivative": 0, "rewrite_in_uniformizer": 0,
                 "__mul__": 0}
        calls = count_calls(monkeypatch, [
            (TruncSeries, "reversion"), (TruncSeries, "compose"), (TruncSeries, "derivative"),
            (series, "rewrite_in_uniformizer"), (TruncSeries, "invert_unit"),
            (TruncSeries, "__mul__"), (series, "pair_dot"), (connops, "pair_dot")])
        products = count_element_products(monkeypatch)
        for m in (2, 4, 7):
            M = random_connection(rng, q3s, 3, m)
            y = random_uniformizer(rng, q3s, m, "y")
            before = dict(calls)
            change_uniformizer(M, y)
            assert {k: n - before[k] for k, n in calls.items()} == {
                **never, "invert_unit": 1, "pair_dot": (m - 2) * m + 2 + 9 * m}
        kummer_sen_operator(random_connection(rng, q3s, 3, 4, unif="u-pi"), 2)
        assert {k: calls[k] for k in never} == never
        assert products == {"outside": 0}

    def test_modulus_one_relabel(self, rng, q3):
        M = random_connection(rng, q3, 2, 1, unif="u-pi")
        My = change_uniformizer(M, lambda_approx(q3, 0, 1))
        assert My.N == M.N and My.unif == "lambda0"

    def test_modulus_one_refuses_a_unit(self, rng, q3):
        M = random_connection(rng, q3, 2, 1)
        with pytest.raises(NotAUniformizer, match="vanish to exact order one"):
            change_uniformizer(M, TruncSeries(q3, 1, [5], "y"))


class TestKummerSen:
    def test_requires_u_pi_presentation(self, rng, q3):
        M = random_connection(rng, q3, 1, 2, unif="T")
        with pytest.raises(RingMismatch):
            kummer_sen_operator(M, 0)

    def test_residual_matrix_preserved(self, rng, q3s):
        for F in (0, 1, 2):
            M = random_connection(rng, q3s, 2, 3, unif="u-pi")
            My = kummer_sen_operator(M, F)
            assert My.residual_matrix() == M.residual_matrix()
            assert My.unif == f"lambda{F}"

    def test_trivial_weight_zero_preserved(self, q3s):
        M = LogConnection.trivial(q3s, 1, 3, unif="u-pi")
        My = kummer_sen_operator(M, 1)
        rep = residual_sen(My)
        assert rep["split"] and rep["weights"][0].is_zero()

    def test_twist_weight_preserved(self, q3):
        M = twist(q3, 3, 4, unif="u-pi")
        rep = residual_sen(kummer_sen_operator(M, 2))
        assert rep["split"] and rep["weights"][0] == q3.from_rational(Fraction(4))

    def test_unit_clearing_identity(self):
        """(u lambda')^-1 (u lambda/T) = (lambda')^-1 (lambda/T) with
        T = u - pi, so the transport multiplier may drop the unit u; over
        the benchmark's four fields, F = 0..3 and m = 2..6."""
        for spec in FOUR_FIELDS:
            for F in range(4):
                for m in range(2, 7):
                    lam = lambda_approx(spec, F, m)
                    u = TruncSeries(spec, m, [spec.pi(), spec.one()], "u-pi")
                    deriv, base = derivative_by_coefficients(lam), lam.shift_down()
                    assert (u * deriv).invert_unit() * (u * base) == \
                        deriv.invert_unit() * base

    def test_depth_zero_rational_field_is_scalar_case(self, rng, q3):
        # E = u - 3: lambda_0 = -(u - pi)/3, a scalar multiple of T
        lam = lambda_approx(q3, 0, 2)
        assert lam.coeffs[0].is_zero()
        assert lam.coeffs[1] == q3.from_rational(Fraction(-1, 3))
        M = random_connection(rng, q3, 2, 2, unif="u-pi")
        My = kummer_sen_operator(M, 0)
        for i in range(2):
            for j in range(2):
                assert My.N[i][j].coeffs[0] == M.N[i][j].coeffs[0]
                assert My.N[i][j].coeffs[1] == M.N[i][j].coeffs[1] * (-3)


class TestResidualSen:
    def test_rank_one_rational(self, q3):
        rep = residual_sen(constant_conn(q3, 2, [[Fraction(22, 7)]]))
        assert rep["split"]
        assert rep["weights"][0] == q3.from_rational(Fraction(22, 7))

    def test_jordan_block_multiplicity(self, q3):
        rep = residual_sen(constant_conn(q3, 1, [[0, 1], [0, 0]]))
        assert rep["split"]
        assert all(w.is_zero() for w in rep["weights"])
        chi = rep["chi"]
        assert [c.rational_value() for c in chi] == [0, 0, 1]

    def test_companion_square_root_of_three(self, q3s):
        rep = residual_sen(constant_conn(q3s, 1, [[0, 3], [1, 0]]))
        assert rep["split"]
        pi = q3s.pi()
        assert {tuple(w.coords) for w in rep["weights"]} == {
            tuple(pi.coords), tuple((-pi).coords)}

    def test_non_split_quadratic(self, q3):
        rep = residual_sen(constant_conn(q3, 1, [[0, 2], [1, 0]]))
        assert not rep["split"]
        assert rep["weights"] is None

    def test_per_weight_margins(self, q3):
        rep = residual_sen(constant_conn(q3, 1, [[Fraction(1, 3)]]))
        pw = rep["per_weight"][0]
        assert pw["dist"] == Fraction(-1)
        assert pw["margin_prism"] == Fraction(-1)
        assert pw["margin_log"] == Fraction(0)
        assert pw["nearest_integer_certificate"] == 0

    def test_certificate_matches_deep_digit(self, q3):
        rep = residual_sen(constant_conn(q3, 1, [[Fraction(1, 2)]]))
        pw = rep["per_weight"][0]
        assert pw["dist"] is INF
        assert pw["nearest_integer_certificate"] is None


class TestNilpotency:
    def test_integer_weights_proven(self, q3):
        rep = check_nilpotent(twist(q3, 2, 2), 1)
        assert rep["status"] == "ProvenNilpotent"

    def test_negative_integer_weight(self, q3):
        rep = check_nilpotent(constant_conn(q3, 1, [[-1]]), 1)
        assert rep["status"] == "ProvenNilpotent"

    def test_one_over_p_not_nilpotent(self, q3):
        M = constant_conn(q3, 1, [[Fraction(1, 3)]])
        rep = check_nilpotent(M, 1)
        assert rep["status"] == "ProvenNotNilpotent"
        probe = probe_nilpotency(M, 1, n_max=6)
        assert probe["trace"] == [0, -1, -2, -3, -4, -5, -6]

    def test_probe_convergent_non_split(self, q3):
        # weights +-sqrt 2, units at distance 0 from Z: nilpotent exactly
        # when val(a) > 0, as the probe's trace, n * val(a), also shows
        M = constant_conn(q3, 1, [[0, 2], [1, 0]])
        assert check_nilpotent(M, 3)["status"] == "ProvenNilpotent"
        assert probe_nilpotency(M, 3)["trace"] == list(range(201))
        assert check_nilpotent(M, Fraction(1, 3))["status"] == "ProvenNotNilpotent"
        assert probe_nilpotency(M, Fraction(1, 3))["trace"] == list(range(0, -201, -1))

    def test_charpoly_count_bounded(self, q3, monkeypatch):
        # weights +-sqrt 7 lie in Z_3 but not in the candidate search, so
        # they are near integers at every depth: the descent walks all 41
        # digits of a = 3^-40 on Taylor shifts of one charpoly
        M = constant_conn(q3, 1, [[0, 7], [1, 0]])
        assert not residual_sen(M)["split"]
        calls, shifts = [], []
        charpoly, shift = Matrix.charpoly_numerators, connops._taylor_shift
        monkeypatch.setattr(Matrix, "charpoly_numerators",
                            lambda self: calls.append(1) or charpoly(self))
        monkeypatch.setattr(connops, "_taylor_shift",
                            lambda chi, s: shifts.append(s) or shift(chi, s))
        rep = check_nilpotent(M, Fraction(1, 3 ** 40))
        assert rep["status"] == "ProvenNilpotent"
        assert len(calls) == 1
        # at most l discs live per level, each shifted p - 1 times
        assert 41 <= len(shifts) <= (3 - 1) * 2 * 41

    def test_verdicts_read_no_coefficient_valuation(self, q3, cubic3, monkeypatch):
        """Operation counts: a verdict takes val() of its scalar only; the
        charpoly's coefficients and their Taylor shifts are compared on
        integers. Weights +-sqrt 7 at a = 3^-6 walk seven levels of discs."""
        calls = count_calls(monkeypatch, [(FieldElement, "val")])
        M = constant_conn(q3, 1, [[0, 7], [1, 0]])
        assert check_nilpotent(M, Fraction(1, 3 ** 6))["status"] == "ProvenNilpotent"
        assert calls["val"] <= 1
        calls["val"] = 0
        classify_ndR(constant_conn(cubic3, 1, [[0, 7, 1], [1, 0, 2], [0, 1, 5]]))
        assert calls["val"] <= 2

    def test_verdicts_make_no_field_arithmetic(self, q3, cubic3, monkeypatch):
        """Operation counts: the residual charpoly, its Taylor shifts and
        its Newton polygons all run on integer numerators, so neither
        verdict multiplies, adds or subtracts a field element."""
        names = ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__")
        cubic3.a_log()
        M = constant_conn(cubic3, 1, [[0, 7, 1], [1, 0, 2], [0, 1, Fraction(5, 3)]])
        N = constant_conn(q3, 1, [[0, 7], [1, 0]])
        calls = count_calls(monkeypatch, [(FieldElement, name) for name in names])
        assert check_nilpotent(N, Fraction(1, 3 ** 6))["status"] == "ProvenNilpotent"
        check_nilpotent(M, cubic3.pi())
        classify_ndR(M)
        assert calls == dict.fromkeys(names, 0)

    def test_scalar_from_another_field_refused(self, q3, q3s):
        # pi^3 of Q_3(sqrt 3) has valuation 3/2, and read as a scalar over
        # Q_3 it would make the weight 1/3 near
        M = constant_conn(q3, 1, [[Fraction(1, 3)]])
        with pytest.raises(RingMismatch, match="different field"):
            check_nilpotent(M, q3s.pi() ** 3)
        assert check_nilpotent(M, 27)["status"] == "ProvenNilpotent"
        assert check_nilpotent(M, q3.from_rational(3))["status"] == "ProvenNotNilpotent"

    def test_probe_trace_exact_slope(self, q3):
        # integer entries and unit determinant of chi(i) pin the trace to
        # n * val(a) exactly
        M = constant_conn(q3, 1, [[0, 2], [1, 0]])
        probe = probe_nilpotency(M, 3, n_max=5)
        assert probe["trace"] == [0, 1, 2, 3, 4, 5]

    @pytest.mark.parametrize("residue", [[[0, -3], [-2, -2]],
                                         [[2, Fraction(1, 3)], [0, Fraction(1, 2)]]])
    def test_weights_in_z3_nilpotent_where_the_trace_falls(self, q3, residue):
        # every weight lies in Z_3, so M is a-nilpotent at every a; at
        # a = 1/27 such a weight comes within 3 of an integer only once in
        # 27 steps, so the last 20 steps of the trace fall strictly all the
        # same: the verdict is the charpoly's, not the trace's
        M = constant_conn(q3, 1, residue)
        assert check_nilpotent(M, Fraction(1, 27))["status"] == "ProvenNilpotent"
        tail = probe_nilpotency(M, Fraction(1, 27))["trace"][-21:]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    def test_probe_without_steps(self, q3):
        # the probe returns its trace and nothing else; at n_max = 0 that is
        # the valuation of the empty product
        M = constant_conn(q3, 1, [[0, 2], [1, 0]])
        assert probe_nilpotency(M, Fraction(1, 3), n_max=0) == {"trace": [0]}

    def test_early_zero_product(self, q3):
        probe = probe_nilpotency(twist(q3, 1, 2), 1, n_max=50)
        assert probe["trace"][-1] is INF
        # (2)(2-1)(2-2) = 0, so the walk stops at step 3 of the 50 allowed
        assert len(probe["trace"]) == 4

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_zero_scalar_is_nilpotent(self, rng, l):
        """val(0) = +inf puts every weight near: at a = 0 the verdict is
        nilpotent with all l weights counted, whatever the residue."""
        for spec in FOUR_FIELDS:
            M = random_connection(rng, spec, l, 2)
            for a in (0, spec.zero()):
                assert check_nilpotent(M, a) == {"status": "ProvenNilpotent",
                                                 "evidence": {"near_weights": l}}

    def test_prism_implies_log(self, rng, q3s):
        for w in (2, -3, Fraction(1, 2), 0):
            M = constant_conn(q3s, 2, [[w]])
            if check_nilpotent(M, q3s.a_prism())["status"] == "ProvenNilpotent":
                assert check_nilpotent(M, q3s.a_log())["status"] == "ProvenNilpotent"


class TestClassify:
    def test_integer_weights_both_flags(self, q3):
        rep = classify_ndR(constant_conn(q3, 2, [[3, 0], [1, -2]]))
        assert rep["status"] == "proven"
        assert rep["nearly_dR"] is True and rep["log_nearly_dR"] is True

    def test_one_half_both_true(self, q3):
        rep = classify_ndR(constant_conn(q3, 1, [[Fraction(1, 2)]]))
        assert rep["nearly_dR"] and rep["log_nearly_dR"]

    def test_one_third_neither(self, q3):
        rep = classify_ndR(constant_conn(q3, 1, [[Fraction(1, 3)]]))
        assert rep["nearly_dR"] is False and rep["log_nearly_dR"] is False

    def test_pi_over_three_splits_flags(self, q3s):
        M = LogConnection(q3s, "T", 1, 1,
                          [[TruncSeries.constant(q3s, 1, q3s.element([0, Fraction(1, 3)]))]])
        rep = classify_ndR(M)
        assert rep["status"] == "proven"
        assert rep["nearly_dR"] is False
        assert rep["log_nearly_dR"] is True

    def test_non_split_decided_exactly(self, q3):
        # weights +-sqrt 2 outside Q_3 at distance 0: margin 0 for a_prism = -1,
        # 1 for a_log = -3
        M = constant_conn(q3, 1, [[0, 2], [1, 0]])
        rep = classify_ndR(M)
        assert rep == {"status": "proven", "nearly_dR": False, "log_nearly_dR": True}
        assert check_nilpotent(M, 1)["status"] == "ProvenNotNilpotent"

    def test_nearly_implies_log_nearly(self, rng, q3s):
        for _ in range(10):
            M = constant_conn(q3s, 1, [[random_element(rng, q3s, 5)]])
            rep = residual_sen(M)
            if not rep["split"]:
                continue
            cl = classify_ndR(M)
            if cl["nearly_dR"]:
                assert cl["log_nearly_dR"]

    def test_stable_under_twist(self, q3s):
        M = constant_conn(q3s, 2, [[Fraction(1, 2)]])
        for n in (-3, 0, 4):
            rep = classify_ndR(bk_twist(M, n))
            assert rep["nearly_dR"] is True and rep["log_nearly_dR"] is True


class TestCohomology:
    def test_trivial_rank_one(self, q3):
        rep = cohomology(LogConnection.trivial(q3, 1, 3))
        assert rep["h0"] == 1 and rep["h1"] == 1
        assert rep["h0_basis"] == [[q3.one(), q3.zero(), q3.zero()]]
        assert rep["h1_representatives"] == [0]

    def test_twist_one_vanishes(self, q3):
        rep = cohomology(twist(q3, 2, 1))
        assert rep["h0"] == 0 and rep["h1"] == 0

    def test_twist_minus_one(self, q3):
        rep = cohomology(twist(q3, 3, -1))
        assert rep["h0"] == 1 and rep["h1"] == 1

    def test_twist_window_formula_with_oracle(self, q3s):
        for m in (1, 2, 3):
            for n in range(-4, 5):
                M = twist(q3s, m, n)
                rep = cohomology(M)
                expect = 1 if -n in range(m) else 0
                assert rep["h0"] == expect and rep["h1"] == expect
                r = rank_oracle(M.operator())
                assert rep["h0"] == m - r

    def test_random_matrix_against_oracle(self, rng, q3s):
        for _ in range(5):
            M = random_connection(rng, q3s, 2, 2)
            rep = cohomology(M)
            r = rank_oracle(M.operator())
            assert rep["h0"] == 4 - r and rep["h1"] == 4 - r

    def test_invariant_under_uniformizer_change(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 3, unif="u-pi")
        base = cohomology(M)
        for F in (0, 1):
            moved = cohomology(kummer_sen_operator(M, F))
            assert (moved["h0"], moved["h1"]) == (base["h0"], base["h1"])

    def test_invariant_under_strat_round_trip(self, rng, q3):
        M = random_connection(rng, q3, 2, 2)
        back = to_connection(from_connection(M, q3.a_prism(), 6))
        assert cohomology(back) == cohomology(M)

    def test_one_elimination(self, rng, q3s, monkeypatch):
        """Operation counts: one pass of elimination, no rref."""
        calls = count_calls(monkeypatch, [(Matrix, "reduce_rows"), (Matrix, "rref"),
                                          (Matrix, "transpose")])
        cohomology(bk_twist(random_connection(rng, q3s, 2, 3), -1))
        assert calls == {"reduce_rows": 1, "rref": 0, "transpose": 0}

    def test_kernel_vectors_annihilated(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 3)
        op = M.operator()
        for v in cohomology(M)["h0_basis"]:
            assert all(x.is_zero() for x in op.apply(v))


class TestReduction:
    def test_trivial_modulus_two(self, q3):
        M = LogConnection.trivial(q3, 1, 2)
        rep = reduction_ses(M, 1)
        assert rep["sub"] == twist(q3, 1, 1)
        assert rep["quotient"] == LogConnection.trivial(q3, 1, 1)
        assert rep["intertwines"] and rep["exact"]

    def test_rank_count_and_intertwine_random(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 4)
        for k in (1, 2, 3):
            rep = reduction_ses(M, k)
            assert rep["intertwines"] and rep["exact"]
            assert rep["sub"].size() + rep["quotient"].size() == M.size()

    def test_bad_index(self, rng, q3):
        M = random_connection(rng, q3, 1, 3)
        for k in (0, 3, 5, -1):
            with pytest.raises(BadTruncationIndex):
                reduction_ses(M, k)

    def test_two_eliminations(self, rng, q3s, monkeypatch):
        """Operation counts: exactness reads the rank of the inclusion and
        of the projection once each, since l*(m-k) + l*k = l*m."""
        calls = count_calls(monkeypatch, [(Matrix, "reduce_rows")])
        assert reduction_ses(random_connection(rng, q3s, 2, 4), 1)["exact"]
        assert calls == {"reduce_rows": 2}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 4))
def test_uniformizer_round_trip_property(seed, m):
    import random
    spec = FieldSpec(3, [-3, 0, 1])
    rng = random.Random(seed)
    M = random_connection(rng, spec, 2, m)
    coeffs = [0, rng.choice([1, 2, 5, Fraction(1, 2)])]
    coeffs += [random_element(rng, spec, 3) for _ in range(m - 2)]
    y = TruncSeries(spec, m, coeffs, "y")
    back = change_uniformizer(change_uniformizer(M, y),
                              y.reversion().with_unif("T"))
    assert back == M


def composed_changes(rng, M, m):
    """change(change(M, y), z) and change(M, z(y)) for random y and z."""
    y = random_uniformizer(rng, M.spec, m, "y")
    z = random_uniformizer(rng, M.spec, m, "z")
    return (change_uniformizer(change_uniformizer(M, y), z),
            change_uniformizer(M, compose_by_horner(z, y).with_unif("z")))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), field=st.integers(0, 3), l=st.integers(1, 2),
       m=st.integers(2, 6))
def test_composed_changes_agree_below_the_top_degree(seed, field, l, m):
    """Change of uniformizer is a functor up to the free top coefficient of
    its multiplier: two changes in a row and one change along the composite
    agree below degree m - 1."""
    import random
    rng = random.Random(seed)
    M = random_connection(rng, FOUR_FIELDS[field], l, m)
    two, one = composed_changes(rng, M, m)
    assert two.unif == one.unif == "z"
    assert ([[s.coeffs[:m - 1] for s in row] for row in two.N]
            == [[s.coeffs[:m - 1] for s in row] for row in one.N])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), field=st.integers(0, 3), m=st.integers(2, 5),
       coupling=st.sampled_from([0, 1, "random"]))
def test_composed_changes_keep_cohomology_and_verdicts(seed, field, m, coupling):
    """The two results differ at most at degree m - 1, yet are isomorphic:
    equal h0 and h1 (those of M) and equal verdicts, on the resonant
    weights 0 and -(m-1), where h0 and h1 read the top degree, coupled by
    the residue's corner entry."""
    import random
    spec = FOUR_FIELDS[field]
    rng = random.Random(seed)
    if coupling == "random":
        coupling = random_element(rng, spec, 3)

    def entry(c0):
        return TruncSeries(spec, m, [c0] + [random_element(rng, spec, 3) if rng.random() < 0.6
                                            else 0 for _ in range(m - 1)])
    M = LogConnection(spec, "T", 2, m, [[entry(0), entry(coupling)],
                                        [entry(0), entry(1 - m)]])
    two, one = composed_changes(rng, M, m)
    want = cohomology(M)
    for moved in (two, one):
        got = cohomology(moved)
        assert (got["h0"], got["h1"]) == (want["h0"], want["h1"])
    assert classify_ndR(two) == classify_ndR(one)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(-4, 4))
def test_twist_preserves_classification(seed, n):
    import random
    spec = FieldSpec(3, [-3, 1])
    rng = random.Random(seed)
    w = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 9]))
    M = constant_conn(spec, 2, [[w]])
    a, b = classify_ndR(M), classify_ndR(bk_twist(M, n))
    assert (a["nearly_dR"], a["log_nearly_dR"]) == (b["nearly_dR"], b["log_nearly_dR"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), field=st.integers(0, 3), l=st.integers(1, 2),
       scalar=st.sampled_from(["prism", "log", -2, -1, 0, 1, 2]))
@example(seed=161, field=1, l=2, scalar=-2)
def test_nilpotency_matches_margins_and_probe(seed, field, l, scalar):
    """The charpoly verdict against the per-weight margins wherever the
    weights split over K, and against the exact near-weight count
    (near_weight_count_by_polygons) everywhere: nilpotent iff all l weights are near.

    The probe is no reference here: its 20-step window can fall strictly at
    val(a) = -2 as well, as on the pinned draw over Q_3(sqrt 3), where both
    weights lie near integers and the probe answers ProbeDivergent.
    """
    import random
    spec = FOUR_FIELDS[field]
    rng = random.Random(seed)
    rows = [[spec.element([random_rational(rng) if rng.random() < 0.7 else 0
                           for _ in range(spec.e)]) for _ in range(l)]
            for _ in range(l)]
    M = constant_conn(spec, 1, rows)
    a = {"prism": spec.a_prism(), "log": spec.a_log()}.get(scalar)
    if a is None:
        a = spec.from_rational(Fraction(spec.p) ** scalar)
    nilpotent = check_nilpotent(M, a)["status"] == "ProvenNilpotent"
    sen = residual_sen(M)
    if sen["split"]:
        assert nilpotent == all(a.val() + pw["dist"] > 0 for pw in sen["per_weight"])
    assert nilpotent == (near_weight_count_by_polygons(M, a) == l)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), field=st.integers(0, 3), l=st.integers(1, 3))
@example(seed=1, field=0, l=3)  # over Q_3, both flags true
@example(seed=3, field=0, l=3)  # over Q_3, only log_nearly_dR
def test_classify_flags_match_polygon_counts(seed, field, l):
    """Both flags against the exact near-weight count at a_prism and a_log
    (near_weight_count_by_polygons). Over Q_3 val(a_prism) = 0 takes the
    descent; every other scalar here has val(a) > 0 and takes the one disc,
    read off the shared valuation table."""
    import random
    spec = FOUR_FIELDS[field]
    rng = random.Random(seed)
    rows = [[spec.element([random_rational(rng) if rng.random() < 0.7 else 0
                           for _ in range(spec.e)]) for _ in range(l)]
            for _ in range(l)]
    M = constant_conn(spec, 1, rows)
    rep = classify_ndR(M)
    assert (rep["nearly_dR"], rep["log_nearly_dR"]) == tuple(
        near_weight_count_by_polygons(M, a) == l for a in (spec.a_prism(), spec.a_log()))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), field=st.integers(0, 3), l=st.integers(1, 3),
       m=st.integers(2, 8))
def test_change_uniformizer_matches_entrywise_rewrite(seed, field, l, m):
    """The power table of (y/T)^(-1), its gauge entry included, against
    rewriting each entry c * N_ij in y on its own with the reference
    multiplier, one reversion per entry."""
    import random
    spec = FOUR_FIELDS[field]
    rng = random.Random(seed)
    M = random_connection(rng, spec, l, m, unif="u-pi")
    if rng.random() < 0.5:
        y = lambda_approx(spec, rng.randrange(3), m)
    else:
        y = random_uniformizer(rng, spec, m, "y")
    c = multiplier_by_quotient(y)
    want = [[rewrite_by_composition(c * M.N[i][j], y) for j in range(l)] for i in range(l)]
    got = change_uniformizer(M, y)
    assert got.N == want and got.unif == y.unif
    assert all(s.unif == y.unif for row in got.N for s in row)


@st.composite
def monic_polys(draw):
    """A monic polynomial of degree 1-5 over a benchmark field, its lower
    coefficients zero or carrying powers of p."""
    spec = draw(st.sampled_from(FOUR_FIELDS))
    p = spec.p
    coord = st.builds(lambda n, k, d: n * Fraction(p) ** k / d, st.integers(-10 ** 4, 10 ** 4),
                      st.integers(-6, 6), st.integers(1, 20))
    coef = st.lists(st.one_of(st.just(0), coord), min_size=spec.e, max_size=spec.e).map(spec.element)
    lower = draw(st.lists(coef, min_size=1, max_size=5))
    return lower + [spec.one()]


@settings(max_examples=150, deadline=None)
@given(monic_polys(), st.one_of(
    # the convergence thresholds d*: denominators (p-1) p^(q+1) do not divide e
    st.fractions(min_value=Fraction(1, 400), max_value=3, max_denominator=400).map(lambda s: ("d*", s)),
    st.fractions(min_value=-4, max_value=4, max_denominator=12).map(lambda c: ("c", c))))
def test_roots_above_matches_fraction_newton_polygon(chi, threshold):
    kind, x = threshold
    c = _slope_threshold(x, chi[0].spec.p) if kind == "d*" else x
    spec, f = chi[0].spec, lift(chi)[1]
    assert _roots_above(spec, f, c) == roots_above_by_fractions(chi, c)
    assert _roots_above(spec, f, math.floor(c)) == roots_above_by_fractions(chi, math.floor(c))


@settings(max_examples=200, deadline=None)
@given(monic_polys(), st.one_of(
    st.fractions(min_value=Fraction(1, 400), max_value=3, max_denominator=400).map(lambda s: ("d*", s)),
    st.integers(-4, 4).map(lambda c: ("c", Fraction(c))),
    st.fractions(min_value=-4, max_value=4, max_denominator=12).map(lambda c: ("c", c))))
@example([FOUR_FIELDS[0].from_rational(-7), FOUR_FIELDS[0].zero(), FOUR_FIELDS[0].one()],
         ("c", Fraction(3)))
@example([FOUR_FIELDS[3].zero(), FOUR_FIELDS[3].one()], ("c", Fraction(0)))
def test_near_integer_roots_match_element_descent(chi, threshold):
    """The descent on the lifted numerator tuples against the same descent
    on field elements, at c negative, zero, integral and fractional, and at
    the convergence thresholds d*; x^2 - 7 over Q_3 walks every level."""
    kind, x = threshold
    spec = chi[0].spec
    c = _slope_threshold(x, spec.p) if kind == "d*" else x
    assert _near_integer_roots(spec, lift(chi)[1], c) == near_integer_roots_by_elements(chi, c)


def test_taylor_shift_matches_element_shift():
    """Coordinate j of the integer shift is den times the element shift's."""
    for spec in FOUR_FIELDS:
        chi = [spec.element([Fraction(i - j, 3 + j) for j in range(spec.e)]) for i in range(4)]
        chi.append(spec.one())
        den, f = lift(chi)
        for s in (-4, 1, 9):
            shifted = taylor_shift_by_elements(chi, s)
            assert _taylor_shift(f, s) == [tuple(x * den for x in y.coords) for y in shifted]
