"""Action-kernel series, comparison series H, convergence verdicts."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prismlab import connops, galois
from prismlab.errors import (InputFormatError, InvalidValuation, PrismlabError,
                             RingMismatch)
from prismlab.field import INF, FieldElement, FieldSpec
from prismlab.galois import (GaloisElementData, GaloisKernel, _slope_threshold,
                             action_kernel, converges_at, d0_check, digit_count, digit_sum,
                             factorial_val, h_series, tau_power_kernel)
from prismlab.linalg import Matrix, PackedLevel
from prismlab.series import TruncSeries
from prismlab.strat import LogConnection, from_connection

from conftest import constant_conn, count_calls, random_connection, random_element, twist
from ref import (falling_by_products, gauss_val_by_entries, slope_threshold_by_loop,
                 trace_growth_by_products)


class TestFactorialVal:
    def test_small_values(self):
        assert [factorial_val(n, 3) for n in range(10)] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 4]
        assert factorial_val(12, 2) == 10
        assert digit_sum(26, 3) == 2 + 2 + 2

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_digit_count(self, p):
        # the K of the vanishing branch: the least K with p^K > t
        assert digit_count(0, p) == 0
        for j in (1, 2, 3, 10, 64, 2000):
            assert digit_count(p ** j - 1, p) == j
            assert digit_count(p ** j, p) == j + 1


class TestActionKernel:
    def test_matches_stratification_family(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 3)
        a = q3s.a_prism()
        k = action_kernel(M, a, 5)
        strat = from_connection(M, a, 5)
        assert all(k.A[n] == strat.phi[n] for n in range(6))
        assert k.tag == "prismatic"

    def test_recurrence(self, rng, q3):
        M = random_connection(rng, q3, 2, 2)
        a = q3.from_rational(Fraction(2, 3))
        k = action_kernel(M, a, 4)
        one = Matrix.identity(q3, 4)
        for n in range(4):
            assert k.A[n + 1] == (k.A[1] - one.scale(a * n)) * k.A[n]

    def test_zero_operator(self, q3):
        M = LogConnection.trivial(q3, 2, 1)
        k = action_kernel(M, 1, 4)
        assert k.tag == "custom"
        for n in range(1, 5):
            assert k.A[n].is_zero()

    def test_scalar_weight_product(self, q3):
        a = q3.from_rational(Fraction(7))
        k = action_kernel(constant_conn(q3, 1, [[5]]), a, 2)
        assert k.A[2][0, 0] == a * a * 20

    def test_twist_diagonal_closed_form(self, q3):
        a = q3.from_rational(Fraction(5))
        M = twist(q3, 3, 2)
        k = action_kernel(M, a, 3)
        for kk in range(4):
            for j in range(3):
                expect = q3.from_rational(Fraction(5) ** kk * falling_by_products(2 + j, kk))
                assert k.A[kk][j, j] == expect
                for j2 in range(3):
                    if j2 != j:
                        assert k.A[kk][j, j2].is_zero()

    def test_tag_detection(self, rng, q3):
        M = random_connection(rng, q3, 1, 2)
        assert action_kernel(M, q3.a_log(), 2).tag == "log"
        assert action_kernel(M, 7, 2).tag == "custom"

    def test_identity_slot_required(self, q3):
        z = Matrix.zero(q3, 2, 2)
        with pytest.raises(PrismlabError):
            GaloisKernel([z, z], q3.one())

    def test_spec_D_and_tag_read_off_operators_and_a(self, q3):
        one = Matrix.identity(q3, 1)
        k = GaloisKernel([one, one.scale(q3.a_log())], q3.a_log(), 6)
        assert (k.spec, k.D, k.tag, k.c) == (q3, 1, "log", 6)
        assert GaloisKernel((one,), 1).tag == "custom"

    def test_kernel_built_in_process_is_checked(self, q3):
        """The constructor refuses what conn converges refuses of a kernel's
        JSON, with the same messages: a c that is neither p^i nor 2 p^i,
        an A_n off A_(n+1) = (A_1 - n*a) A_n (which converges_at would
        answer from A_1 alone), operators or an a over another field, and
        operators of different sizes."""
        q5 = FieldSpec(5, [-5, 1])
        one, one5 = Matrix.identity(q3, 1), Matrix.identity(q5, 1)
        off = [one, Matrix(q3, [[Fraction(1, 3)]]), Matrix(q3, [[Fraction(1, 3 ** 10)]])]
        for args, error, line in (
                (([one, one], 1, 7), InputFormatError, "kernel c must be p\\^i or 2 p\\^i"),
                ((off, 1), InputFormatError, "kernel operator A_2 breaks A_\\(n\\+1\\) "),
                (([one, one], q5.one()), RingMismatch, "element over a different field"),
                (([one, one5], 1), RingMismatch, "operator over a different field"),
                (([one, Matrix.identity(q3, 2)], 1), InputFormatError,
                 "kernel operators must share one square size"),
                (([], 1), InputFormatError, "kernel needs operators A_0..A_D")):
            with pytest.raises(error, match=f"^{line}"):
                GaloisKernel(*args)
        assert GaloisKernel([one, one], 1, 3).c == 3
        assert GaloisKernel(off[:2], 1).D == 1

    def test_family_at_another_a_refused_as_its_list(self, q3):
        """A family checks the a it was generated at against the kernel's,
        as a list is checked by its walk: another a moves A_2 by
        (a - A.a) A_1, so both forms are refused once D >= 2 and A_1 != 0,
        and both are built when D < 2 or A_1 = 0."""
        M = constant_conn(q3, 1, [[0, 2], [1, 0]])
        zero = constant_conn(q3, 1, [[0]])
        for conn, a, D, refused in ((M, q3.a_prism(), 4, True), (M, q3.a_prism(), 2, True),
                                    (M, q3.a_prism(), 1, False), (M, 0, 4, False),
                                    (zero, q3.a_prism(), 4, False), (M, 5, 4, False)):
            strat = from_connection(conn, a, D)
            for A in (strat.phi, list(strat.phi)):
                if refused:
                    with pytest.raises(InputFormatError,
                                       match="^kernel operator A_2 breaks A_\\(n\\+1\\) "):
                        GaloisKernel(A, 5)
                else:
                    assert GaloisKernel(A, 5).D == D

    def test_generated_family_takes_no_recurrence_walk(self, rng, q3, monkeypatch):
        def walk(*args):
            raise AssertionError("recurrence walked")
        monkeypatch.setattr(galois, "first_off_recurrence", walk)
        M = random_connection(rng, q3, 1, 2)
        k = action_kernel(M, q3.a_prism(), 4)
        assert k.D == 4 and tau_power_kernel(M, 2, "Kpi1", D=4).c == 18
        with pytest.raises(AssertionError, match="recurrence walked"):
            GaloisKernel(list(k.A), k.a)


class TestHSeries:
    def test_low_degrees_explicit(self, rng, q3):
        M = random_connection(rng, q3, 2, 1)
        a = q3.from_rational(Fraction(3, 2))
        H = h_series(M, a, 3)
        op = M.operator()
        one = Matrix.identity(q3, 2)
        assert H[0].is_zero()
        assert H[1] == one
        assert H[2] == (op - one).scale(a)
        assert H[3] == ((op - one.scale(2)) * (op - one)).scale(a * a)

    def test_degree_zero_and_below(self, rng, q3):
        """Below degree 1 the series holds only its zero slot 0, whatever
        operator_family yields for a count below 1."""
        M = random_connection(rng, q3, 2, 1)
        zero = Matrix.zero(q3, 2, 2)
        for D in (0, -1, -3):
            assert h_series(M, q3.one(), D) == [zero]

    def test_d0_trivial(self, q3):
        rep = d0_check(LogConnection.trivial(q3, 2, 1), 1, 4)
        assert rep["ok"] and rep["witness"] is None

    def test_d0_twist_closed_form(self, q3):
        # rank 1, weight 4, level 1: the series terminates at degree 4 with
        # coefficients a^k * 4!/(4-k)!
        a = q3.from_rational(Fraction(2))
        M = twist(q3, 1, 4)
        strat = from_connection(M, a, 6)
        for k in range(7):
            expect = q3.from_rational(Fraction(2) ** k * falling_by_products(4, k))
            assert strat.phi[k][0, 0] == expect
        assert d0_check(M, a, 6)["ok"]

    def test_d0_random_matrices(self, rng, q3s):
        for m in (1, 2, 4):
            M = random_connection(rng, q3s, 2, m)
            rep = d0_check(M, q3s.a_prism(), 6)
            assert rep["ok"], rep

    def test_d0_detects_foreign_family(self, rng, q3):
        # a stratification whose phi_2 was tampered with is not the H-image
        M = random_connection(rng, q3, 2, 2)
        a = q3.one()
        strat = from_connection(M, a, 3)
        H = h_series(M, a, 3)
        nabla_a = M.operator().scale(a)
        rows = [[0] * 4 for _ in range(4)]
        rows[1][2] = 1
        bad = strat.perturbed(2, Matrix(q3, rows))
        assert any((bad.phi[n] - H[n] * nabla_a).is_zero() is False
                   for n in range(1, 4))


class TestConvergence:
    def test_integer_weights_at_base_valuation(self, q3):
        M = constant_conn(q3, 2, [[3, 0], [1, -2]])
        k = action_kernel(M, q3.a_prism(), 8)
        rep = converges_at(k, GaloisElementData(Fraction(1, 2)))
        assert rep["status"] == "Convergent"

    def test_zero_connection_convergent(self, q3):
        k = action_kernel(LogConnection.trivial(q3, 2, 1), 1, 6)
        rep = converges_at(k, GaloisElementData(Fraction(1, 2)))
        assert rep["status"] == "Convergent"

    def test_one_third_weight_divergent_with_exact_trace(self, q3):
        # weight 1/p at val(a) = 0: every factor has valuation -1, so
        # t_n = -n + n*v0 - v_p(n!) = -n + s_3(n)/2 at v0 = 1/2
        M = constant_conn(q3, 1, [[Fraction(1, 3)]])
        k = action_kernel(M, 1, 12)
        rep = converges_at(k, GaloisElementData(Fraction(1, 2)))
        assert rep["status"] == "Divergent"
        expect = [Fraction(-n) + Fraction(digit_sum(n, 3), 2) for n in range(13)]
        assert rep["trace"] == expect
        assert all(b < a for a, b in zip(expect, expect[1:]))

    def test_one_third_threshold_shift(self, q3):
        M = constant_conn(q3, 1, [[Fraction(1, 3)]])
        k = action_kernel(M, 1, 8)
        # slope val(a) + dist + v0 - 1/(p-1) = v0 - 3/2 crosses zero at 3/2
        assert converges_at(k, GaloisElementData(Fraction(3, 2)))["status"] == "Divergent"
        assert converges_at(k, GaloisElementData(2))["status"] == "Convergent"

    def test_negative_weight_with_pole_coefficient(self, q3):
        # weight -1 and val(a) = -1: the factorials cancel and the terms
        # slide down with slope v0 - 1, caught by the probe
        M = constant_conn(q3, 1, [[-1]])
        k = action_kernel(M, Fraction(1, 3), 12)
        rep = converges_at(k, GaloisElementData(Fraction(1, 2)))
        assert rep["status"] == "Divergent"
        assert rep["trace"] == [Fraction(-n, 2) for n in range(13)]

    def test_non_split_probe_paths(self, q3):
        # weights +-sqrt 2 lie outside Q_3 at distance 0 from Z: slope
        # v0 - 1/2, so v0 = 1/2 diverges (term n is worth s_3(n)/2) and
        # every larger v0 converges
        k = action_kernel(constant_conn(q3, 1, [[0, 2], [1, 0]]), 1, 12)
        verdicts = {v0: converges_at(k, GaloisElementData(v0))["status"]
                    for v0 in (Fraction(1, 2), Fraction(3, 4), 1, 60)}
        assert verdicts == {Fraction(1, 2): "Divergent", Fraction(3, 4): "Convergent",
                            1: "Convergent", 60: "Convergent"}

    def test_positive_distance_thresholds(self, q3, q3s):
        # +-3 sqrt 2 lie at distance 1 from Z: h(1) = -1/6, so the slope
        # val(a) + v0 - 1/6 decides and v0 = 1/6 (slope 0) diverges
        k = action_kernel(constant_conn(q3, 1, [[0, 18], [1, 0]]), 1, 8)
        assert [converges_at(k, GaloisElementData(v0))["status"]
                for v0 in (Fraction(1, 8), Fraction(1, 6), Fraction(1, 4))] == \
            ["Divergent", "Divergent", "Convergent"]
        # pi at distance 1/2: h(1/2) = -1/2 + 1/6 = -1/3
        M = LogConnection(q3s, "T", 1, 1, [[TruncSeries.constant(q3s, 1, q3s.pi())]])
        k = action_kernel(M, 1, 8)
        assert [converges_at(k, GaloisElementData(v0))["status"]
                for v0 in (Fraction(1, 3), Fraction(2, 5))] == ["Divergent", "Convergent"]

    def test_jordan_block_needs_vanishing(self, q3):
        # val(a) + v0 = -2 and op = [[0,1],[0,0]]: A_n = a^n (-1)^(n-1) (n-1)! op
        # never vanishes and term n is worth -2n - v_3(n): Divergent, though
        # both weights are 0
        k = action_kernel(constant_conn(q3, 1, [[0, 1], [0, 0]]), Fraction(1, 27), 8)
        assert converges_at(k, GaloisElementData(1))["status"] == "Divergent"
        # diag(0, 1) is diagonalizable with weights 0 and 1: A_2 = 0
        k = action_kernel(constant_conn(q3, 1, [[0, 0], [0, 1]]), Fraction(1, 27), 8)
        rep = converges_at(k, GaloisElementData(1))
        assert rep["status"] == "Convergent" and rep["trace"][2] is INF

    def test_half_weight_at_negative_slope(self, q3):
        # val(a) + v0 = -1/2 and the weight 1/2 is no integer
        k = action_kernel(constant_conn(q3, 1, [[Fraction(1, 2)]]), Fraction(1, 3), 8)
        assert converges_at(k, GaloisElementData(Fraction(1, 2)))["status"] == "Divergent"

    def test_pi_weight_over_ramified_field(self, q3s):
        # weight pi at a = 1/pi: val(a) + v0 = 0 diverges, and at v0 = 1
        # the distance 1/2 clears the threshold 0
        pi = q3s.pi()
        M = LogConnection(q3s, "T", 1, 1, [[TruncSeries.constant(q3s, 1, pi)]])
        k = action_kernel(M, pi.invert(), 8)
        assert converges_at(k, GaloisElementData(Fraction(1, 2)))["status"] == "Divergent"
        assert converges_at(k, GaloisElementData(1))["status"] == "Convergent"

    def test_huge_integer_weight_charpoly_count(self, q3, monkeypatch):
        # weight 10^30 at val(a) + v0 = -2: the family vanishes at degree
        # 10^30 + 1, found by a descent over the 63 digits of 3^63 > 10^30
        # on Taylor shifts of one charpoly
        k = action_kernel(constant_conn(q3, 1, [[10 ** 30]]), Fraction(1, 27), 4)
        calls, shifts = [], []
        charpoly, shift = Matrix.charpoly_numerators, connops._taylor_shift
        monkeypatch.setattr(Matrix, "charpoly_numerators",
                            lambda self: calls.append(1) or charpoly(self))
        monkeypatch.setattr(connops, "_taylor_shift",
                            lambda chi, s: shifts.append(s) or shift(chi, s))
        assert converges_at(k, GaloisElementData(1))["status"] == "Convergent"
        assert len(calls) == 1
        assert 63 <= len(shifts) <= (3 - 1) * 63

    def test_tiny_slope_costs_no_step_per_digit(self, q3):
        # weight 1/3 at v0 = 1/10^z: the threshold d* grows like z log_3 10,
        # but v(1/3 - k) = -1 for every integer k, so the descent stops at
        # level 1, and q is found down a ladder of log log 10^z rungs. Line
        # events in the two functions are operation counts, not time.
        import sys
        k = action_kernel(constant_conn(q3, 1, [[Fraction(1, 3)]]), q3.a_prism(), 4)
        codes = {connops._near_integer_roots.__code__: "descent",
                 _slope_threshold.__code__: "threshold"}
        seen = []
        for z in (40, 400, 4000):
            counts = dict.fromkeys(codes.values(), 0)

            def count_lines(frame, event, arg):
                counts[codes[frame.f_code]] += event == "line"
                return count_lines
            sys.settrace(lambda frame, event, arg: count_lines if frame.f_code in codes else None)
            try:
                rep = converges_at(k, GaloisElementData(Fraction(1, 10 ** z)))
            finally:
                sys.settrace(None)
            assert rep["status"] == "Divergent"
            seen.append(counts)
        assert seen[0]["descent"] == seen[1]["descent"] == seen[2]["descent"]
        assert seen[2]["threshold"] <= 2 * seen[0]["threshold"]

    def test_invalid_valuation(self, q3):
        k = action_kernel(twist(q3, 1, 1), 1, 3)
        for v0 in (0, -1, Fraction(-1, 2)):
            with pytest.raises(InvalidValuation):
                converges_at(k, GaloisElementData(v0))

    def test_infinite_v0(self, q3):
        k = action_kernel(twist(q3, 1, 1), 1, 3)
        rep = converges_at(k, GaloisElementData(INF))
        assert rep["status"] == "Convergent"
        assert rep["trace"][0] == Fraction(0)
        assert all(t is INF for t in rep["trace"][1:])

    @pytest.mark.parametrize("D", [0, 6])
    def test_infinite_v0_reads_only_a0(self, rng, q3s, D, monkeypatch):
        """Operation counts: at v0 = INF every term past n = 0 is INF and the
        verdict is Convergent, so a generated kernel takes no kernel step
        and reads no packed level, and a listed one takes one Gauss
        valuation, that of A_0."""
        M = random_connection(rng, q3s, 2, 2)
        generated = action_kernel(M, q3s.a_prism(), D)
        listed = GaloisKernel(list(action_kernel(M, q3s.a_prism(), D).A), generated.a)
        calls = count_calls(monkeypatch, [(galois, "falling_levels"), (PackedLevel, "ev"),
                                          (galois, "_gauss_ev")])
        for kernel in (generated, listed):
            calls.update(dict.fromkeys(calls, 0))
            rep = converges_at(kernel, GaloisElementData(INF))
            assert rep == {"status": "Convergent", "trace": [Fraction(0)] + [INF] * D}
            assert calls == {"falling_levels": 0, "ev": 0, "_gauss_ev": 1}
        assert repr(generated.A) == f"Family(D={D}, computed={min(D, 1) + 1})"


class TestPackedTrace:
    @pytest.mark.parametrize("D", [0, 1, 2, 6])
    def test_generated_kernel_builds_no_level_matrix(self, rng, q3s, cubic3, D, monkeypatch):
        """converges_at on a generated kernel answers as on the same
        operators given as a list, reading A_2..A_D off the packed levels:
        no level's matrix is built and the family is never made whole."""
        def build(*args):
            raise AssertionError("level matrix built")
        for spec in (q3s, cubic3):
            M = random_connection(rng, spec, 2, 2)
            for a in (spec.a_prism(), Fraction(1, 9), spec.pi()):
                k = action_kernel(M, a, D)
                listed = GaloisKernel(list(action_kernel(M, a, D).A), k.a)
                tau = tau_power_kernel(M, 1, "Kpi1", a, D)
                gs = [GaloisElementData(v0) for v0 in (Fraction(1, 2), 3, INF)]
                want = [converges_at(listed, g) for g in gs]
                with monkeypatch.context() as patch:
                    patch.setattr(PackedLevel, "matrix", build)
                    assert [converges_at(k, g) for g in gs] == want
                    assert [converges_at(tau, g) for g in gs] == want
                assert repr(k.A) == repr(tau.A) == f"Family(D={D}, computed={min(D, 1) + 1})"


class TestIntegerValuations:
    def test_converges_at_reads_one_valuation(self, q3s, monkeypatch):
        """Operation counts: converges_at takes val() of a alone; the trace's
        Gauss valuations and the verdict's Newton polygons read no
        valuation per entry or coefficient."""
        M = constant_conn(q3s, 2, [[0, 2], [1, q3s.pi()]])
        kernels = [action_kernel(M, q3s.a_prism(), 6), action_kernel(M, Fraction(1, 9), 6)]
        calls = count_calls(monkeypatch, [(FieldElement, "val")])
        for kernel in kernels:
            for v0 in (Fraction(1, 2), 3):
                calls["val"] = 0
                converges_at(kernel, GaloisElementData(v0))
                assert calls["val"] <= 1

    @pytest.mark.parametrize("v0", [Fraction(1, 2), 3, Fraction(7, 9), INF])
    def test_trace_matches_fraction_sum(self, rng, q3s, cubic3, v0):
        """Each trace entry, built on integers as one Fraction, against
        GaussVal(A_n) + n*v0 - v_p(n!) summed on valuations."""
        for spec in (q3s, cubic3):
            M = random_connection(rng, spec, 2, 2)
            for a in (spec.a_prism(), Fraction(1, 9), spec.pi()):
                kernel = action_kernel(M, a, 6)
                want = []
                for n, A in enumerate(kernel.A):
                    gv = gauss_val_by_entries(A)
                    if n and gv is not INF:
                        gv = INF if v0 is INF else gv + n * v0 - factorial_val(n, spec.p)
                    want.append(gv)
                assert converges_at(kernel, GaloisElementData(v0))["trace"] == want

    def test_element_data_refuses_float(self):
        with pytest.raises(TypeError, match="float"):
            GaloisElementData(0.25)
        assert GaloisElementData(Fraction(1, 4)).v0 == Fraction(1, 4)


class TestTauPower:
    def test_constants(self, q3):
        M = twist(q3, 2, 1, unif="T")
        assert tau_power_kernel(M, 0, "K").c == 1
        assert tau_power_kernel(M, 2, "K").c == 9
        assert tau_power_kernel(M, 1, "Kpi1").c == 6

    def test_even_prime_shift(self, q2s):
        M = twist(q2s, 2, 1)
        k = tau_power_kernel(M, 1, "Kpi1")
        assert k.c == 4

    def test_operators_match_action_kernel(self, rng, q3):
        M = random_connection(rng, q3, 2, 2)
        k = tau_power_kernel(M, 1, "K", D=4)
        base = action_kernel(M, q3.a_prism(), 4)
        assert all(x == y for x, y in zip(k.A, base.A))

    def test_bad_inputs(self, q3):
        M = twist(q3, 1, 1)
        with pytest.raises(PrismlabError, match="unknown variant 'L', expected K or Kpi1"):
            tau_power_kernel(M, 0, "L")
        with pytest.raises(InvalidValuation):
            tau_power_kernel(M, -1, "K")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       num=st.integers(-6, 6), den=st.sampled_from([1, 2, 3, 9]),
       v0a=st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2]),
       bump=st.sampled_from([Fraction(1, 2), 1, 3]))
def test_convergence_monotone_in_v0(seed, num, den, v0a, bump):
    spec = FieldSpec(3, [-3, 1])
    M = constant_conn(spec, 1, [[Fraction(num, den)]])
    k = action_kernel(M, 1, 8)
    lo = converges_at(k, GaloisElementData(v0a))
    hi = converges_at(k, GaloisElementData(v0a + bump))
    if lo["status"] == "Convergent":
        assert hi["status"] == "Convergent"


GROWTH_FIELDS = (FieldSpec(3, [-3, 1]), FieldSpec(3, [-3, 0, 1]),
                 FieldSpec(2, [-2, 1]), FieldSpec(5, [-5, 1]))
# the K of each p: the growth is read over the decade p^(K-1)..p^K
GROWTH_LEVEL = {2: 9, 3: 6, 5: 4}


@settings(max_examples=40, deadline=None)
@given(field=st.integers(0, len(GROWTH_FIELDS) - 1), seed=st.integers(0, 10 ** 6),
       l=st.integers(1, 2), k=st.integers(-3, 2), r=st.integers(0, 1),
       v0=st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                           Fraction(3, 4), 1, Fraction(3, 2), 2, 3]))
def test_convergence_matches_trace_growth(field, seed, l, k, r, v0):
    """The verdict is never Unknown and agrees with the growth of the real
    trace over the last p-adic decade below p^K (243 to 729 for p = 3).

    At slope s = val(a) + v0 + h(dist) that growth is (p-1) p^(K-1) s plus
    a bounded part (Gauss valuation offsets, v_p of binomials, Jordan
    corrections). Distances of these weights lie in (1/2e)Z and val(a) + v0
    in v0 + (1/e)Z, so a positive slope is at least 1/16 and gives growth
    of at least 16, while at slope 0 the growth stayed at most 2 on 3,200
    random draws like these, so 8 separates. Smaller v0, whose slopes the
    decade cannot resolve, are pinned in TestConvergence. Some matrices are
    scaled by p^j and shifted by an integer, which puts their weights at a
    finite distance >= 0 from Z."""
    spec = GROWTH_FIELDS[field]
    rng = random.Random(seed)
    rows = [[random_element(rng, spec) if rng.random() < 0.8 else spec.zero()
             for _ in range(l)] for _ in range(l)]
    if rng.random() < 0.4:
        # weights p^j w + k: near the integer k when w is a unit
        j, k0 = rng.randint(1, 2), rng.randint(-4, 4)
        rows = [[x * spec.p ** j + (k0 if i == i2 else 0) for i2, x in enumerate(row)]
                for i, row in enumerate(rows)]
    M = LogConnection(spec, "T", l, 1, [[TruncSeries.constant(spec, 1, x) for x in row]
                                        for row in rows])
    a = spec.pi() ** (k * spec.e + r)
    rep = converges_at(action_kernel(M, a, 2), GaloisElementData(v0))
    assert rep["status"] in ("Convergent", "Divergent")
    g = trace_growth_by_products(M.operator(), a.val() + v0, spec.p, GROWTH_LEVEL[spec.p])
    assert rep["status"] == ("Convergent" if g is None or g >= 8 else "Divergent"), g


@st.composite
def slopes(draw):
    """(sigma, p) with sigma > 0: a random fraction, or one at or beside a
    step 1 / ((p-1) p^k) of the threshold, where q changes."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    if draw(st.booleans()):
        sigma = Fraction(draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 10 ** 40)))
    else:
        k = draw(st.integers(0, 60))
        sigma = Fraction(1, (p - 1) * p ** k + draw(st.integers(-1, 1)) or 1)
    return sigma, p


@settings(max_examples=300, deadline=None)
@given(slopes())
def test_slope_threshold_matches_loop(case):
    sigma, p = case
    assert _slope_threshold(sigma, p) == slope_threshold_by_loop(sigma, p)
