import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prismlab.errors import NotAUnit, NotAUniformizer
from prismlab.series import TruncSeries, lambda_approx, rewrite_in_uniformizer

from conftest import FOUR_FIELDS, count_calls, random_element
from ref import (compose_by_horner, lambda_by_powers, reversion_by_composition,
                 taylor_coeff_oracle)


def random_series(rng, spec, m, unif="T"):
    return TruncSeries(spec, m, [random_element(rng, spec, span=6) for _ in range(m)], unif)


class TestArithmetic:
    def test_geometric_inverse(self, q3):
        f = TruncSeries(q3, 3, [1, -1])
        assert f.invert_unit().coeffs == TruncSeries(q3, 3, [1, 1, 1]).coeffs

    def test_constant_inverse(self, q3):
        f = TruncSeries(q3, 4, [2])
        g = f.invert_unit()
        assert g.coeffs[0] == q3.from_rational(Fraction(1, 2))
        assert all(c.is_zero() for c in g.coeffs[1:])

    def test_variable_not_unit(self, q3):
        with pytest.raises(NotAUnit):
            TruncSeries(q3, 3, [0, 1]).invert_unit()

    def test_inverse_is_inverse(self, q3s, rng):
        for _ in range(20):
            f = random_series(rng, q3s, 5)
            if not f.is_unit():
                f = f + 1
            assert f * f.invert_unit() == TruncSeries.one(q3s, 5)

    def test_pow_matches_repeated_mul(self, q3, rng):
        f = random_series(rng, q3, 4)
        assert f**3 == f * f * f
        assert f**0 == TruncSeries.one(q3, 4)

    def test_truncation_drops_high_degrees(self, q3):
        f = TruncSeries(q3, 3, [0, 1])
        assert (f * f * f).is_zero()

    def test_scalar_operands_match_constant_series(self, q3s, rng):
        f = random_series(rng, q3s, 4, unif="u-pi")
        for c in (0, 3, Fraction(-2, 9), random_element(rng, q3s)):
            s = TruncSeries.constant(q3s, 4, c, "u-pi")
            assert f + c == c + f == f + s
            assert f - c == f - s
            assert f * c == c * f == f * s
            assert (f + c).unif == (f * c).unif == "u-pi"


class TestDerivatives:
    def test_product_rule(self, q3s, rng):
        m = 5
        for _ in range(10):
            f = random_series(rng, q3s, m)
            g = random_series(rng, q3s, m)
            lhs = (f * g).derivative()
            rhs = f.derivative() * g + f * g.derivative()
            # derivative only carries degrees < m - 1
            assert lhs.truncate(m - 1) == rhs.truncate(m - 1)



class TestComposition:
    def test_reversion_example(self, q3):
        f = TruncSeries(q3, 3, [0, 1, 1])
        rev = f.reversion()
        assert rev == TruncSeries(q3, 3, [0, 1, -1])

    def test_reversion_two_sided(self, q3s, rng):
        m = 6
        t = TruncSeries(q3s, m, [0, 1])
        for _ in range(8):
            coeffs = [0, 1 + 3 * rng.randrange(3)] + [random_element(rng, q3s, 4) for _ in range(m - 2)]
            y = TruncSeries(q3s, m, coeffs)
            rev = y.reversion()
            assert compose_by_horner(y, rev) == t
            assert compose_by_horner(rev, y) == t

    def test_reversion_makes_no_composition(self, q3s, monkeypatch):
        """Operation counts: one unit inversion and m - 2 products."""
        calls = count_calls(monkeypatch, [(TruncSeries, "compose"), (TruncSeries, "__mul__"),
                                          (TruncSeries, "invert_unit")])
        TruncSeries(q3s, 6, [0, 2, 1, 0, 5, 1]).reversion()
        assert calls == {"compose": 0, "__mul__": 4, "invert_unit": 1}

    def test_reversion_requires_uniformizer(self, q3):
        with pytest.raises(NotAUniformizer):
            TruncSeries(q3, 4, [0, 0, 1]).reversion()
        with pytest.raises(NotAUniformizer):
            TruncSeries(q3, 4, [1, 1]).reversion()

    def test_compose_associative(self, q3, rng):
        m = 5
        f = random_series(rng, q3, m)
        g = random_series(rng, q3, m)
        h = random_series(rng, q3, m)
        g = TruncSeries(q3, m, [0] + list(g.coeffs[1:]))
        h = TruncSeries(q3, m, [0] + list(h.coeffs[1:]))
        assert f.compose(g).compose(h) == f.compose(g.compose(h))

    def test_rewrite_rescale(self, q3, rng):
        m = 4
        f = random_series(rng, q3, m)
        y = TruncSeries(q3, m, [0, 2], unif="y")
        g = rewrite_in_uniformizer(f, y)
        assert g.unif == "y"
        for k in range(m):
            assert g.coeffs[k] == f.coeffs[k] * Fraction(1, 2**k)

    def test_rewrite_round_trip(self, q3s, rng):
        m = 5
        for _ in range(8):
            f = random_series(rng, q3s, m)
            y = TruncSeries(q3s, m, [0, 1] + [random_element(rng, q3s, 4) for _ in range(m - 2)], unif="y")
            g = rewrite_in_uniformizer(f, y)
            assert compose_by_horner(g, y.with_unif("T")) == f

    def test_rewrite_rejects_square(self, q3):
        f = TruncSeries.one(q3, 4)
        with pytest.raises(NotAUniformizer):
            rewrite_in_uniformizer(f, TruncSeries(q3, 4, [0, 0, 1]))


class TestLambda:
    def test_unramified_first_factor(self, q3):
        lam = lambda_approx(q3, 0, 4)
        assert lam.coeffs == TruncSeries(q3, 4, [0, Fraction(-1, 3)]).coeffs

    def test_depth_one_frozen(self, q3):
        lam = lambda_approx(q3, 1, 2)
        assert [list(c.coords) for c in lam.coeffs] == [[Fraction(0)], [Fraction(8, 3)]]

    def test_vanishes_at_pi(self, q3s):
        for F in range(3):
            assert lambda_approx(q3s, F, 3).coeffs[0].is_zero()
            assert lambda_approx(q3s, F, 3).is_uniformizer()

    @pytest.mark.parametrize("F", [0, 1, 2])
    def test_taylor_oracle_ramified(self, q3s, F):
        lam = lambda_approx(q3s, F, 4)
        assert list(lam.coeffs) == taylor_coeff_oracle(q3s, F, 4)

    @pytest.mark.parametrize("F", [0, 1, 2])
    def test_taylor_oracle_unramified(self, q3, F):
        lam = lambda_approx(q3, F, 3)
        assert list(lam.coeffs) == taylor_coeff_oracle(q3, F, 3)

    def test_unit_part_constant(self, q3s):
        # lambda_F / (u - pi) at u = pi equals E'(pi)/E(0) times the
        # later factors evaluated at pi
        pi = q3s.pi()
        e0 = Fraction(q3s.ecoeffs[0])
        for F in range(4):
            lam = lambda_approx(q3s, F, 3)
            unit0 = lam.coeffs[1]
            expect = q3s.eval_deriv_at_pi() * (1 / e0)
            for n in range(1, F + 1):
                x = pi ** (q3s.p**n)
                acc = q3s.zero()
                for i, c in enumerate(q3s.ecoeffs):
                    acc = acc + c * x**i
                expect = expect * acc * (1 / e0)
            assert unit0 == expect


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), field=st.integers(0, 3), m=st.integers(2, 6))
def test_reversion_matches_composition_loop(seed, field, m):
    spec = FOUR_FIELDS[field]
    rng = random.Random(seed)
    slope = rng.choice([1, 2, -3, Fraction(1, 2), random_element(rng, spec, 4)])
    if spec.from_rational(0) == slope:
        slope = 1
    y = TruncSeries(spec, m, [0, slope] + [random_element(rng, spec, 4) if rng.random() < 0.8
                                           else 0 for _ in range(m - 2)], "y")
    rev = y.reversion()
    assert rev == reversion_by_composition(y) and rev.unif == "y"


@settings(max_examples=30, deadline=None)
@given(field=st.integers(0, 3), m=st.integers(2, 6), F=st.integers(0, 2))
def test_lambda_matches_power_products(field, m, F):
    spec = FOUR_FIELDS[field]
    lam = lambda_approx(spec, F, m)
    ref = lambda_by_powers(spec, F, m)
    assert lam == ref and lam.unif == ref.unif == f"lambda{F}"
