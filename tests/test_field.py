import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prismlab.connops import check_nilpotent, probe_nilpotency
from prismlab.errors import InputFormatError, RingMismatch, ZeroInversion
from prismlab.field import INF, PRIME_BOUND, FieldSpec, _is_prime, _vp_int
from prismlab.galois import GaloisElementData, GaloisKernel, h_series
from prismlab.linalg import Matrix
from prismlab.pdalg import CosimpConfig, PDElement
from prismlab.series import TruncSeries
from prismlab.strat import LogConnection, Stratification, from_connection, operator_family

from conftest import FOUR_FIELDS, random_element, random_rational
from ref import (deriv_by_products, dist_by_terms, invert_by_euclid, val_by_terms,
                 vp_by_single_factors, window_dist_oracle)

# the four benchmark fields, the cubic u^3 + 3u^2 + 3 and a quintic
INVERT_FIELDS = (FieldSpec(3, [-3, 1]), FieldSpec(3, [-3, 0, 1]), FieldSpec(2, [-2, 0, 1]),
                 FieldSpec(3, [3, 3, 0, 1]), FieldSpec(3, [3, 0, 3, 1]),
                 FieldSpec(3, [12, 3, -6, 0, 3, 1]))


@st.composite
def nonzero_elements(draw):
    spec = draw(st.sampled_from(INVERT_FIELDS))
    p, e = spec.p, spec.e
    if draw(st.booleans()):
        # c * p^k * pi^j: the elements with zero leading coordinates
        c = draw(st.sampled_from([1, -1, 2, -7]))
        k = draw(st.integers(-6, 6))
        return spec.element([0] * draw(st.integers(0, e - 1)) + [c * Fraction(p) ** k])
    coord = st.builds(lambda n, k, d: Fraction(n, p ** k * d),
                      st.integers(-2 ** 200, 2 ** 200), st.integers(0, 8), st.integers(1, 50))
    cs = draw(st.lists(st.one_of(st.just(0), coord), min_size=e, max_size=e).filter(any))
    return spec.element(cs)


class TestFieldSpec:
    def test_rejects_non_prime(self):
        with pytest.raises(InputFormatError, match="p = 4 is not prime"):
            FieldSpec(4, [-4, 1])

    def test_primality_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        assert all(_is_prime(n) == sympy.isprime(n) for n in range(-2, 10 ** 5))
        # strong pseudoprimes to the bases 2..7 and 2..37, and a Mersenne prime
        assert not _is_prime(3215031751)
        assert not _is_prime(318665857834031151167461)
        assert _is_prime(2 ** 61 - 1)
        assert FieldSpec(2 ** 61 - 1, [-(2 ** 61 - 1), 1]).p == 2 ** 61 - 1

    def test_rejects_p_beyond_proven_range(self):
        with pytest.raises(InputFormatError, match="beyond the proven primality range"):
            FieldSpec(PRIME_BOUND, [-PRIME_BOUND, 1])

    def test_rejects_non_eisenstein_coefficient(self):
        with pytest.raises(InputFormatError, match="coefficient not divisible by p"):
            FieldSpec(3, [-3, 1, 1])

    def test_rejects_p_squared_constant(self):
        with pytest.raises(InputFormatError, match="constant term divisible by p\\^2"):
            FieldSpec(3, [-9, 0, 1])

    def test_rejects_non_monic(self):
        with pytest.raises(InputFormatError, match="E must be monic of degree >= 1"):
            FieldSpec(3, [-3, 2])

    def test_refuses_a_p_or_coefficient_that_is_no_integer(self):
        """Nothing is truncated or converted: a non-integral Fraction, a
        float, a bool or a string is refused, an integral Fraction read."""
        for p, E, message in ((3, [-3, Fraction(1, 2), 1], "E coefficient Fraction(1, 2) "),
                              (3, [-3.9, 0, 1.0], "E coefficient -3.9 "),
                              (3, [-3, 0.0, 1], "E coefficient 0.0 "),
                              (3, [-3, True], "E coefficient True "),
                              (3, ["x", 1], "E coefficient 'x' "),
                              (3.0, [-3, 1], "p = 3.0 "), ("3", [-3, 1], "p = '3' "),
                              (True, [-3, 1], "p = True ")):
            with pytest.raises(InputFormatError, match=f"^{re.escape(message)}is not an integer$"):
                FieldSpec(p, E)
        assert FieldSpec(3, (Fraction(-6, 2), 0, 1)) == FieldSpec(3, [-3, 0, 1])
        assert type(FieldSpec(3, [Fraction(-3), 1]).ecoeffs[0]) is int

    def test_accepts_examples(self, q3, q3s, q2s, cubic3):
        assert q3.e == 1
        assert q3s.e == 2
        assert q2s.e == 2
        assert cubic3.e == 3


class TestValuation:
    def test_val_of_p(self, q3):
        assert q3.from_rational(3).val() == Fraction(1)

    def test_val_of_pi_quadratic(self, q3s):
        assert q3s.pi().val() == Fraction(1, 2)

    def test_pi_is_built_once(self, q3, cubic3):
        # at e = 1, u = pi is the rational -c_0
        assert q3.pi() is q3.pi() and q3.pi() == q3.from_rational(3)
        q3m = FieldSpec(3, [3, 1])
        assert q3m.pi() == q3m.from_rational(-3)
        assert cubic3.pi() is cubic3.pi()
        assert cubic3.pi().coords == (Fraction(0), Fraction(1), Fraction(0))

    def test_val_mixed(self, q3s):
        # min(v3(1/2) + 0, v3(1) + 1/2) = min(0, 1/2)
        alpha = q3s.element([Fraction(1, 2), 1])
        assert alpha.val() == Fraction(0)

    def test_val_zero_is_infinite(self, q3s):
        assert q3s.zero().val() is INF

    def test_val_ordering(self):
        assert Fraction(1) < INF
        assert not (INF < Fraction(100))
        assert INF + Fraction(-5) == INF
        assert Fraction(1, 2) + Fraction(1) == Fraction(3, 2)

    @settings(max_examples=200, deadline=None)
    @given(x=st.one_of(st.integers(-10 ** 30, 10 ** 30),
                       st.fractions(max_denominator=10 ** 6)),
           xs=st.lists(st.one_of(st.integers(), st.fractions(), st.just(INF)), max_size=8))
    def test_infinity_orders_above_and_absorbs(self, x, xs):
        assert x < INF and x <= INF and not x > INF and not x >= INF
        assert INF > x and INF >= x and not INF < x and not INF <= x
        assert INF <= INF and INF >= INF and not INF < INF and not INF > INF
        assert INF + x is INF and x + INF is INF and INF + INF is INF
        assert INF == INF and INF != x and x != INF
        assert min(x, INF) == min(INF, x) == x and max(x, INF) is max(INF, x) is INF
        finite = sorted(v for v in xs if v is not INF)
        assert sorted(xs) == finite + [INF] * (len(xs) - len(finite))
        assert str(INF) == "+inf"

    def test_val_multiplicative_random(self, q3s, q2s, rng):
        for spec in (q3s, q2s):
            for _ in range(500):
                a = random_element(rng, spec)
                b = random_element(rng, spec)
                assert (a * b).val() == a.val() + b.val()

    def test_ultrametric(self, q3s, rng):
        for _ in range(300):
            a = random_element(rng, q3s)
            b = random_element(rng, q3s)
            va, vb, vs = a.val(), b.val(), (a + b).val()
            lo = va if va < vb else vb
            assert vs >= lo
            if va != vb:
                assert vs == lo


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 101, 2 ** 61 - 1]), k=st.integers(0, 5000),
       u=st.integers(1, 2 ** 80), negative=st.booleans())
def test_vp_int_matches_single_factor_loop(p, k, u, negative):
    n = p ** k * u * (-1 if negative else 1)
    v = vp_by_single_factors(n, p)
    assert _vp_int(n, p) == v
    qp = FieldSpec(p, [-p, 1])
    assert qp.from_rational(Fraction(n, p ** (k + 3))).val() == v - k - 3
    assert qp.from_rational(Fraction(p ** (k + 3), n)).val() == k + 3 - v


class TestInvert:
    def test_identity(self, q3s):
        assert q3s.one().invert() == q3s.one()

    def test_pi_inverse(self, q3s):
        # pi * (pi/3) = pi^2 / 3 = 1
        assert q3s.pi().invert() == q3s.element([0, Fraction(1, 3)])

    def test_zero_raises(self, q3s):
        with pytest.raises(ZeroInversion):
            q3s.zero().invert()

    def test_random_inverses(self, q3s, q2s, cubic3, rng):
        for spec in (q3s, q2s, cubic3):
            for _ in range(50):
                a = random_element(rng, spec)
                if a.is_zero():
                    continue
                assert a * a.invert() == spec.one()

    @settings(max_examples=300, deadline=None)
    @given(nonzero_elements())
    def test_matches_euclid_reference(self, x):
        inv = x.invert()
        assert x * inv == x.spec.one()
        assert inv.invert() == x
        assert inv == invert_by_euclid(x)


class TestRingAxioms:
    def test_axioms_random_triples(self, q3s, cubic3, rng):
        for spec in (q3s, cubic3):
            for _ in range(500):
                a = random_element(rng, spec, span=5)
                b = random_element(rng, spec, span=5)
                c = random_element(rng, spec, span=5)
                assert (a * b) * c == a * (b * c)
                assert (a + b) * c == a * c + b * c
                assert a * b == b * a
                assert a + b == b + a
                assert (a + b) + c == a + (b + c)

    def test_minimal_polynomial_kills_pi(self, q3s, q2s, cubic3):
        for spec in (q3s, q2s, cubic3):
            pi = spec.pi()
            acc = spec.zero()
            pw = spec.one()
            for c in spec.ecoeffs:
                acc = acc + pw * c
                pw = pw * pi
            assert acc.is_zero()


def _q3s(coords, spec=FOUR_FIELDS[1]):
    return spec.element(coords)


# (left, right, left == right): elements against elements of the same field,
# of an equal field built apart and of another field, and against ints,
# bools, Fractions, floats and non-numbers
EQUALITY_CASES = {
    "same-element": (_q3s([1, 2]), _q3s([1, 2]), True),
    "other-element": (_q3s([1, 2]), _q3s([1, 3]), False),
    "equal-field-built-apart": (_q3s([0, 1]), _q3s([0, 1], FieldSpec(3, [-3, 0, 1])), True),
    "other-field": (_q3s([1]), FOUR_FIELDS[0].one(), False),
    "int": (_q3s([3]), 3, True),
    "int-other": (_q3s([3, 1]), 3, False),
    "bool": (_q3s([1]), True, True),
    "fraction": (_q3s(["1/2"]), Fraction(1, 2), True),
    "fraction-other": (_q3s(["1/2"]), Fraction(1, 3), False),
    "float": (_q3s([1]), 1.0, False),
    "string": (_q3s([1]), "1", False),
    "none": (_q3s([0]), None, False),
    "list": (_q3s([1, 2]), [1, 2], False),
}


class TestEquality:
    @pytest.mark.parametrize("case", EQUALITY_CASES)
    def test_operand_kinds(self, case):
        left, right, equal = EQUALITY_CASES[case]
        assert (left == right, left != right) == (equal, not equal)
        assert (right == left, right != left) == (equal, not equal)


class TestDerivAtPi:
    def test_linear(self, q3):
        assert q3.eval_deriv_at_pi() == q3.one()

    def test_quadratic(self, q3s):
        assert q3s.eval_deriv_at_pi() == q3s.element([0, 2])

    def test_cubic_with_valuation(self, cubic3):
        d = cubic3.eval_deriv_at_pi()
        assert d == cubic3.element([3, 0, 3])
        assert d.val() == Fraction(1)

    def test_scalars(self, q3s):
        assert q3s.a_prism() == q3s.element([0, -2])
        assert q3s.a_log() == q3s.from_rational(-6)


@st.composite
def eisenstein_fields(draw):
    """One of the four benchmark fields, or a random Eisenstein E of degree
    1-4 over p in {2, 3, 5}."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FOUR_FIELDS))
    p = draw(st.sampled_from([2, 3, 5]))
    e = draw(st.integers(1, 4))
    c0 = p * draw(st.integers(1, 40).filter(lambda k: k % p))
    rest = [p * draw(st.integers(-20, 20)) for _ in range(e - 1)]
    return FieldSpec(p, [draw(st.sampled_from([c0, -c0]))] + rest + [1])


class TestCanonicalScalars:
    @settings(max_examples=150, deadline=None)
    @given(eisenstein_fields())
    def test_match_product_loop(self, spec):
        deriv = deriv_by_products(spec)
        assert spec.eval_deriv_at_pi() == deriv
        assert spec.a_prism() == -deriv
        assert spec.a_log() == -(spec.pi() * deriv)

    def test_built_once(self, cubic3):
        spec = FieldSpec(cubic3.p, cubic3.ecoeffs)
        assert spec.a_prism() is spec.a_prism()
        assert spec.a_log() is spec.a_log()


class TestExactEntryPoints:
    """A float is a binary fraction: 0.1 would enter as
    3602879701896397/36028797018963968, so the rational entry points
    refuse it."""

    def test_element(self, q3s):
        with pytest.raises(TypeError, match="float"):
            q3s.element([0, 0.1])
        assert q3s.element([0, "1/10"]) == q3s.element([0, Fraction(1, 10)])

    def test_from_rational(self, q3):
        with pytest.raises(TypeError, match="float"):
            q3.from_rational(0.1)
        assert q3.from_rational(Fraction(1, 10)).coords == (Fraction(1, 10),)

    def test_valuation(self):
        with pytest.raises(TypeError, match="float"):
            GaloisElementData(0.1)
        assert GaloisElementData("1/10").v0 == Fraction(1, 10)


# each site that turns a scalar argument into an element of the field k,
# called with x where an element of k is expected
SCALAR_SITES = {
    "FieldElement._coerce": lambda k, x: k.one() + x,
    "TruncSeries": lambda k, x: TruncSeries(k, 2, [x]),
    "Matrix": lambda k, x: Matrix(k, [[x]]),
    "Matrix.scale": lambda k, x: Matrix.identity(k, 1).scale(x),
    "check_nilpotent": lambda k, x: check_nilpotent(LogConnection.trivial(k, 1, 1), x),
    "probe_nilpotency": lambda k, x: probe_nilpotency(LogConnection.trivial(k, 1, 1), x),
    "operator_family": lambda k, x: operator_family(
        LogConnection.trivial(k, 1, 2).operator(k.a_prism()), 1 + x, 4),
    "from_connection": lambda k, x: from_connection(LogConnection.trivial(k, 1, 2), x, 2),
    "Stratification": lambda k, x: Stratification(k, 1, 1, 1, x, [Matrix.identity(k, 1)] * 2),
    "GaloisKernel": lambda k, x: GaloisKernel([Matrix.identity(k, 1)] * 2, x),
    "h_series": lambda k, x: h_series(LogConnection.trivial(k, 1, 2), x, 2),
    "CosimpConfig": lambda k, x: CosimpConfig(k, x, 2, 2),
    "PDElement.monomial": lambda k, x: PDElement.monomial(CosimpConfig(k, 1, 2, 2), 1,
                                                          (0,), 0, x),
    "PDElement.scale": lambda k, x: PDElement.one(CosimpConfig(k, 1, 2, 2), 1).scale(x),
}


class TestScalar:
    """FieldSpec.scalar is the one conversion of a scalar argument."""

    def test_converts_and_refuses(self, q3s):
        x = q3s.pi()
        assert q3s.scalar(x) is x
        # an element of an equal field, built apart, is taken as it is
        assert FieldSpec(3, [-3, 0, 1]).scalar(x) is x
        assert q3s.scalar(2) == q3s.from_rational(2)
        assert q3s.scalar(Fraction(1, 3)) == q3s.element([Fraction(1, 3)])
        with pytest.raises(TypeError, match="float"):
            q3s.scalar(0.5)
        with pytest.raises(RingMismatch, match="^element over a different field$"):
            q3s.scalar(FieldSpec(3, [3, 0, 1]).pi())

    @pytest.mark.parametrize("site", list(SCALAR_SITES))
    def test_an_element_of_another_field_is_refused(self, q3s, site):
        """pi of Q_3(sqrt -3) where Q_3(sqrt 3) is due: every site raises
        RingMismatch. Before, operator_family, probe_nilpotency,
        TruncSeries, Matrix, CosimpConfig and PDElement.monomial took it,
        and the others raised ValueError or nothing of their own."""
        foreign = FieldSpec(3, [3, 0, 1]).pi()
        with pytest.raises(RingMismatch, match="^element over a different field$"):
            SCALAR_SITES[site](q3s, foreign)
        SCALAR_SITES[site](q3s, FieldSpec(3, [-3, 0, 1]).pi())


@st.composite
def field_elements(draw):
    """An element of a benchmark field, zero coordinates and powers of p in
    numerators and denominators included; zero itself too."""
    spec = draw(st.sampled_from(FOUR_FIELDS))
    p = spec.p
    coord = st.builds(lambda n, k, d: n * Fraction(p) ** k / d, st.integers(-10 ** 6, 10 ** 6),
                      st.integers(-9, 9), st.integers(1, 60))
    return spec.element(draw(st.lists(st.one_of(st.just(0), coord),
                                      min_size=spec.e, max_size=spec.e)))


@settings(max_examples=200, deadline=None)
@given(field_elements())
def test_integer_valuation_matches_fraction_terms(x):
    old = val_by_terms(x)
    ev = x._ev()
    assert ev == (None if old is None else old * x.spec.e)
    assert str(x.val()) == str(INF if old is None else old)
    assert str(x.dist_to_integers()) == str(dist_by_terms(x))
    higher = val_by_terms(x, 1)
    assert x._ev(1) == (None if higher is None else higher * x.spec.e)


class TestDistToIntegers:
    def test_half_is_three_adic_integer(self, q3):
        alpha = q3.from_rational(Fraction(1, 2))
        assert alpha.dist_to_integers() is INF
        # window oracle only ever certifies lower bounds here; it must keep growing
        assert window_dist_oracle(alpha, 50) >= Fraction(3)
        assert window_dist_oracle(alpha, 200) >= Fraction(4)

    def test_third_has_pole(self, q3):
        alpha = q3.from_rational(Fraction(1, 3))
        assert alpha.dist_to_integers() == Fraction(-1)
        assert window_dist_oracle(alpha) == Fraction(-1)

    def test_pi_over_three(self, q3s):
        alpha = q3s.element([0, Fraction(1, 3)])
        assert alpha.dist_to_integers() == Fraction(-1, 2)
        assert window_dist_oracle(alpha) == Fraction(-1, 2)

    def test_translation_invariance(self, q3s, q2s, rng):
        for spec in (q3s, q2s):
            for _ in range(60):
                a = random_element(rng, spec)
                d = a.dist_to_integers()
                for k in range(-10, 11):
                    assert (a - k).dist_to_integers() == d

    def test_infinite_iff_unramified_integral(self, q3, q3s, rng):
        for _ in range(200):
            r = random_rational(rng)
            a = q3.from_rational(r)
            got = a.dist_to_integers() is INF
            # r is in lowest terms: v_3(r) >= 0 exactly when 3 misses its denominator
            expect = r.denominator % 3 != 0
            assert got == expect
        for _ in range(200):
            a = random_element(rng, q3s)
            if a.dist_to_integers() is INF:
                assert all(c == 0 for c in a.coords[1:])


@pytest.mark.parametrize("spec", FOUR_FIELDS, ids=repr)
class TestHashAgreesWithEquality:
    """An element equal to an int or a Fraction hashes as it, so sets and
    dicts treat the two as one key."""

    @pytest.mark.parametrize("r", [0, 1, -7, 3 ** 40, Fraction(1, 2), Fraction(-5, 9),
                                   Fraction(2 ** 70, 3)])
    def test_rational_element_hashes_as_its_value(self, spec, r):
        x = spec.from_rational(r)
        assert x == r and hash(x) == hash(r)
        assert r in {x} and x in {r}
        assert len({x, r}) == 1
        assert {r: "value"}[x] == "value" and {x: "element"}[r] == "element"

    def test_integral_fraction_hashes_as_the_int(self, spec):
        x = spec.from_rational(Fraction(6, 3))
        assert hash(x) == hash(2) == hash(Fraction(2))
        assert {x, 2, Fraction(2)} == {2}


@pytest.mark.parametrize("spec", [s for s in FOUR_FIELDS if s.e > 1], ids=repr)
def test_element_off_the_rationals_keeps_its_own_hash(spec):
    x = spec.element([Fraction(1, 2), 1])
    assert x not in {Fraction(1, 2), 1, 0}
    assert hash(x) == hash(spec.element([Fraction(1, 2), 1]))
    assert len({x, spec.element([Fraction(2, 4), 1]), spec.from_rational(Fraction(1, 2))}) == 2
