"""Canonical JSON round trips and rejection of malformed input."""
import json
from fractions import Fraction

import pytest

from prismlab.errors import InputFormatError
from prismlab.field import FieldSpec, Valuation
from prismlab.galois import action_kernel
from prismlab.serialize import (canonical_json, encode_connection,
                                encode_element, encode_field, encode_kernel,
                                encode_rational, encode_series,
                                encode_stratification, encode_valuation,
                                parse_connection, parse_element, parse_field,
                                parse_kernel, parse_rational, parse_series,
                                parse_stratification, parse_valuation)
from prismlab.series import TruncSeries
from prismlab.strat import LogConnection, from_connection

from test_strat import random_connection


class TestRational:
    def test_integers_stay_bare(self):
        assert encode_rational(Fraction(3)) == 3
        assert encode_rational(Fraction(-7, 1)) == -7

    def test_lowest_terms_positive_denominator(self):
        assert encode_rational(Fraction(2, -4)) == "-1/2"
        assert parse_rational("-2/-4") == Fraction(1, 2)
        assert encode_rational(parse_rational("-2/-4")) == "1/2"

    def test_round_trip(self):
        for r in (Fraction(0), Fraction(5, 3), Fraction(-9, 12)):
            assert parse_rational(encode_rational(r)) == r

    def test_rejects_junk(self):
        for bad in ("a/b", "1/0", 1.5, None, True, "1.5"):
            with pytest.raises(InputFormatError):
                parse_rational(bad)


class TestFieldForms:
    def test_round_trip(self, q3s):
        assert parse_field(encode_field(q3s)) == q3s

    def test_non_eisenstein_rejected(self):
        with pytest.raises(InputFormatError):
            parse_field({"p": 3, "E": [-9, 0, 1]})
        with pytest.raises(InputFormatError):
            parse_field({"p": 4, "E": [-4, 1]})
        with pytest.raises(InputFormatError):
            parse_field({"p": 3, "E": ["1/2", 1]})

    def test_element_round_trip(self, rng, q3s):
        from conftest import random_element
        x = random_element(rng, q3s)
        assert parse_element(q3s, encode_element(x)) == x

    def test_element_length_checked(self, q3s):
        with pytest.raises(InputFormatError):
            parse_element(q3s, [1])
        with pytest.raises(InputFormatError):
            parse_element(q3s, [1, 2, 3])


class TestValuationForms:
    def test_infinity_token(self):
        assert encode_valuation(Valuation.infinity()) == "inf"
        assert parse_valuation("inf").is_infinite

    def test_finite(self):
        v = Valuation(Fraction(-1, 2))
        assert encode_valuation(v) == "-1/2"
        assert parse_valuation("-1/2") == v
        assert parse_valuation(3) == Valuation(3)


class TestSeriesForms:
    def test_round_trip(self, q3s):
        s = TruncSeries(q3s, 3, [q3s.element([1, Fraction(1, 2)]), q3s.one(),
                                 q3s.zero()], "u-pi")
        back = parse_series(q3s, encode_series(s))
        assert back == s and back.unif == "u-pi"

    def test_bad_lengths(self, q3s):
        obj = encode_series(TruncSeries.one(q3s, 2))
        obj["coeffs"] = obj["coeffs"][:1]
        with pytest.raises(InputFormatError):
            parse_series(q3s, obj)


class TestConnectionForms:
    def test_round_trip(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 3, unif="u-pi")
        back = parse_connection(encode_connection(M))
        assert back == M and back.unif == "u-pi" and back.spec == q3s

    def test_header_consistency_enforced(self, rng, q3):
        obj = encode_connection(random_connection(rng, q3, 1, 2))
        obj["N"][0][0]["m"] = 3
        obj["N"][0][0]["coeffs"].append([0])
        with pytest.raises(InputFormatError):
            parse_connection(obj)
        obj2 = encode_connection(random_connection(rng, q3, 1, 2))
        obj2["N"][0][0]["unif"] = "y"
        with pytest.raises(InputFormatError):
            parse_connection(obj2)

    def test_shape_enforced(self, rng, q3):
        obj = encode_connection(random_connection(rng, q3, 2, 2))
        obj["N"][0] = obj["N"][0][:1]
        with pytest.raises(InputFormatError):
            parse_connection(obj)


class TestStratificationForms:
    def test_round_trip(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 2)
        st = from_connection(M, q3s.a_prism(), 4)
        back = parse_stratification(encode_stratification(st))
        assert back == st

    def test_operator_count_checked(self, rng, q3):
        st = from_connection(random_connection(rng, q3, 1, 2), 1, 3)
        obj = encode_stratification(st)
        obj["phi"] = obj["phi"][:-1]
        with pytest.raises(InputFormatError):
            parse_stratification(obj)

    def test_boolean_sizes_rejected(self, q3):
        # true would pass for 1 and come back out of strat to-conn as "m":true
        obj = encode_stratification(from_connection(LogConnection.trivial(q3, 1, 1), 1, 1))
        parse_stratification(obj)
        for key in ("l", "m", "D"):
            with pytest.raises(InputFormatError):
                parse_stratification({**obj, key: True})


class TestKernelForms:
    def test_round_trip(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 2)
        k = action_kernel(M, q3s.a_prism(), 4)
        back = parse_kernel(encode_kernel(k))
        assert back.D == k.D and back.tag == "prismatic" and back.a == k.a
        assert all(x == y for x, y in zip(back.A, k.A))
        assert back.c is None

    def test_boolean_D_rejected(self, q3):
        obj = encode_kernel(action_kernel(LogConnection.trivial(q3, 1, 1), 1, 1))
        parse_kernel(obj)
        with pytest.raises(InputFormatError):
            parse_kernel({**obj, "D": True})

    def test_non_string_tag_rejected(self, q3):
        obj = encode_kernel(action_kernel(LogConnection.trivial(q3, 1, 1), 1, 1))
        for tag in (7, None, ["log"]):
            with pytest.raises(InputFormatError):
                parse_kernel({**obj, "tag": tag})

    def test_c_must_be_positive_integer(self, q3):
        obj = encode_kernel(action_kernel(LogConnection.trivial(q3, 1, 1), 1, 1))
        assert parse_kernel({**obj, "c": 6}).c == 6
        for c in (0, -3, True, 1.5, "6", None):
            with pytest.raises(InputFormatError):
                parse_kernel({**obj, "c": c})

    def test_identity_slot_checked(self, rng, q3):
        k = action_kernel(random_connection(rng, q3, 1, 2), 1, 2)
        obj = encode_kernel(k)
        obj["A"][0][0][0] = [2]
        with pytest.raises(InputFormatError):
            parse_kernel(obj)

    def test_recurrence_checked(self, rng, q3s):
        # A_(n+1) = (A_1 - n*a) A_n: a changed A_n is refused by name
        k = action_kernel(random_connection(rng, q3s, 1, 2), q3s.a_prism(), 4)
        obj = encode_kernel(k)
        assert parse_kernel(obj).A == k.A
        for n in (2, 3, 4):
            bad = json.loads(json.dumps(obj))
            bad["A"][n][1][0] = encode_element(k.A[n][1, 0] + 1)
            with pytest.raises(InputFormatError, match=f"A_{n} "):
                parse_kernel(bad)


class TestDeterminism:
    def test_same_object_same_bytes(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 3)
        a = canonical_json(encode_connection(M))
        b = canonical_json(encode_connection(parse_connection(encode_connection(M))))
        assert a == b

    def test_sorted_compact(self):
        assert canonical_json({"h1": 1, "h0": 1}) == '{"h0":1,"h1":1}'
