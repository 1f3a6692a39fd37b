"""Canonical JSON round trips and rejection of malformed input."""
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from prismlab.errors import InputFormatError
from prismlab.field import INF, FieldSpec
from prismlab.galois import action_kernel, tau_power_kernel
from prismlab.serialize import (canonical_json, encode_connection,
                                encode_element, encode_field, encode_kernel,
                                encode_rational, encode_series,
                                encode_stratification, encode_valuation,
                                parse_connection, parse_element, parse_field,
                                parse_kernel, parse_rational, parse_series,
                                parse_stratification, parse_valuation)
from prismlab.series import TruncSeries
from prismlab.strat import LogConnection, from_connection

from conftest import FOUR_FIELDS, count_calls, random_connection


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


# the syntax of a JSON coordinate: what parse_rational and parse_element
# accept, how it encodes back, and the message on each refusal
ACCEPTED_COORDINATES = {
    7: 7, -3: -3, 0: 0, "12": 12, " -5 ": -5, "+4": 4, "1_000": 1000,
    " 1 / 2 ": "1/2", "3/1": 3, "6/4": "3/2", "0/-7": 0, "1_0/4": "5/2",
    " 1 / -2 ": "-1/2", "-2/-4": "1/2", "-4/2": -2,
}
REFUSED_COORDINATES = [
    ("1/0", "bad rational '1/0'"),
    ("1/-0", "bad rational '1/-0'"),
    ("1/2/3", "bad rational '1/2/3'"),
    ("1.5", "bad rational '1.5'"),
    ("", "bad rational ''"),
    ("/2", "bad rational '/2'"),
    (1.5, "expected a rational, got float"),
    (None, "expected a rational, got NoneType"),
    (True, "expected a rational, got True"),
    (False, "expected a rational, got False"),
    ([1], "expected a rational, got list"),
]


class TestRationalSyntax:
    @pytest.mark.parametrize("text", ACCEPTED_COORDINATES)
    def test_accepted(self, text, q3, q3s):
        assert encode_rational(parse_rational(text)) == ACCEPTED_COORDINATES[text]
        assert encode_element(parse_element(q3, [text])) == [ACCEPTED_COORDINATES[text]]
        assert encode_element(parse_element(q3s, [1, text])) == \
            [1, ACCEPTED_COORDINATES[text]]

    @pytest.mark.parametrize("bad,message", REFUSED_COORDINATES)
    def test_refused_with_message(self, bad, message, q3s):
        for parse in (parse_rational, lambda x: parse_element(q3s, [0, x]),
                      lambda x: parse_element(q3s, [x, "1/3"])):
            with pytest.raises(InputFormatError) as exc:
                parse(bad)
            assert str(exc.value) == message

    def test_field_coefficients(self):
        assert parse_field({"p": 3, "E": [" -3 ", "1_0/10"]}) == FieldSpec(3, [-3, 1])
        assert parse_field({"p": 3, "E": ["6/-2", 1]}) == FieldSpec(3, [-3, 1])
        for E, message in (([-3, "1/2"], "E coefficient '1/2' is not an integer"),
                           ([-3, True], "expected a rational, got True"),
                           ([-3, "1/0"], "bad rational '1/0'")):
            with pytest.raises(InputFormatError) as exc:
                parse_field({"p": 3, "E": E})
            assert str(exc.value) == message


def coordinate_text(draw):
    """A JSON coordinate as a (value, json form) pair: an int, or an "n/d"
    string with a signed, unreduced denominator and optional spaces."""
    n = draw(st.integers(-10 ** 30, 10 ** 30) | st.integers(-40, 40))
    if draw(st.booleans()):
        return Fraction(n), n
    d = draw(st.integers(1, 10 ** 12) | st.integers(1, 60)) * draw(st.sampled_from([1, -1]))
    pad = draw(st.sampled_from(["", " "]))
    return Fraction(n, d), f"{pad}{n}{pad}/{pad}{d}{pad}"


@st.composite
def coordinate_arrays(draw):
    spec = draw(st.sampled_from(FOUR_FIELDS))
    pairs = [coordinate_text(draw) for _ in range(spec.e)]
    return spec, [v for v, _ in pairs], [t for _, t in pairs]


@settings(max_examples=300, deadline=None)
@given(case=coordinate_arrays())
def test_parse_and_encode_match_fraction_path(case):
    spec, values, texts = case
    x = parse_element(spec, texts)
    y = spec.element(values)
    assert (x._num, x._den) == (y._num, y._den)
    assert encode_element(x) == [encode_rational(c) for c in x.coords]
    assert parse_element(spec, encode_element(x)) == x


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

    def test_boolean_p_rejected(self):
        # True would pass for 1 and be reported as "p = True is not prime";
        # FieldSpec refuses every p that is no int, with its own message
        for p in (True, False, 3.0, "3"):
            with pytest.raises(InputFormatError) as exc:
                parse_field({"p": p, "E": [-3, 1]})
            assert str(exc.value) == f"p = {p!r} is not an integer"

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
        assert encode_valuation(INF) == "inf"
        assert parse_valuation("inf") is INF

    def test_finite(self):
        v = Fraction(-1, 2)
        assert encode_valuation(v) == "-1/2"
        assert parse_valuation("-1/2") == v
        assert parse_valuation(3) == Fraction(3)


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

    def test_tag_must_name_a(self, rng, q3s):
        """The tag is "prismatic" iff a = a_prism, "log" iff a = a_log, else
        "custom" (kernel_tag); any other tag is refused, not ignored."""
        M = random_connection(rng, q3s, 1, 2)
        for a, tag in ((q3s.a_prism(), "prismatic"), (q3s.a_log(), "log"), (2, "custom")):
            obj = encode_kernel(action_kernel(M, a, 2))
            assert obj["tag"] == tag and parse_kernel(obj).tag == tag
            for bad in {"prismatic", "log", "custom", "nonsense", ""} - {tag}:
                with pytest.raises(InputFormatError, match=f"^kernel tag must be '{tag}' "):
                    parse_kernel({**obj, "tag": bad})

    @pytest.mark.parametrize("p,E", [(3, [-3, 1]), (2, [-2, 0, 1]), (5, [-5, 1])])
    def test_c_must_be_p_power_or_twice_one(self, p, E):
        """c = p^i or 2 p^i, i >= 0; a positive integer with another p-free
        part is refused."""
        spec = FieldSpec(p, E)
        obj = encode_kernel(action_kernel(LogConnection.trivial(spec, 1, 1), 1, 1))
        for i in (0, 1, 2, 9, 300):
            for c in (p ** i, 2 * p ** i):
                assert parse_kernel({**obj, "c": c}).c == c
            for c in (f * p ** i for f in (3, 4, 5, 7) if f % p):
                with pytest.raises(InputFormatError, match="^kernel c must be p\\^i or 2 p\\^i$"):
                    parse_kernel({**obj, "c": c})

    @pytest.mark.parametrize("variant,factor", [("K", 1), ("Kpi1", 2)])
    def test_tau_kernel_round_trips(self, rng, variant, factor):
        for spec in FOUR_FIELDS:
            k = tau_power_kernel(random_connection(rng, spec, 1, 2), 2, variant, D=3)
            assert k.c == factor * spec.p ** 2
            obj = encode_kernel(k)
            back = parse_kernel(obj)
            assert (back.c, back.tag, back.a, back.A) == (k.c, "prismatic", k.a, k.A)
            assert encode_kernel(back) == obj

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


class TestNoFractions:
    def test_io_boundary_builds_no_fraction(self, monkeypatch, rng, q3s, cubic3):
        """Parsing and re-encoding a connection, a stratification and a
        kernel stays on integer pairs: no Fraction is built."""
        objs = []
        for spec in (q3s, cubic3):
            M = random_connection(rng, spec, 2, 2)
            objs += [(parse_connection, encode_connection(M)),
                     (parse_stratification,
                      encode_stratification(from_connection(M, spec.a_prism(), 3))),
                     (parse_kernel, encode_kernel(action_kernel(M, spec.a_log(), 3)))]
        texts = [(parse, canonical_json(obj)) for parse, obj in objs]
        encoders = {parse_connection: encode_connection,
                    parse_stratification: encode_stratification, parse_kernel: encode_kernel}
        calls = count_calls(monkeypatch, [(Fraction, "__new__")])
        for parse, text in texts:
            out = canonical_json(encoders[parse](parse(json.loads(text))))
            assert out == text
        assert calls == {"__new__": 0}


class TestDeterminism:
    def test_same_object_same_bytes(self, rng, q3s):
        M = random_connection(rng, q3s, 2, 3)
        a = canonical_json(encode_connection(M))
        b = canonical_json(encode_connection(parse_connection(encode_connection(M))))
        assert a == b

    def test_sorted_compact(self):
        assert canonical_json({"h1": 1, "h0": 1}) == '{"h0":1,"h1":1}'
