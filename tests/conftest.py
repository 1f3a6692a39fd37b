import random

import pytest

from prismlab.field import FieldSpec


# the fields of the benchmark's workloads
FOUR_FIELDS = (FieldSpec(3, [-3, 1]), FieldSpec(3, [-3, 0, 1]),
               FieldSpec(2, [-2, 0, 1]), FieldSpec(3, [3, 3, 0, 1]))


@pytest.fixture(scope="session")
def q3():
    """Q_3 presented with E = u - 3, so pi = 3."""
    return FieldSpec(3, [-3, 1])


@pytest.fixture(scope="session")
def q3s():
    """Q_3(sqrt 3), E = u^2 - 3."""
    return FieldSpec(3, [-3, 0, 1])


@pytest.fixture(scope="session")
def q2s():
    """Q_2(sqrt 2), E = u^2 - 2."""
    return FieldSpec(2, [-2, 0, 1])


@pytest.fixture(scope="session")
def cubic3():
    """Degree-3 Eisenstein example E = u^3 + 3u + 3 over Q_3."""
    return FieldSpec(3, [3, 3, 0, 1])


@pytest.fixture()
def rng():
    return random.Random(20260822)


def random_rational(rng, span=9):
    from fractions import Fraction
    num = rng.randint(-span, span)
    den = rng.choice([1, 1, 1, 2, 3, 4, 9])
    return Fraction(num, den)


def random_element(rng, spec, span=9):
    return spec.element([random_rational(rng, span) for _ in range(spec.e)])


def count_calls(monkeypatch, targets):
    """Replace each (owner, name) by a wrapper that counts its calls; the
    counts by name, a dict that the wrappers update."""
    calls = {}
    for owner, name in targets:
        original = getattr(owner, name)
        calls[name] = 0

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)
    return calls
