"""Fixtures and the input generators that several test modules share.

The independent references that tests compare the library with live in
ref.py; what is here only builds inputs.
"""
import importlib.util
import os
import random
from fractions import Fraction

import pytest

from prismlab.connops import bk_twist
from prismlab.field import FieldSpec
from prismlab.series import TruncSeries
from prismlab.strat import LogConnection

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


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


def random_connection(rng, spec, l, m, unif="T"):
    N = [[TruncSeries(spec, m, [random_element(rng, spec, 4) for _ in range(m)], unif)
          for _ in range(l)] for _ in range(l)]
    return LogConnection(spec, unif, l, m, N)


def constant_conn(spec, m, rows, unif="T"):
    l = len(rows)
    N = [[TruncSeries.constant(spec, m, rows[i][j], unif) for j in range(l)]
         for i in range(l)]
    return LogConnection(spec, unif, l, m, N)


def twist(spec, m, n, unif="T"):
    return bk_twist(LogConnection.trivial(spec, 1, m, unif), n)


# the benchmark's four fields (e = 1, 2, 2, 3) and the quintic
# u^5 + 3u^4 - 6u^2 + 3u + 12 over Q_3
KERNEL_FIELDS = [(3, (-3, 1)), (3, (-3, 0, 1)), (2, (-2, 0, 1)), (3, (3, 3, 0, 1)),
                 (3, (12, 3, -6, 0, 3, 1))]


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


def load_layertrace():
    """perfbench/layertrace.py as a module, loaded from its path."""
    path = os.path.join(ROOT, "perfbench", "layertrace.py")
    spec = importlib.util.spec_from_file_location("perfbench_layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
