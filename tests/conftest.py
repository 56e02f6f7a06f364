import os

import pytest
from hypothesis import settings

from aggcheck.agenda import agenda_over
from aggcheck.algebra import builtin_boolean2, builtin_mv_chain
from aggcheck.semantics import DEGREE_MODE, Matrix
from aggcheck.syntax import parse_formula

# CI runs every property test on the same examples, with no per-example
# deadline, so a slow runner cannot make it fail; local runs keep exploring.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def boolean2():
    return builtin_boolean2()


@pytest.fixture(scope="session")
def luk3():
    return builtin_mv_chain(3)


@pytest.fixture(scope="session")
def classical(boolean2):
    return Matrix(boolean2, frozenset({1}), "filter")


@pytest.fixture(scope="session")
def luk3_filter(luk3):
    return Matrix(luk3, frozenset({2}), "filter")


@pytest.fixture(scope="session")
def luk3_degree(luk3):
    return Matrix(luk3, None, DEGREE_MODE)


@pytest.fixture(scope="session")
def bool_agenda(classical):
    texts = ["x1", "x2", "(or x1 x2)", "(not x1)"]
    sig = classical.algebra.signature
    return agenda_over([parse_formula(t, sig) for t in texts], classical)


@pytest.fixture(scope="session")
def or_agenda(classical):
    texts = ["x1", "x2", "(or x1 x2)"]
    sig = classical.algebra.signature
    return agenda_over([parse_formula(t, sig) for t in texts], classical)


@pytest.fixture(scope="session")
def mv_agenda(luk3_degree):
    texts = ["x1", "x2", "(oplus x1 x2)"]
    sig = luk3_degree.algebra.signature
    return agenda_over([parse_formula(t, sig) for t in texts], luk3_degree)
