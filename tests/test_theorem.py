"""The characterization theorem on random matrices: both routes, differentially.

Homomorphism -> aggregator needs no selfextensionality: for h: A^N -> A, the
output on a rational profile (v1, ..., vN) is h o (v1, ..., vN), itself a
valuation, so it is rational and agrees with the criterion on every closure
formula. The homomorphism tables are therefore a subset of the census's on
every matrix and agenda. Aggregator -> homomorphism needs the theorem's
hypotheses: where the CLI's gate (``witness_attitudes``) passes and the agenda
is pseudo-rich up to the signature's arity (2 here), the two routes are equal.

No draw is filtered: a draw where a relation fails is a finding.
"""

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck.agenda import agenda_over, pseudo_richness
from aggcheck.aggregation import witness_attitudes
from aggcheck.algebra import FiniteAlgebra, power_homomorphisms
from aggcheck.census import qualifying_criteria
from aggcheck.fileio import matrix_from_obj
from aggcheck.semantics import Matrix
from aggcheck.syntax import Signature, parse_formula

from test_golden import U3

SIGNATURE = Signature((("u", 1), ("b", 2)))

AGENDA_SHAPES = (
    ("(u x1)", "(b x1 x2)"),
    ("(b x1 x2)",),
    ("(u x1)", "(u x2)"),
    ("x1", "(u x1)"),
    ("(u x1)", "(u x2)", "(b x1 x2)"),
    ("x1", "x2", "(b x1 x2)"),
)


def agenda_of(size, u, b, designated, shape):
    algebra = FiniteAlgebra(SIGNATURE, tuple(map(str, range(size))),
                            (("u", tuple(u)), ("b", tuple(b))), name=f"random{size}")
    matrix = Matrix(algebra, frozenset(designated))
    return agenda_over([parse_formula(text, SIGNATURE) for text in shape], matrix)


def both_routes(agenda, electorate):
    """The homomorphism tables and the census tables, each sorted."""
    homs = sorted(h.mapping for h in power_homomorphisms(agenda.algebra, electorate))
    census = sorted(c.values for c in qualifying_criteria(agenda, electorate))
    return homs, census


def gate_passes(agenda):
    try:
        witness_attitudes(agenda)
    except ValueError:
        return False
    return True


@st.composite
def draws(draw):
    size = draw(st.integers(2, 3))
    value = st.integers(0, size - 1)
    u = draw(st.lists(value, min_size=size, max_size=size))
    b = draw(st.lists(value, min_size=size * size, max_size=size * size))
    designated = draw(st.sets(st.integers(0, size - 1), min_size=1, max_size=size - 1))
    shape = draw(st.sampled_from(AGENDA_SHAPES))
    return agenda_of(size, u, b, designated, shape), draw(st.integers(1, 2))


@settings(max_examples=300, deadline=None)
@given(draws())
def test_homomorphisms_qualify_and_the_gate_gives_equality(drawn):
    agenda, electorate = drawn
    homs, census = both_routes(agenda, electorate)
    assert set(homs) <= set(census)
    if gate_passes(agenda) and pseudo_richness(agenda)[0] >= 2:
        assert homs == census


def test_u3_differs_and_the_gate_refuses_it():
    # the golden corpus's U3: not in Alg S, so the census finds more tables
    agenda = agenda_over([parse_formula(text, SIGNATURE) for text in ("(u x1)", "(u x2)")],
                         matrix_from_obj(U3))
    homs, census = both_routes(agenda, 2)
    assert (len(homs), len(census)) == (3, 36)
    assert set(homs) < set(census)
    assert pseudo_richness(agenda)[0] == 2
    with pytest.raises(ValueError, match="pseudo-rich witness does not track its variable"):
        witness_attitudes(agenda)
