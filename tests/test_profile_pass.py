"""The one pass behind the rationality, systematicity and Pareto checks,
against plain per-profile loops kept here as the reference.

The references restate the definitions directly: every rational profile is
enumerated, every domain profile is aggregated by ``apply``, rationality is
decided by ``is_rational_attitude`` and closure values by ``evaluate`` at the
least witnessing valuation. Random aggregators are criterion-induced (any
table, not only homomorphisms) or extensional (any subset of the rational
profiles plus some irrational ones, in any order, with outputs that may be
perturbed).
"""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aggcheck.aggregation
from aggcheck.agenda import agenda_over
from aggcheck.aggregation import (
    INDEPENDENT,
    STRONGLY_SYSTEMATIC,
    SYSTEMATIC,
    AttitudeFunction,
    CriterionAggregator,
    DecisionCriterion,
    ExtensionalAggregator,
    Profile,
    aggregator_from_criterion,
    check_pareto,
    check_rational_universal,
    check_systematicity,
    criterion_from_aggregator,
    enumerate_rational_profiles,
    is_rational_attitude,
    majority_criterion,
    projection_criterion,
    witness_attitudes,
)
from aggcheck.algebra import builtin_boolean2, builtin_mv_chain, closure_vectors, evaluate
from aggcheck.semantics import DEGREE_MODE, Matrix
from aggcheck.syntax import formula_sort_key, parse_formula


def _agenda(matrix, texts):
    return agenda_over([parse_formula(t, matrix.algebra.signature) for t in texts], matrix)


BOOLEAN = _agenda(Matrix(builtin_boolean2(), frozenset({1})),
                  ["x1", "x2", "(or x1 x2)", "(not x1)"])
MV_FILTER = _agenda(Matrix(builtin_mv_chain(3), frozenset({2})), ["x1", "x2", "(oplus x1 x2)"])
MV_DEGREE = _agenda(Matrix(builtin_mv_chain(3), None, DEGREE_MODE),
                    ["x1", "x2", "(oplus x1 x2)"])
SETTINGS = [(BOOLEAN, n) for n in (1, 2, 3)] + [(a, n) for a in (MV_FILTER, MV_DEGREE)
                                                for n in (1, 2)]
LEVELS = [INDEPENDENT, SYSTEMATIC, STRONGLY_SYSTEMATIC]


# ---------------------------------------------------------------------------
# References: one loop per check, one profile at a time
# ---------------------------------------------------------------------------


def reference_rational_universal(aggregator):
    universal = rational = True
    missing = witness = None
    for profile in enumerate_rational_profiles(aggregator.agenda, aggregator.electorate):
        if not aggregator.in_domain(profile):
            if universal:
                universal, missing = False, profile
            continue
        output = aggregator.apply(profile)
        if rational and not is_rational_attitude(output)[0]:
            rational, witness = False, (profile, output)
    return universal, rational, missing, witness


def reference_fragment(agenda, level, depth):
    if level != STRONGLY_SYSTEMATIC:
        return agenda.formulas
    closure = closure_vectors(agenda.formulas, agenda.variables, agenda.algebra, depth)
    return tuple(sorted({*agenda.formulas, *closure.values()}, key=formula_sort_key))


def reference_systematicity(aggregator, level, depth):
    agenda = aggregator.agenda
    fragment = reference_fragment(agenda, level, depth)

    def extended(attitude):  # values on the fragment at the least witnessing valuation
        ok, valuation = is_rational_attitude(attitude)
        if ok:
            return tuple(evaluate(f, valuation, agenda.algebra) for f in fragment)
        return None

    first = {}
    for p_num, profile in enumerate(aggregator.domain_profiles()):
        output = aggregator.apply(profile)
        voters = [extended(a) for a in profile.attitudes]
        out = extended(output)
        closed = out is not None and None not in voters
        for f_num, formula in enumerate(fragment):
            if formula in agenda.index:
                i = agenda.index[formula]
                attained = tuple(a.values[i] for a in profile.attitudes)
                value = output.values[i]
            elif closed:
                attained = tuple(v[f_num] for v in voters)
                value = out[f_num]
            else:
                continue
            key = (attained, formula) if level == INDEPENDENT else attained
            if key not in first:
                first[key] = (value, p_num, formula)
            elif first[key][0] != value:
                prior_value, prior_profile, prior_formula = first[key]
                return False, None, (
                    f"tuple {attained}: value {prior_value} from profile {prior_profile} at "
                    f"{formula_sort_key(prior_formula)} vs value {value} from profile "
                    f"{p_num} at {formula_sort_key(formula)}"
                )
    return True, {k: v for k, (v, _, _) in first.items()}, None


def reference_extraction_error(aggregator, depth):
    """The precondition error ``criterion_from_aggregator`` must raise, or None."""
    universal, rational, _, _ = reference_rational_universal(aggregator)
    if not (universal and rational):
        return (f"aggregator is not universal+rational: "
                f"universal={universal} rational={rational}")
    holds, _, conflict = reference_systematicity(aggregator, STRONGLY_SYSTEMATIC, depth)
    if not holds:
        return f"aggregator is not strongly systematic: {conflict}"
    return None


def reference_pareto(aggregator):
    agenda = aggregator.agenda
    constants = {agenda.algebra.constant(c) for c in agenda.signature.constants}
    checked = 0
    for profile in enumerate_rational_profiles(agenda, aggregator.electorate):
        output = aggregator.apply(profile)
        checked += 1
        for i, formula in enumerate(agenda.formulas):
            values = {a.values[i] for a in profile.attitudes}
            if len(values) == 1 and values <= constants and output.values[i] not in values:
                label = agenda.algebra.label
                return False, checked, (f"unanimous {label(min(values))} on "
                                        f"{formula_sort_key(formula)} aggregated to "
                                        f"{label(output.values[i])}")
    return True, checked, None


# ---------------------------------------------------------------------------
# Random aggregators
# ---------------------------------------------------------------------------


@st.composite
def criteria(draw, agenda, n):
    size = agenda.algebra.size
    if draw(st.booleans()):  # a projection qualifies, so the checks run to the end
        return projection_criterion(agenda.algebra, n, draw(st.integers(0, n - 1)))
    values = draw(st.lists(st.integers(0, size - 1), min_size=size**n, max_size=size**n))
    return DecisionCriterion(agenda.algebra, n, tuple(values))


@st.composite
def extensional(draw, agenda, n, criterion):
    """Outputs of ``criterion`` on a random domain in a random order, a few
    of them overwritten by arbitrary values."""
    size = agenda.algebra.size
    width = len(agenda.formulas)
    induced = CriterionAggregator(criterion, agenda)
    rational = list(enumerate_rational_profiles(agenda, n))
    strays = draw(st.lists(st.lists(st.integers(0, size - 1), min_size=width * n,
                                    max_size=width * n), max_size=3))
    pool = list(dict.fromkeys(rational + [
        Profile(tuple(AttitudeFunction(agenda, tuple(v[k * width:(k + 1) * width]))
                      for k in range(n)))
        for v in strays
    ]))
    keep = draw(st.sampled_from(["all", "rational", "all but one", "some"]))
    if keep == "some":
        chosen = [p for p in pool if draw(st.booleans())]
    elif keep == "all but one":
        chosen = pool[:]
        del chosen[draw(st.integers(0, len(rational) - 1))]
    else:
        chosen = pool if keep == "all" else rational
    order = draw(st.permutations(range(len(chosen))))
    rows = [[chosen[i], list(induced.apply(chosen[i]).values)] for i in order]
    for row, pos, value in draw(st.lists(
            st.tuples(st.integers(0, max(len(rows) - 1, 0)), st.integers(0, width - 1),
                      st.integers(0, size - 1)), max_size=3 if rows else 0)):
        rows[row][1][pos] = value
    table = tuple((p, AttitudeFunction(agenda, tuple(v))) for p, v in rows)
    return ExtensionalAggregator(agenda, n, table)


@st.composite
def aggregators(draw):
    agenda, n = draw(st.sampled_from(SETTINGS))
    criterion = draw(criteria(agenda, n))
    if draw(st.booleans()):
        return CriterionAggregator(criterion, agenda)
    return draw(extensional(agenda, n, criterion))


# ---------------------------------------------------------------------------
# The pass equals the references
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(aggregators(), st.sampled_from(LEVELS), st.integers(1, 2))
def test_systematicity_equals_the_reference(aggregator, level, depth):
    result = check_systematicity(aggregator, level, depth)
    assert (result.holds, result.criterion, result.conflict) == reference_systematicity(
        aggregator, level, depth)
    if result.holds:  # the criterion keeps its first-occurrence order
        assert list(result.criterion) == list(
            reference_systematicity(aggregator, level, depth)[1])


@settings(max_examples=60, deadline=None)
@given(aggregators())
def test_rational_universal_equals_the_reference(aggregator):
    report = check_rational_universal(aggregator)
    assert (report.universal, report.rational, report.missing_profile,
            report.irrational_witness) == reference_rational_universal(aggregator)


@settings(max_examples=60, deadline=None)
@given(aggregators(), st.integers(1, 2))
def test_extraction_errors_equal_the_reference(aggregator, depth):
    expected = reference_extraction_error(aggregator, depth)
    try:
        criterion_from_aggregator(aggregator, depth=depth)
    except ValueError as error:
        if expected is not None or str(error).startswith("aggregator is not"):
            assert str(error) == expected
    else:
        assert expected is None


@settings(max_examples=40, deadline=None)
@given(aggregators())
def test_pareto_equals_the_reference(aggregator):
    expected_error = reference_extraction_error(aggregator, 1)
    if expected_error is not None:
        with pytest.raises(ValueError, match="Pareto check requires"):
            check_pareto(aggregator)
        return
    report = check_pareto(aggregator)
    assert (report.holds, report.checked_profiles, report.witness) == reference_pareto(
        aggregator)


# ---------------------------------------------------------------------------
# Each profile is aggregated once
# ---------------------------------------------------------------------------


@pytest.fixture
def applied(monkeypatch):
    """Counts ``CriterionAggregator.apply`` calls by profile."""
    counts = Counter()
    apply = CriterionAggregator.apply

    def spy(self, profile):
        counts[profile] += 1
        return apply(self, profile)

    monkeypatch.setattr(CriterionAggregator, "apply", spy)
    return counts


@pytest.mark.parametrize("agenda, n", [(BOOLEAN, 3), (MV_DEGREE, 2)])
def test_round_trip_aggregates_each_profile_once(agenda, n, applied):
    """The checks read the outputs off the criterion; only the |B|^N witness
    profiles of the extraction are aggregated, each once."""
    aggregator = aggregator_from_criterion(projection_criterion(agenda.algebra, n, 0), agenda)
    criterion_from_aggregator(aggregator, depth=2)
    _, attitude_for = witness_attitudes(agenda)
    witnesses = Counter(Profile(tuple(attitude_for[b] for b in coords))
                        for coords in product(range(agenda.algebra.size), repeat=n))
    assert applied == witnesses
    assert sum(applied.values()) == agenda.algebra.size**n


def test_pareto_aggregates_each_profile_once(applied):
    """The Pareto scan reads the outputs off the criterion and aggregates no
    profile."""
    aggregator = aggregator_from_criterion(projection_criterion(BOOLEAN.algebra, 3, 2), BOOLEAN)
    assert check_pareto(aggregator).holds
    assert not applied


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_irrational_witness_is_built_from_its_number(n, monkeypatch):
    """Majority on the boolean agenda: the reported witness is the first
    rational profile aggregated irrationally, built without enumerating the
    rational profiles."""
    aggregator = CriterionAggregator(majority_criterion(BOOLEAN.algebra, n), BOOLEAN)
    expected = next(
        (p for p in enumerate_rational_profiles(BOOLEAN, n)
         if not is_rational_attitude(aggregator.apply(p))[0]),
        None,
    )
    assert (expected is None) == (n == 1)
    called = []
    monkeypatch.setattr(aggcheck.aggregation, "enumerate_rational_profiles",
                        lambda *args: called.append(args))
    witness = check_rational_universal(aggregator).irrational_witness
    assert (witness and witness[0]) == expected
    assert not called
