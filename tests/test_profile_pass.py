"""The rationality and systematicity checks and the extraction's whole-table
check, against plain per-profile loops kept here as the reference.

The references restate the definitions directly: every rational profile is
enumerated from ``all_valuations`` and ``evaluate``, every domain profile is
aggregated by ``apply``, domain membership is decided here (a criterion
aggregator's domain is the rational profiles, by ``is_rational_attitude``; an
extensional one's is its table), rationality is decided by
``is_rational_attitude`` and closure values by ``evaluate`` at the least
witnessing valuation. None of them reads a table the checks themselves read.
Random aggregators are criterion-induced (any table, not only homomorphisms)
or extensional (any subset of the rational profiles plus some irrational
ones, in any order, with outputs that may be perturbed).
"""

import json
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import assume, given, settings
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
    _extends_everywhere,
    aggregator_from_criterion,
    check_rational_universal,
    check_systematicity,
    criterion_from_aggregator,
    enumerate_rational_profiles,
    majority_criterion,
    projection_criterion,
    witness_attitudes,
)
from aggcheck.algebra import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    builtin_boolean2,
    builtin_mv_chain,
    closure_vectors,
    evaluate,
    power_homomorphisms,
)
from aggcheck.census import _fragment_and_extensions, _gather, _voter_ranks
from aggcheck.cli import main
from aggcheck.errors import BudgetExceededError, NotQualifyingError
from aggcheck.oracles import all_valuations, is_rational_attitude
from aggcheck.semantics import Matrix
from aggcheck.syntax import Signature, formula_sort_key, parse_formula
from builders import builtin_distributive_lattice


def _agenda(matrix, texts):
    return agenda_over([parse_formula(t, matrix.algebra.signature) for t in texts], matrix)


BOOLEAN = _agenda(Matrix(builtin_boolean2(), frozenset({1})),
                  ["x1", "x2", "(or x1 x2)", "(not x1)"])
MV_FILTER = _agenda(Matrix(builtin_mv_chain(3), frozenset({2})), ["x1", "x2", "(oplus x1 x2)"])
MV_DEGREE = _agenda(Matrix(builtin_mv_chain(3)), ["x1", "x2", "(oplus x1 x2)"])
BOOLEAN_TOP = _agenda(Matrix(builtin_boolean2(), frozenset({1})), ["top"])
SETTINGS = [(BOOLEAN, n) for n in (1, 2, 3)] + [(a, n) for a in (MV_FILTER, MV_DEGREE)
                                                for n in (1, 2)]
LEVELS = [INDEPENDENT, SYSTEMATIC, STRONGLY_SYSTEMATIC]


# ---------------------------------------------------------------------------
# References: one loop per check, one profile at a time
# ---------------------------------------------------------------------------


def rational_profiles(agenda, n):
    """Every rational profile, voter 0 most significant, each voter's attitudes
    in order of their least witnessing valuation."""
    attitudes = {}
    for valuation in all_valuations(agenda.variables, agenda.algebra):
        values = tuple(evaluate(f, valuation, agenda.algebra) for f in agenda.formulas)
        attitudes.setdefault(values, AttitudeFunction(agenda, values))
    return [Profile(combo) for combo in product(attitudes.values(), repeat=n)]


def domain(aggregator):
    """The profiles the aggregator is defined on, in the order it reads them."""
    if isinstance(aggregator, ExtensionalAggregator):
        return [profile for profile, _ in aggregator.table]
    return rational_profiles(aggregator.agenda, aggregator.electorate)


def in_domain(aggregator, profile):
    if isinstance(aggregator, ExtensionalAggregator):
        return any(profile == row for row, _ in aggregator.table)
    return all(is_rational_attitude(a)[0] for a in profile.attitudes)


def reference_rational_universal(aggregator):
    universal = rational = True
    missing = witness = None
    for profile in rational_profiles(aggregator.agenda, aggregator.electorate):
        if not in_domain(aggregator, profile):
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
    for p_num, profile in enumerate(domain(aggregator)):
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


def reference_witness_criterion(aggregator):
    """The criterion read through witness profiles: for each voter tuple in
    row-major order, the output at the witness formula on the profile whose
    voters take the witness attitudes for that tuple's values."""
    agenda = aggregator.agenda
    witness, attitude_for = witness_attitudes(agenda)
    position = agenda.index[witness]
    return tuple(
        aggregator.apply(Profile(tuple(attitude_for[b] for b in coords))).values[position]
        for coords in product(range(agenda.algebra.size), repeat=aggregator.electorate))


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
# The checks equal the references
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


@settings(max_examples=60, deadline=None)
@given(aggregators(), st.integers(1, 2))
def test_extracted_criterion_equals_the_witness_profile_read(aggregator, depth):
    """Past the preconditions, the ledger read gives the witness-profile
    read's table, or the homomorphism refusal that table earns."""
    assume(reference_extraction_error(aggregator, depth) is None)
    reference = DecisionCriterion(aggregator.agenda.algebra, aggregator.electorate,
                                  reference_witness_criterion(aggregator))
    violation = reference.homomorphism_violation()
    try:
        extracted = criterion_from_aggregator(aggregator, depth=depth)
    except NotQualifyingError as error:
        assert violation is not None
        assert str(error).startswith("extracted criterion is not a homomorphism (fails at "
                                     f"{violation[0]} on {violation[1]})")
    else:
        assert violation is None and extracted == reference


# ---------------------------------------------------------------------------
# The whole-table check of a criterion aggregator equals the per-profile loop
# ---------------------------------------------------------------------------

DIAMOND = _agenda(Matrix(builtin_distributive_lattice(
    ["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)]), frozenset({3})),
    ["x1", "x2", "(or x1 x2)"])
TABLE_SETTINGS = [(a, n) for a in (BOOLEAN, MV_FILTER, MV_DEGREE, DIAMOND) for n in (1, 2, 3)]


@lru_cache(maxsize=None)
def homomorphism_tables(algebra, n):
    return [h.mapping for h in power_homomorphisms(algebra, n)]


@st.composite
def round_trip_criteria(draw):
    """A projection's or a homomorphism's criterion aggregator, and whether
    one entry of its criterion was flipped to another value."""
    agenda, n = draw(st.sampled_from(TABLE_SETTINGS))
    algebra = agenda.algebra
    if draw(st.booleans()):
        values = projection_criterion(algebra, n, draw(st.integers(0, n - 1))).values
    else:
        values = draw(st.sampled_from(homomorphism_tables(algebra, n)))
    flipped = draw(st.booleans())
    if flipped:
        at = draw(st.integers(0, len(values) - 1))
        value = draw(st.sampled_from([v for v in range(algebra.size) if v != values[at]]))
        values = (*values[:at], value, *values[at + 1:])
    return CriterionAggregator(DecisionCriterion(algebra, n, values), agenda), flipped


def extraction(aggregator, depth):
    """``criterion_from_aggregator``'s outcome: its criterion, or its refusal text."""
    try:
        return criterion_from_aggregator(aggregator, depth=depth)
    except NotQualifyingError as error:
        return str(error)


def fast_and_exact(aggregator, depth, monkeypatch):
    """The extraction as it runs; the extraction with its whole-table check
    failed, so that it falls back to the per-profile checks; and whether the
    check itself held."""
    fast = extraction(aggregator, depth)
    checks = []
    extends_everywhere = aggcheck.aggregation._extends_everywhere
    with monkeypatch.context() as patch:
        patch.setattr(aggcheck.aggregation, "_extends_everywhere",
                      lambda *args: checks.append(extends_everywhere(*args)) or False)
        exact = extraction(aggregator, depth)
    return fast, exact, checks == [True]


@settings(max_examples=80, deadline=None)
@given(round_trip_criteria(), st.integers(1, 2))
def test_whole_table_check_returns_what_the_loop_returns(drawn, depth):
    aggregator, flipped = drawn
    with pytest.MonkeyPatch.context() as monkeypatch:
        fast, exact, extends = fast_and_exact(aggregator, depth, monkeypatch)
    assert fast == exact
    if not flipped:  # a homomorphism's aggregator passes on the whole table
        assert extends and fast == aggregator.criterion


def one_connective_agenda(connective, arity, table, texts):
    algebra = FiniteAlgebra(Signature(((connective, arity),)), ("0", "1"), ((connective, table),))
    return _agenda(Matrix(algebra, frozenset({1})), texts)


# itemgetter with one key returns the bare value, not a 1-tuple
@pytest.mark.parametrize("agenda, columns, attitudes", [
    (one_connective_agenda("id", 1, (0, 1), ["x1"]), 1, 2),  # one fragment formula
    (BOOLEAN_TOP, 2, 1),  # one rational profile
    (one_connective_agenda("c", 0, (1,), ["c"]), 1, 1),  # both
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_whole_table_check_on_one_column_or_one_profile(agenda, columns, attitudes, n,
                                                        monkeypatch):
    fragment, extensions = _fragment_and_extensions(agenda, 2, DEFAULT_BUDGET)
    assert (len(fragment), len(extensions)) == (columns, attitudes)
    for values in [projection_criterion(agenda.algebra, n, 0).values,
                   *homomorphism_tables(agenda.algebra, n)]:
        aggregator = CriterionAggregator(DecisionCriterion(agenda.algebra, n, values), agenda)
        fast, exact, extends = fast_and_exact(aggregator, 2, monkeypatch)
        assert fast == exact and extends
        assert check_rational_universal(aggregator).both
        assert check_systematicity(aggregator, STRONGLY_SYSTEMATIC, 2).holds


# ---------------------------------------------------------------------------
# The whole-table check's product form equals its definition
# ---------------------------------------------------------------------------


def reference_extends_everywhere(table, ranks, extensions):
    """The whole-table check by its definition: each column of the rank table
    read through the criterion, and every profile's row of outputs one of the
    rational attitudes' extensions."""
    return set(extensions).issuperset(zip(*(_gather(table, c) for c in ranks.columns)))


def assert_product_form(ranks, attitudes):
    """Each rank of the table is its first part's rank times ``width`` plus its
    last part's, the profiles in product order with the first part leading."""
    for column, highs, lows in zip(ranks.columns, ranks.first, ranks.last, strict=True):
        assert len(highs) * len(lows) == len(column) == attitudes
        assert all(low < ranks.width for low in lows)
        assert column == tuple(high * ranks.width + low for high in highs for low in lows)


@st.composite
def whole_tables(draw):
    """A criterion table at N=1-4 over boolean2, mv3 or the diamond: a
    homomorphism's, the same with one entry flipped or with one block of the
    product form copied over another, or any table."""
    agenda, n = draw(st.sampled_from(
        [(a, n) for a in (BOOLEAN, MV_FILTER, MV_DEGREE, DIAMOND) for n in (1, 2, 3, 4)]))
    size = agenda.algebra.size
    kind = draw(st.sampled_from(["homomorphism", "flipped", "copied block", "any"]))
    if kind == "any":
        return agenda, n, tuple(draw(st.lists(st.integers(0, size - 1), min_size=size**n,
                                              max_size=size**n)))
    values = list(draw(st.sampled_from(homomorphism_tables(agenda.algebra, n))))
    if kind == "flipped":
        at = draw(st.integers(0, len(values) - 1))
        values[at] = draw(st.sampled_from([v for v in range(size) if v != values[at]]))
    elif kind == "copied block":
        width = size ** (n // 2)
        source, target = (draw(st.integers(0, len(values) // width - 1)) for _ in range(2))
        values[target * width:(target + 1) * width] = values[source * width:(source + 1) * width]
    return agenda, n, tuple(values)


@settings(max_examples=120, deadline=None)
@given(whole_tables())
def test_product_form_check_equals_its_definition(drawn):
    agenda, n, table = drawn
    _, extensions = _fragment_and_extensions(agenda, 1, DEFAULT_BUDGET)
    ranks = _voter_ranks(agenda.algebra.size, n, extensions)
    assert_product_form(ranks, len(extensions) ** n)
    assert _extends_everywhere(table, ranks, extensions) == reference_extends_everywhere(
        table, ranks, extensions)
    if table in homomorphism_tables(agenda.algebra, n):
        assert _extends_everywhere(table, ranks, extensions)


def no_formula_agenda():
    negation = Signature((("not", 1),))
    return agenda_over([], Matrix(FiniteAlgebra(negation, ("0", "1"), (("not", (1, 0)),)),
                                  frozenset({1})))


# itemgetter with one key returns the bare value, not a 1-tuple
@pytest.mark.parametrize("agenda, columns, attitudes", [
    (one_connective_agenda("id", 1, (0, 1), ["x1"]), 1, 2),  # one fragment formula
    (BOOLEAN_TOP, 2, 1),  # one rational attitude
    (one_connective_agenda("c", 0, (1,), ["c"]), 1, 1),  # both
    (no_formula_agenda(), 0, 1),  # no formula, so no column
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_form_check_on_every_table_of_the_edge_agendas(agenda, columns, attitudes, n):
    fragment, extensions = _fragment_and_extensions(agenda, 2, DEFAULT_BUDGET)
    assert (len(fragment), len(extensions)) == (columns, attitudes)
    ranks = _voter_ranks(2, n, extensions)
    assert_product_form(ranks, attitudes**n)
    verdicts = Counter()
    for table in product(range(2), repeat=2**n):
        verdict = _extends_everywhere(table, ranks, extensions)
        assert verdict == reference_extends_everywhere(table, ranks, extensions)
        verdicts[verdict] += 1
    # some table fails unless every row of values is some attitude's extension
    assert verdicts[True] and (verdicts[False] or attitudes == 2**columns)


# ---------------------------------------------------------------------------
# No profile is aggregated and no witness built
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
def test_round_trip_aggregates_no_profile(agenda, n, applied, monkeypatch):
    """The checks read the outputs off the criterion and the extraction reads
    the ledger, so no profile is aggregated and no witness attitude built."""
    witnessed = []
    for name in ("witness_attitudes", "_attitudes_with_values"):
        monkeypatch.setattr(aggcheck.aggregation, name,
                            lambda *args, name=name: witnessed.append(name))
    projection = projection_criterion(agenda.algebra, n, 0)
    aggregator = aggregator_from_criterion(projection, agenda)
    assert criterion_from_aggregator(aggregator, depth=2) == projection
    assert not applied and not witnessed


def test_verify_bijection_builds_no_profile(applied, tmp_path, monkeypatch, capsys):
    """A passing ``verify-bijection`` on the README agenda at N=3 closes its
    three round trips without building a profile."""
    built = []
    post_init = Profile.__post_init__
    monkeypatch.setattr(Profile, "__post_init__", lambda self: built.append(self) or post_init(self))
    path = tmp_path / "agenda.json"
    path.write_text(json.dumps({"formulas": ["x1", "x2", "(or x1 x2)", "(not x1)"]}))
    assert main(["verify-bijection", "--logic", "boolean2", "--agenda", str(path),
                 "--electorate", "3"]) == 0
    assert "round trips: pass\n" in capsys.readouterr().out
    assert not built and not applied


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_irrational_witness_is_the_first_in_enumeration_order(n, monkeypatch):
    """Majority on the boolean agenda: the reported witness is the first
    rational profile aggregated irrationally, found without the enumerated
    tuple of the rational profiles."""
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


@pytest.mark.parametrize("n, left_out", [(1, 0), (2, 5), (3, -1)])
def test_missing_profile_is_the_first_in_enumeration_order(n, left_out, monkeypatch):
    """An explicit table of every rational profile but one, in reverse order:
    the reported missing profile is the reference's, found without the
    enumerated tuple of the rational profiles."""
    induced = CriterionAggregator(projection_criterion(BOOLEAN.algebra, n, 0), BOOLEAN)
    rational = enumerate_rational_profiles(BOOLEAN, n)
    table = tuple((p, induced.apply(p)) for p in reversed(rational) if p != rational[left_out])
    aggregator = ExtensionalAggregator(BOOLEAN, n, table)
    expected = reference_rational_universal(aggregator)[2]
    assert expected == rational[left_out]
    called = []
    monkeypatch.setattr(aggcheck.aggregation, "enumerate_rational_profiles",
                        lambda *args: called.append(args))
    report = check_rational_universal(aggregator)
    assert not report.universal and report.missing_profile == expected
    assert not called


# ---------------------------------------------------------------------------
# A failing extraction refuses before it reads a profile; the checks stream
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("budget, error, message", [
    (10, BudgetExceededError, "profile enumeration: 64 rational profiles exceed the limit of 10"),
    (300, BudgetExceededError,
     "closure layer: 78 formulas x 4 valuations = 312 exceed the limit of 300"),
    (600, BudgetExceededError,
     "systematicity check: 64 profiles x 11 formulas = 704 exceed the limit of 600"),
    (1000, NotQualifyingError,
     "aggregator is not universal+rational: universal=True rational=False"),
])
def test_a_failing_extraction_refuses_before_it_reads_a_profile(budget, error, message, applied):
    """Majority at N=3 fails its preconditions; every budget refusal comes
    before the first profile is aggregated, in the order the docstring names."""
    aggregator = CriterionAggregator(majority_criterion(BOOLEAN.algebra, 3), BOOLEAN)
    with pytest.raises(error) as refused:
        criterion_from_aggregator(aggregator, budget=budget)
    assert str(refused.value) == message
    if error is BudgetExceededError:
        assert not applied


def peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("criterion", [
    majority_criterion, lambda algebra, n: projection_criterion(algebra, n, 0)])
def test_the_checks_stream_their_profiles(criterion):
    """Past their caches, the two checks hold one profile at a time, far less
    than the enumerated rational profiles."""
    aggregator = CriterionAggregator(criterion(BOOLEAN.algebra, 6), BOOLEAN)

    def checks():
        check_rational_universal(aggregator)
        check_systematicity(aggregator, STRONGLY_SYSTEMATIC)

    checks()  # warms the agenda's and the fragment's caches
    assert peak_bytes(checks) < peak_bytes(lambda: enumerate_rational_profiles(BOOLEAN, 6)) / 8
