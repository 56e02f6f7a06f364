"""The shared table search, and the census that runs on it, against brute force."""

import gc
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck import aggregation
from aggcheck.agenda import agenda_over
from aggcheck.aggregation import (
    STRONGLY_SYSTEMATIC,
    CriterionAggregator,
    DecisionCriterion,
    check_rational_universal,
    check_systematicity,
    projection_criterion,
    qualifying_criteria,
)
from aggcheck.algebra import (
    builtin_distributive_lattice,
    power_homomorphisms,
    product_element_index,
    search_tables,
)
from aggcheck.errors import BudgetExceededError
from aggcheck.semantics import Matrix
from aggcheck.syntax import parse_formula


@st.composite
def searches(draw):
    """A small search: a table of -1..size-1 entries stands for a partial one."""
    slots, size = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        args = tuple(draw(st.lists(st.integers(0, slots - 1), max_size=2)))
        table = tuple(draw(st.lists(st.integers(-1, size - 1),
                                    min_size=size ** len(args), max_size=size ** len(args))))
        constraints.append((table, args, draw(st.integers(0, slots - 1))))
    return slots, size, constraints


def meets(t, constraint, size):
    table, args, result = constraint
    index = 0
    for a in args:
        index = index * size + t[a]
    return t[result] == table[index]


@settings(max_examples=200, deadline=None)
@given(searches())
def test_search_equals_a_filter_of_every_table(search):
    slots, size, constraints = search
    brute = [
        t for t in product(range(size), repeat=slots)
        if all(meets(t, c, size) for c in constraints)
    ]
    unbounded = slots * size**slots * (1 + len(constraints))  # every node, every constraint
    assert search_tables(slots, size, constraints, unbounded) == brute


def full_charge(slots, size, constraints):
    """The work units of a whole search, from its definition: slot k is
    entered with each value after every prefix that meets all constraints
    whose last slot comes before k, and entering it charges 1 plus the
    constraints whose last slot is k."""
    last = [max((*args, result)) for _, args, result in constraints]
    units = 0
    for k in range(slots):
        earlier = [c for c, end in zip(constraints, last) if end < k]
        cost = 1 + last.count(k)
        for prefix in product(range(size), repeat=k):
            if all(meets(prefix, c, size) for c in earlier):
                units += size * cost
    return units


@settings(max_examples=200, deadline=None)
@given(searches())
def test_budget_is_the_work_a_full_search_charges(search):
    slots, size, constraints = search
    work = full_charge(slots, size, constraints)
    search_tables(slots, size, constraints, work)
    with pytest.raises(BudgetExceededError,
                       match=f"^table search charged {work} work units, over budget {work - 1}$"):
        search_tables(slots, size, constraints, work - 1)


@settings(max_examples=200, deadline=None)
@given(searches())
def test_runs_of_constraints_on_one_args_object_change_nothing(search):
    """Constraints sharing one args object, in runs: the same tables and charge."""
    slots, size, constraints = search
    canonical = {}
    shared = sorted(((table, canonical.setdefault(args, args), result)
                     for table, args, result in constraints), key=lambda c: c[1])
    work = full_charge(slots, size, constraints)
    assert search_tables(slots, size, shared, work) == search_tables(slots, size, constraints, work)
    with pytest.raises(BudgetExceededError, match=f"^table search charged {work} work units"):
        search_tables(slots, size, shared, work - 1)


def agenda(matrix, texts):
    return agenda_over([parse_formula(t, matrix.algebra.signature) for t in texts], matrix)


def definition_census(agenda, n, depth):
    """Every criterion whose induced aggregator is universal, rational and
    strongly systematic at ``depth``, checked one table at a time."""
    size = agenda.algebra.size
    found = []
    for values in product(range(size), repeat=size**n):
        aggregator = CriterionAggregator(DecisionCriterion(agenda.algebra, n, values), agenda)
        if (check_rational_universal(aggregator).both and check_systematicity(
                aggregator, STRONGLY_SYSTEMATIC, depth).holds):
            found.append(values)
    return found


BOOLEAN = ["x1", "x2", "(or x1 x2)", "(not x1)"]
OR = ["x1", "x2", "(or x1 x2)"]
MV = ["x1", "x2", "(oplus x1 x2)"]
CASES = [("classical", BOOLEAN, n, depth) for n in (1, 2, 3) for depth in (1, 2)]
CASES += [("classical", OR, n, 1) for n in (1, 2)]
CASES += [(logic, MV, 1, depth) for logic in ("luk3_filter", "luk3_degree") for depth in (1, 2)]


@pytest.mark.parametrize("logic,texts,n,depth", CASES)
def test_census_equals_the_definition(logic, texts, n, depth, request):
    a = agenda(request.getfixturevalue(logic), texts)
    census = [c.values for c in qualifying_criteria(a, n, depth)]
    assert census == definition_census(a, n, depth)


def test_census_never_consults_the_homomorphism_equation(monkeypatch, bool_agenda):
    def forbidden(*args, **kwargs):
        raise AssertionError("the census used the homomorphism route")

    for name in ("is_homomorphism", "product_algebra", "shared_power",
                 "enumerate_homomorphisms"):
        monkeypatch.setattr(aggregation, name, forbidden, raising=False)
    connective_tables = [id(t) for t in bool_agenda.algebra.tables.values()]
    seen = []

    def spy(slots, size, constraints, budget, stage):
        constraints = list(constraints)
        seen.extend(id(table) for table, _, _ in constraints)
        return search_tables(slots, size, constraints, budget, stage)

    monkeypatch.setattr(aggregation, "search_tables", spy)
    census = [c.values for c in qualifying_criteria(bool_agenda, 2, depth=2)]
    assert census == [projection_criterion(bool_agenda.algebra, 2, v).values for v in (0, 1)]
    assert seen and not set(seen) & set(connective_tables)


def test_census_leaves_the_garbage_collector_as_it_found_it(bool_agenda):
    assert gc.isenabled()
    qualifying_criteria(bool_agenda, 2)
    assert gc.isenabled()
    gc.disable()
    try:
        qualifying_criteria(bool_agenda, 2)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_census_of_a_24_formula_agenda(classical):
    leaves = ["x1", "x2", "(not x1)", "(not x2)"]
    pairs = [f"({c} {a} {b})" for c in ("or", "and") for a, b in permutations(leaves, 2)]
    a = agenda(classical, (leaves + pairs)[:24])
    assert len(a.formulas) == 24
    census = [c.values for c in qualifying_criteria(a, 2)]
    assert census == [projection_criterion(classical.algebra, 2, v).values for v in (0, 1)]


def test_census_keeps_the_profile_budget(bool_agenda):
    with pytest.raises(BudgetExceededError, match="profile x fragment"):
        qualifying_criteria(bool_agenda, 3, budget=2**9)


@pytest.mark.parametrize("n, budget, message", [
    (1, 2**8, "closure layer of 78 formulas x 4 valuations exceeds budget 256"),
    (3, 2**9, "profile x fragment space exceeds budget: census of 64 profiles x 11 vectors "
              "= 704 constraints, over the limit of 512"),
    (10, 10**8, "profile x fragment space exceeds budget: census of 1048576 profiles x 11 "
                "vectors = 11534336 constraints, over the limit of 2000000"),
    (2, 400, "census table search charged 473 work units, over budget 400"),
])
def test_census_refusals_name_the_stage_the_count_and_the_limit(bool_agenda, n, budget, message):
    with pytest.raises(BudgetExceededError) as refused:
        qualifying_criteria(bool_agenda, n, budget=budget)
    assert str(refused.value) == message


def test_census_refuses_before_the_rank_table_is_built(bool_agenda, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the rank table was built before the refusal")

    monkeypatch.setattr(aggregation, "_voter_ranks", forbidden)
    for n, budget, message in [
        (10, 10**8, "census of 1048576 profiles x 11 vectors = 11534336 constraints, "
                    "over the limit of 2000000"),
        (3, 2**9, "census of 64 profiles x 11 vectors = 704 constraints, over the limit of 512"),
    ]:
        with pytest.raises(BudgetExceededError) as refused:
            qualifying_criteria(bool_agenda, n, budget=budget)
        assert str(refused.value) == f"profile x fragment space exceeds budget: {message}"


def reference_census_constraints(agenda, electorate, depth, budget):
    """The census constraints built one rational profile at a time, ranking
    each voters' tuple on its own, with slots numbered by first appearance."""
    size = agenda.algebra.size
    rational = aggregation._rational_table(agenda)
    vectors = tuple(dict.fromkeys(aggregation._fragment_and_vectors(agenda, depth, budget)[1]))
    tables = [{product_element_index(size, values): vec[w] for values, w in rational}
              for vec in vectors]
    slot = {}
    constraints = []
    for combo in product(rational, repeat=electorate):
        ws = [w for _, w in combo]
        args = tuple(slot.setdefault(product_element_index(size, col), len(slot))
                     for col in zip(*(v for v, _ in combo)))
        for vec, table in zip(vectors, tables):
            result = product_element_index(size, [vec[w] for w in ws])
            constraints.append((table, args, slot.setdefault(result, len(slot))))
    for voters in range(size**electorate):
        slot.setdefault(voters, len(slot))
    return constraints, [slot[voters] for voters in range(size**electorate)]


def diamond_matrix():
    lattice = builtin_distributive_lattice(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    return Matrix(lattice, frozenset({3}), "filter")


TABLE_CASES = [("classical", BOOLEAN, n, depth) for n in (1, 2, 3, 4) for depth in (1, 2)]
TABLE_CASES += [("classical", ["(not x1)", "(or x1 x2)", "x2"], n, 1) for n in (1, 2)]
TABLE_CASES += [(logic, MV, n, 1) for logic in ("luk3_filter", "luk3_degree") for n in (1, 2, 3)]
TABLE_CASES += [("diamond", ["x1", "x2", "(or x1 x2)"], n, 1) for n in (1, 2)]


@pytest.mark.parametrize("logic,texts,n,depth", TABLE_CASES)
def test_census_constraints_equal_the_per_profile_reference(logic, texts, n, depth, request):
    matrix = diamond_matrix() if logic == "diamond" else request.getfixturevalue(logic)
    a = agenda(matrix, texts)
    constraints, slots = aggregation._census_constraints(a, n, depth, 10**8)
    assert (constraints, slots) == reference_census_constraints(a, n, depth, 10**8)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_census_equals_the_homomorphisms(bool_agenda, n):
    census = [c.values for c in qualifying_criteria(bool_agenda, n)]
    assert census == [h.mapping for h in power_homomorphisms(bool_agenda.algebra, n)]
