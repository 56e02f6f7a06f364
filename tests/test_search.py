"""The shared table search, and the census that runs on it, against brute force."""

import ast
import gc
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from aggcheck import algebra as algebra_module
from aggcheck import census as census_module
from aggcheck.agenda import agenda_over
from aggcheck.aggregation import (
    STRONGLY_SYSTEMATIC,
    CriterionAggregator,
    DecisionCriterion,
    check_rational_universal,
    check_systematicity,
    projection_criterion,
)
from aggcheck.algebra import (
    DEFAULT_BUDGET,
    element_coordinates,
    enumerate_homomorphisms,
    power_homomorphisms,
    product_element_index,
    search_tables,
    shared_power,
)
from aggcheck.census import qualifying_criteria
from aggcheck.errors import BudgetExceededError
from aggcheck.semantics import Matrix
from aggcheck.syntax import parse_formula, print_formula
from builders import builtin_distributive_lattice


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


@st.composite
def symmetric_searches(draw):
    """A small search whose constraints are closed under one or two slot
    permutations: with ``(table, args, result)`` comes ``(table, perm[args], perm[result])``,
    so with every solution t, t∘perm is one."""
    slots, size, constraints = draw(searches())
    perms = draw(st.lists(st.permutations(range(slots)), min_size=1, max_size=2))
    closed, pending = set(), [(tuple(table), args, result) for table, args, result in constraints]
    while pending:
        constraint = pending.pop()
        if constraint not in closed:
            closed.add(constraint)
            table, args, result = constraint
            pending += [(table, tuple(perm[a] for a in args), perm[result]) for perm in perms]
    return slots, size, sorted(closed), perms


@settings(max_examples=200, deadline=None)
@given(symmetric_searches())
def test_symmetric_search_equals_the_plain_search_and_a_filter(search):
    slots, size, constraints, perms = search
    brute = [
        t for t in product(range(size), repeat=slots)
        if all(meets(t, c, size) for c in constraints)
    ]
    unbounded = slots * size**slots * (1 + len(constraints))
    assert search_tables(slots, size, constraints, unbounded, symmetries=perms) == brute
    assert search_tables(slots, size, constraints, unbounded) == brute


def greater_than_an_image(prefix, perms):
    """The assigned ``prefix`` already makes t greater than t∘perm for some
    permutation: at the first slot where they differ, with both that slot and
    its image assigned."""
    for perm in perms:
        for p, q in enumerate(perm):
            if max(p, q) >= len(prefix):
                break
            if prefix[p] != prefix[q]:
                if prefix[p] > prefix[q]:
                    return True
                break
    return False


def full_charge(slots, size, constraints, perms=()):
    """The work units of a whole search, from its definition: slot k is
    entered with each value after every prefix that meets all constraints
    whose last slot comes before k (and is greater than none of its images
    under ``perms``), and entering it charges 1 plus the constraints whose
    last slot is k."""
    last = [max((*args, result)) for _, args, result in constraints]
    units = 0
    for k in range(slots):
        earlier = [c for c, end in zip(constraints, last) if end < k]
        cost = 1 + last.count(k)
        for prefix in product(range(size), repeat=k):
            if (all(meets(prefix, c, size) for c in earlier)
                    and not greater_than_an_image(prefix, perms)):
                units += size * cost
    return units


@settings(max_examples=200, deadline=None)
@given(searches())
def test_budget_is_the_work_a_full_search_charges(search):
    slots, size, constraints = search
    work = full_charge(slots, size, constraints)
    search_tables(slots, size, constraints, work)
    with pytest.raises(BudgetExceededError,
                       match=f"^table search: {work} work units exceed the limit of {work - 1}$"):
        search_tables(slots, size, constraints, work - 1)


@settings(max_examples=200, deadline=None)
@given(symmetric_searches())
def test_budget_of_a_symmetric_search_charges_its_pruned_nodes(search):
    """A node pruned as greater than its image is entered and charged, and goes no deeper."""
    slots, size, constraints, perms = search
    work = full_charge(slots, size, constraints, perms)
    search_tables(slots, size, constraints, work, symmetries=perms)
    with pytest.raises(BudgetExceededError,
                       match=f"^table search: {work} work units exceed the limit of {work - 1}$"):
        search_tables(slots, size, constraints, work - 1, symmetries=perms)


ADJACENT_SWAPS = [[1, 0, 2], [0, 2, 1]]  # of three slots


@pytest.mark.parametrize("limit, symmetries, refusal", [
    (23, [], "8 tables x 3 entries = 24 exceed the limit of 23"),
    (11, ADJACENT_SWAPS, "4 tables x 3 entries = 12 exceed the limit of 11"),  # the lex-leaders
    (20, ADJACENT_SWAPS, "7 tables x 3 entries = 21 exceed the limit of 20"),  # their closure
])
def test_the_tables_kept_are_refused_past_the_constraint_cap(
    limit, symmetries, refusal, monkeypatch
):
    # every table of three binary slots solves no constraints; the lex-leaders
    # under the swaps are the 4 sorted ones, and the closure brings back all 8
    everything = list(product(range(2), repeat=3))
    monkeypatch.setattr(algebra_module, "MAX_CONSTRAINTS", 24)
    assert search_tables(3, 2, [], 10**8, stage="s", symmetries=symmetries) == everything
    monkeypatch.setattr(algebra_module, "MAX_CONSTRAINTS", limit)
    with pytest.raises(BudgetExceededError, match=f"^s: {refusal}$"):
        search_tables(3, 2, [], 10**8, stage="s", symmetries=symmetries)


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
    with pytest.raises(BudgetExceededError, match=f"^table search: {work} work units exceed"):
        search_tables(slots, size, shared, work - 1)


@st.composite
def interrupted_runs(draw):
    """A search, plain or closed under permutations, whose constraints use one
    args object A apart (A, B, A) and then an equal tuple built separately.
    The extra constraints repeat drawn ones, so the solutions stay the same."""
    if draw(st.booleans()):
        slots, size, constraints, perms = draw(symmetric_searches())
    else:
        (slots, size, constraints), perms = draw(searches()), []
    assume(constraints)
    first, other = draw(st.sampled_from(constraints)), draw(st.sampled_from(constraints))
    table, args, result = first
    shared = [(t, args if a == args else a, r) for t, a, r in constraints]
    return slots, size, shared + [first, other, first, (table, tuple(list(args)), result)], perms


@settings(max_examples=200, deadline=None)
@given(interrupted_runs())
@example((2, 2, [((1,), (), 0), ((0, 1), (0,), 1), ((1,), (), 0), ((1,), (), 0)], []))
def test_interrupted_runs_and_equal_args_objects_change_nothing(search):
    """A run on one args object broken by another, and equal args that are
    separate objects: the tables of a filter and the charge of a full search."""
    slots, size, constraints, perms = search
    brute = [
        t for t in product(range(size), repeat=slots)
        if all(meets(t, c, size) for c in constraints)
    ]
    for symmetries in ([], perms) if perms else ([],):
        work = full_charge(slots, size, constraints, symmetries)
        assert search_tables(slots, size, constraints, work, symmetries=symmetries) == brute
        with pytest.raises(BudgetExceededError, match=f"^table search: {work} work units "
                                                      f"exceed the limit of {work - 1}$"):
            search_tables(slots, size, constraints, work - 1, symmetries=symmetries)


@pytest.mark.parametrize("n, work", [(7, 42_112), (8, 166_144)])
def test_power_homomorphism_search_charges_its_pinned_work(boolean2, n, work):
    projections = sorted(tuple(element_coordinates(2, n, r)[i] for r in range(2**n))
                         for i in range(n))
    assert [h.mapping for h in power_homomorphisms(boolean2, n, budget=work)] == projections
    with pytest.raises(BudgetExceededError) as refused:
        power_homomorphisms(boolean2, n, budget=work - 1)
    assert str(refused.value) == (
        f"homomorphism search: {work} work units exceed the limit of {work - 1}")


def test_census_search_charges_its_pinned_work(bool_agenda):
    work = 11_286
    census = [c.values for c in qualifying_criteria(bool_agenda, 4, budget=work)]
    assert census == [projection_criterion(bool_agenda.algebra, 4, v).values for v in range(4)]
    with pytest.raises(BudgetExceededError) as refused:
        qualifying_criteria(bool_agenda, 4, budget=work - 1)
    assert str(refused.value) == (
        f"census table search: {work} work units exceed the limit of {work - 1}")


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
        monkeypatch.setattr(census_module, name, forbidden, raising=False)
    connective_tables = [id(t) for t in bool_agenda.algebra.tables.values()]
    seen = []

    def spy(slots, size, constraints, budget, stage, symmetries=()):
        constraints = list(constraints)
        seen.extend(id(table) for table, _, _ in constraints)
        return search_tables(slots, size, constraints, budget, stage, symmetries=symmetries)

    monkeypatch.setattr(census_module, "search_tables", spy)
    census = [c.values for c in qualifying_criteria(bool_agenda, 2, depth=2)]
    assert census == [projection_criterion(bool_agenda.algebra, 2, v).values for v in (0, 1)]
    assert seen and not set(seen) & set(connective_tables)


def test_census_imports_nothing_of_the_homomorphism_route():
    tree = ast.parse(Path(census_module.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not imported & {"is_homomorphism", "product_algebra", "shared_power",
                           "enumerate_homomorphisms", "_coordinate_swaps"}
    assert "aggregation" not in modules


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


def spy_on_the_homomorphism_search(monkeypatch):
    """Each later homomorphism search's (collector enabled, constraints handed), in a list."""
    calls = []

    def spy(slots, size, constraints, budget, stage, symmetries=()):
        constraints = list(constraints)
        calls.append((gc.isenabled(), len(constraints)))
        return search_tables(slots, size, constraints, budget, stage, symmetries=symmetries)

    monkeypatch.setattr(algebra_module, "search_tables", spy)
    return calls


def test_homomorphism_search_leaves_the_garbage_collector_as_it_found_it(boolean2, monkeypatch):
    calls = spy_on_the_homomorphism_search(monkeypatch)
    assert gc.isenabled()
    power_homomorphisms(boolean2, 2)
    assert gc.isenabled()
    with pytest.raises(BudgetExceededError):
        power_homomorphisms(boolean2, 2, budget=0)
    assert gc.isenabled()
    gc.disable()
    try:
        power_homomorphisms(boolean2, 2)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert [collecting for collecting, _ in calls] == [False] * 3  # paused while searching


@pytest.mark.parametrize("logic, n", [("boolean2", n) for n in (1, 2, 3, 4)]
                         + [(logic, n) for logic in ("luk3", "diamond") for n in (1, 2, 3)])
def test_the_equation_cap_counts_the_equations_the_search_is_handed(logic, n, monkeypatch,
                                                                     request):
    algebra = diamond_matrix().algebra if logic == "diamond" else request.getfixturevalue(logic)
    calls = spy_on_the_homomorphism_search(monkeypatch)
    power_homomorphisms(algebra, n)
    monkeypatch.setattr(algebra_module, "MAX_CONSTRAINTS", 0)  # the cap's count, in its refusal
    with pytest.raises(BudgetExceededError) as refused:
        power_homomorphisms(algebra, n)
    [(_, handed)] = calls
    assert str(refused.value) == (f"homomorphism search of {algebra.name}^{n}: "
                                  f"{handed} equations exceed the limit of 0")


def test_census_of_a_24_formula_agenda(classical):
    leaves = ["x1", "x2", "(not x1)", "(not x2)"]
    pairs = [f"({c} {a} {b})" for c in ("or", "and") for a, b in permutations(leaves, 2)]
    a = agenda(classical, (leaves + pairs)[:24])
    assert len(a.formulas) == 24
    census = [c.values for c in qualifying_criteria(a, 2)]
    assert census == [projection_criterion(classical.algebra, 2, v).values for v in (0, 1)]


def test_census_fragment_holds_the_shortest_formula_of_each_vector(bool_agenda):
    fragment, _, _ = census_module._fragment_and_vectors(bool_agenda, 1, DEFAULT_BUDGET)
    assert [print_formula(f) for f in fragment] == [
        "(and (not x1) x2)", "(and x1 x2)", "(not (or x1 x2))", "(not x1)", "(not x2)",
        "(or (not x1) x2)", "(or x1 x2)", "bot", "top", "x1", "x2"]


def test_census_fragment_stops_growing_at_its_fixpoint(bool_agenda):
    at_three = census_module._fragment_and_vectors(bool_agenda, 3, DEFAULT_BUDGET)
    at_twelve = census_module._fragment_and_vectors(bool_agenda, 12, DEFAULT_BUDGET)
    assert at_twelve == at_three
    assert len(at_twelve[0]) == 16
    assert max(len(print_formula(f)) for f in at_twelve[0]) <= 34


def test_census_keeps_the_profile_budget(bool_agenda):
    with pytest.raises(BudgetExceededError, match="^census constraints: "):
        qualifying_criteria(bool_agenda, 3, budget=2**9)


@pytest.mark.parametrize("n, budget, message", [
    (1, 2**8, "closure layer: 78 formulas x 4 valuations = 312 exceed the limit of 256"),
    (3, 2**9, "census constraints: 64 profiles x 11 vectors = 704 exceed the limit of 512"),
    (10, 10**8, "census constraints: 1048576 profiles x 11 vectors = 11534336 "
                "exceed the limit of 2000000"),
    (2, 400, "census table search: 473 work units exceed the limit of 400"),
])
def test_census_refusals_name_the_stage_the_count_and_the_limit(bool_agenda, n, budget, message):
    with pytest.raises(BudgetExceededError) as refused:
        qualifying_criteria(bool_agenda, n, budget=budget)
    assert str(refused.value) == message


def test_census_refuses_before_the_rank_table_is_built(bool_agenda, monkeypatch):
    def forbidden(*args):
        raise AssertionError("the rank table was built before the refusal")

    monkeypatch.setattr(census_module, "_voter_ranks", forbidden)
    for n, budget, message in [
        (10, 10**8, "1048576 profiles x 11 vectors = 11534336 exceed the limit of 2000000"),
        (3, 2**9, "64 profiles x 11 vectors = 704 exceed the limit of 512"),
    ]:
        with pytest.raises(BudgetExceededError) as refused:
            qualifying_criteria(bool_agenda, n, budget=budget)
        assert str(refused.value) == f"census constraints: {message}"


def reference_census_constraints(agenda, electorate, depth, budget):
    """The census constraints built one rational profile at a time, ranking
    each voters' tuple on its own, with slots numbered by first appearance."""
    size = agenda.algebra.size
    rational = census_module._rational_table(agenda)
    vectors = tuple(dict.fromkeys(census_module._fragment_and_vectors(agenda, depth, budget)[1]))
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
    return Matrix(lattice, frozenset({3}))


TABLE_CASES = [("classical", BOOLEAN, n, depth) for n in (1, 2, 3, 4) for depth in (1, 2)]
TABLE_CASES += [("classical", ["(not x1)", "(or x1 x2)", "x2"], n, 1) for n in (1, 2)]
TABLE_CASES += [(logic, MV, n, 1) for logic in ("luk3_filter", "luk3_degree") for n in (1, 2, 3)]
TABLE_CASES += [("diamond", ["x1", "x2", "(or x1 x2)"], n, 1) for n in (1, 2)]


@pytest.mark.parametrize("logic,texts,n,depth", TABLE_CASES)
def test_census_constraints_equal_the_per_profile_reference(logic, texts, n, depth, request):
    matrix = diamond_matrix() if logic == "diamond" else request.getfixturevalue(logic)
    a = agenda(matrix, texts)
    constraints, slots = census_module._census_constraints(a, n, depth, 10**8)
    assert (constraints, slots) == reference_census_constraints(a, n, depth, 10**8)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_census_equals_the_homomorphisms(bool_agenda, n):
    census = [c.values for c in qualifying_criteria(bool_agenda, n)]
    assert census == [h.mapping for h in power_homomorphisms(bool_agenda.algebra, n)]


GOLDEN_INPUTS = [("classical", BOOLEAN), ("classical", OR), ("luk3_filter", MV),
                 ("luk3_degree", MV), ("diamond", ["x1", "x2", "(or x1 x2)"])]
# past this many work units a census search counts as refused; the plain search
# enters every node the symmetric one does, so it must refuse too
CENSUS_WORK = 10**7


@pytest.mark.parametrize("logic,texts", GOLDEN_INPUTS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_finds_the_same_tables_with_and_without_voter_swaps(logic, texts, n, request):
    matrix = diamond_matrix() if logic == "diamond" else request.getfixturevalue(logic)
    a, size = agenda(matrix, texts), matrix.algebra.size
    try:
        constraints, slot_of = census_module._census_constraints(a, n, 1, 10**8)
    except BudgetExceededError:
        return  # refused before either search, so both refuse alike
    swaps = census_module._voter_swaps(size, n, slot_of)
    assert len(swaps) == n - 1
    try:
        symmetric = search_tables(len(slot_of), size, constraints, CENSUS_WORK, symmetries=swaps)
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            search_tables(len(slot_of), size, constraints, CENSUS_WORK)
        return
    assert symmetric == search_tables(len(slot_of), size, constraints, 10**8)


# past this many work units a homomorphism search counts as refused (the diamond's
# fifth power, whose symmetric search takes seconds); the plain search enters every
# node the symmetric one does, so it must refuse too
HOMS_WORK = 5 * 10**6


@pytest.mark.parametrize("logic", ["classical", "luk3_filter", "diamond"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_homomorphisms_are_the_same_with_and_without_coordinate_swaps(logic, n, request):
    matrix = diamond_matrix() if logic == "diamond" else request.getfixturevalue(logic)
    algebra = matrix.algebra
    try:
        symmetric = [h.mapping for h in power_homomorphisms(algebra, n, budget=HOMS_WORK)]
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            enumerate_homomorphisms(shared_power(algebra, n), algebra, budget=HOMS_WORK)
        return
    plain = [h.mapping for h in enumerate_homomorphisms(shared_power(algebra, n), algebra)]
    assert symmetric == plain
