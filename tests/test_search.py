"""The shared table search, and the census that runs on it, against brute force."""

import ast
import gc
import tracemalloc
from itertools import combinations_with_replacement, permutations, product
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
    FiniteAlgebra,
    element_coordinates,
    enumerate_homomorphisms,
    evaluate,
    power_homomorphisms,
    product_element_index,
    search_tables,
    shared_power,
    truth_vectors,
)
from aggcheck.census import qualifying_criteria
from aggcheck.errors import BudgetExceededError
from aggcheck.fileio import load_matrix
from aggcheck.oracles import all_valuations
from aggcheck.semantics import Matrix
from aggcheck.syntax import App, Signature, Var, parse_formula, print_formula
from builders import builtin_distributive_lattice, goedel3, sugihara3
from test_algebra import every_homomorphism


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


def test_the_search_keeps_at_most_32_bytes_per_constraint():
    """A stream of 120,000 constraints, in runs of 20,000 on one args object each,
    measured with tracemalloc while the search holds them: it keeps each one in
    about three list entries (24 bytes), not as a tuple of its own (about 72)."""
    conjunction = (0, 0, 0, 1)  # t[4] is the conjunction of every pair of slots 0..3
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    count = 20_000 * len(pairs)
    stream = ((conjunction, args, 4) for args in pairs for _ in range(20_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = search_tables(5, 2, stream, DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [(0, 0, 0, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0),
                     (1, 0, 0, 0, 0), (1, 1, 1, 1, 1)]
    assert (peak - before) / count <= 32


def test_the_census_keeps_at_most_its_stated_bytes_per_constraint(bool_agenda):
    """The census at boolean2 N=8 on the README agenda, its rank table built
    afresh, measured with tracemalloc: its peak over its 65,536 profiles x 11
    vectors is within the bytes per constraint its byte cap charges."""
    _, extensions = census_module._fragment_and_extensions(bool_agenda, 1, DEFAULT_BUDGET)
    constraints = len(bool_agenda.rational) ** 8 * len(set(zip(*extensions)))
    census_module._voter_ranks.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        found = qualifying_criteria(bool_agenda, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        census_module._voter_ranks.cache_clear()
    assert len(found) == 8 and constraints == 720_896
    assert (peak - before) / constraints <= census_module.BYTES_PER_CONSTRAINT


def test_the_rank_table_holds_one_int_object_per_rank():
    """mv3 at N=6 on the agenda x1: 729 profiles, ranks up to 728, and each
    rank one int object however many entries hold it."""
    agenda = agenda_over([Var("x1")], load_matrix("mv3"))
    _, extensions = census_module._fragment_and_extensions(agenda, 1, DEFAULT_BUDGET)
    ranks = census_module._voter_ranks(3, 6, extensions)
    entries = [rank for column in ranks.columns for rank in column]
    assert len(entries) > 3**6 == len(ranks.columns[0]) and max(entries) == 728
    assert len(set(map(id, entries))) <= 3**6


@pytest.mark.parametrize("n, work", [(7, 3_576), (8, 7_966)])
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


# the homomorphism route, as defined in ``algebra``: the census may call none of it
HOMOMORPHISM_ROUTE = ("is_homomorphism", "product_algebra", "shared_power",
                      "enumerate_homomorphisms", "power_homomorphisms",
                      "refuse_power_past_the_caps", "_coordinate_swaps", "_identities",
                      "_last_coordinate_split", "_handed_equations", "_rows_handing_some")


def test_census_never_consults_the_homomorphism_equation(monkeypatch, bool_agenda, mv_agenda):
    def forbidden(*args, **kwargs):
        raise AssertionError("the census used the homomorphism route")

    for module in (algebra_module, census_module):
        for name in HOMOMORPHISM_ROUTE:
            monkeypatch.setattr(module, name, forbidden, raising=module is algebra_module)
    monkeypatch.setattr(DecisionCriterion, "homomorphism_violation", forbidden)
    monkeypatch.setattr(algebra_module.AlgebraHomomorphism, "__post_init__", forbidden)
    seen = []

    def spy(slots, size, constraints, budget, stage, symmetries=()):
        constraints = list(constraints)
        seen.extend(id(table) for table, _, _ in constraints)
        return search_tables(slots, size, constraints, budget, stage, symmetries=symmetries)

    monkeypatch.setattr(census_module, "search_tables", spy)
    for agenda in (bool_agenda, mv_agenda):
        seen.clear()
        connective_tables = [id(t) for t in agenda.algebra.tables.values()]
        census = [c.values for c in qualifying_criteria(agenda, 2, depth=2)]
        assert census == [projection_criterion(agenda.algebra, 2, v).values for v in (0, 1)]
        assert seen and not set(seen) & set(connective_tables)


def test_census_imports_nothing_of_the_homomorphism_route():
    tree = ast.parse(Path(census_module.__file__).read_text())
    nodes = list(ast.walk(tree))
    imports = [node for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {alias.name for node in imports for alias in node.names}
    named = {node.id for node in nodes if isinstance(node, ast.Name)}
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    modules = {node.module for node in imports if isinstance(node, ast.ImportFrom)}
    route = {*HOMOMORPHISM_ROUTE, "homomorphism_violation", "AlgebraHomomorphism"}
    assert not (imported | named | attributes) & route
    assert "*" not in imported  # a star import would bring the route in unnamed
    # nor a module object to reach the route through
    assert not {name for name in imported if name.rpartition(".")[2] in ("algebra", "aggregation")}
    assert not {m for m in modules if m and m.rpartition(".")[2] == "aggregation"}


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


def pairs_by_definition(algebra):
    """Each connective f with arguments that is not an involution, mapped to (u, g): the
    first unary involution u and connective g in signature order with f(x̄) = u(g(u x̄)),
    checked at every argument tuple one at a time. Constants stay unpaired."""
    size, connectives = algebra.size, algebra.signature.connectives
    involutions = [u for u, arity in connectives if arity == 1
                   and all(algebra.op(u, [algebra.op(u, [x])]) == x for x in range(size))]

    def conjugate(u, g, xs):  # u(g(u x̄))
        return algebra.op(u, [algebra.op(g, [algebra.op(u, [x]) for x in xs])])

    pairs = {}
    for f, arity in connectives:
        for u in [] if f in involutions or not arity else involutions:
            tuples = list(product(range(size), repeat=arity))
            g = next((g for g, a in connectives if a == arity
                      and all(algebra.op(f, xs) == conjugate(u, g, xs) for xs in tuples)), None)
            if g is not None:
                pairs[f] = (u, g)
                break
    return pairs


def test_the_pairs_by_definition_are_the_de_morgan_dualities(boolean2, luk3):
    assert pairs_by_definition(boolean2) == {"or": ("not", "and"), "and": ("not", "or")}
    assert pairs_by_definition(luk3) == {"oplus": ("not", "odot"), "odot": ("not", "oplus")}
    assert pairs_by_definition(diamond_matrix().algebra) == {}


def definitions_by_definition(algebra):
    """Each binary connective f mapped to (u, g): the first unary u and binary g before f
    in signature order with f(x, y) = g(u x, y), checked at every x and y one at a time."""
    size, connectives = algebra.size, algebra.signature.connectives
    unary = [u for u, arity in connectives if arity == 1]
    definitions = {}
    for position, (f, arity) in enumerate(connectives):
        for u in unary if arity == 2 else []:
            g = next((g for g, a in connectives[:position] if a == 2 and all(
                algebra.op(f, [x, y]) == algebra.op(g, [algebra.op(u, [x]), y])
                for x, y in product(range(size), repeat=2))), None)
            if g is not None:
                definitions[f] = (u, g)
                break
    return definitions


def monoids_by_definition(algebra):
    """The binary connectives commutative and associative with unit 0, in signature
    order, each identity checked at every argument tuple one at a time."""
    elements = range(algebra.size)

    def is_monoid(f):
        def op(x, y):
            return algebra.op(f, [x, y])
        return (all(op(0, x) == x for x in elements)
                and all(op(x, y) == op(y, x) for x, y in product(elements, repeat=2))
                and all(op(op(x, y), z) == op(x, op(y, z))
                        for x, y, z in product(elements, repeat=3)))

    return [f for f, arity in algebra.signature.connectives if arity == 2 and is_monoid(f)]


def distributive_by_definition(algebra):
    """Each binary connective f commutative in the algebra that is neither a monoid nor
    a definition's f, mapped to the first monoid g that is no definition's f with
    f(x, g(y, z)) = g(f(x, y), f(x, z)), checked at every x, y and z one at a time."""
    elements, monoids = range(algebra.size), monoids_by_definition(algebra)
    defined = definitions_by_definition(algebra)

    def op(f, x, y):
        return algebra.op(f, [x, y])

    def distributes(f, g):
        return all(op(f, x, op(g, y, z)) == op(g, op(f, x, y), op(f, x, z))
                   for x, y, z in product(elements, repeat=3))

    laws = {}
    for f, arity in algebra.signature.connectives:
        if (arity == 2 and f not in monoids and f not in defined
                and all(op(f, x, y) == op(f, y, x) for x, y in product(elements, repeat=2))):
            g = next((g for g in monoids if g not in defined and distributes(f, g)), None)
            if g is not None:
                laws[f] = g
    return laws


class Equations:
    """The homomorphism equations of algebra^n -> algebra, one per argument tuple, or
    per a <= b for a binary connective commutative in the algebra, recomputed from the
    power's tables: each with its last slot (the largest of its arguments and result)
    and, where one of four rules leaves it out, the equations it follows from."""

    def __init__(self, algebra, n):
        self.algebra, self.power, self.size = algebra, shared_power(algebra, n), algebra.size**n
        self.pairs = pairs_by_definition(algebra)
        self.definitions = definitions_by_definition(algebra)
        self.monoids = monoids_by_definition(algebra)
        self.distributive = distributive_by_definition(algebra)
        elements = list(product(range(algebra.size), repeat=2))
        self.commutative = {
            symbol for symbol, arity in algebra.signature.connectives if arity == 2
            and all(algebra.op(symbol, [a, b]) == algebra.op(symbol, [b, a]) for a, b in elements)}
        self.coordinates = list(product(range(algebra.size), repeat=n))  # of each element
        self.rank = {coordinates: r for r, coordinates in enumerate(self.coordinates)}

    def rows(self, symbol, arity):
        if symbol in self.commutative:
            return combinations_with_replacement(range(self.size), 2)
        return product(range(self.size), repeat=arity)

    def index(self, args):
        index = 0
        for a in args:
            index = index * self.size + a
        return index

    def result(self, symbol, args):
        return self.power.tables[symbol][self.index(args)]

    def last(self, symbol, args):
        return max(*args, self.result(symbol, args)) if args else self.result(symbol, args)

    def handed_as(self, symbol, args):
        """The equation as it is handed: its arguments sorted if the connective commutes."""
        return symbol, tuple(sorted(args)) if symbol in self.commutative else tuple(args)

    def image(self, u, a):
        return self.result(u, (a,))

    def dual(self, symbol, args):
        """The dual of a De Morgan pair's f: g's equation at u x̄, as it is handed."""
        u, g = self.pairs[symbol]
        return self.handed_as(g, [self.image(u, a) for a in args])

    def split(self, b):
        """b's last nonzero coordinate alone, and b with that coordinate 0."""
        coordinates = self.coordinates[b]
        i = max(i for i, c in enumerate(coordinates) if c)
        alone = tuple(c if j == i else 0 for j, c in enumerate(coordinates))
        rest = tuple(0 if j == i else c for j, c in enumerate(coordinates))
        return self.rank[alone], self.rank[rest]

    def nonzero(self, a):
        return sum(map(bool, self.coordinates[a]))

    def supports(self, symbol, args):
        """None where the equation is handed; else the equations it follows from, by the
        first rule that leaves it out (De Morgan pair, definition, monoid, distributive
        pair), each as handed."""
        own = self.last(symbol, args)
        if symbol in self.pairs and self.last(*self.dual(symbol, args)) < own:
            u, _ = self.pairs[symbol]
            return [self.dual(symbol, args),
                    *((u, (y,)) for y in (*args, self.result(symbol, args)))]
        if symbol in self.definitions:
            (u, g), (x, y) = self.definitions[symbol], args
            if self.image(u, x) <= own:
                return [(u, (x,)), self.handed_as(g, (self.image(u, x), y))]
        if symbol in self.monoids and min(map(self.nonzero, args)) >= 2:
            (a, b), at = args, lambda *pair: self.result(symbol, pair)
            alone, rest = self.split(b)
            if at(rest, a) <= max(b, at(a, b)):
                return [self.handed_as(symbol, (rest, a)),
                        self.handed_as(symbol, (alone, at(rest, a))),
                        self.handed_as(symbol, (alone, rest))]
        if symbol in self.distributive and self.nonzero(args[1]) >= 2:
            # f(a, b) = f(a, g(e, v)) = g(f(a, e), f(a, v))
            (a, b), g = args, self.distributive[symbol]
            alone, rest = self.split(b)
            at_alone, at_rest = self.result(symbol, (a, alone)), self.result(symbol, (a, rest))
            if max(at_alone, at_rest) <= own:
                return [self.handed_as(g, (alone, rest)), self.handed_as(g, (at_alone, at_rest)),
                        self.handed_as(symbol, (a, alone)), self.handed_as(symbol, (a, rest))]
        return None

    def unpaired_count(self):
        size = self.size
        return sum(size * (size + 1) // 2 if symbol in self.commutative else size**arity
                   for symbol, arity in self.algebra.signature.connectives)

    def handed_count(self):
        """The equations no rule leaves out."""
        return sum(self.supports(symbol, args) is None
                   for symbol, arity in self.algebra.signature.connectives
                   for args in self.rows(symbol, arity))


@pytest.mark.parametrize("logic, n", [("boolean2", n) for n in (1, 2, 3, 4)]
                         + [(logic, n) for logic in ("luk3", "diamond") for n in (1, 2, 3)])
def test_the_equation_cap_counts_the_equations_the_search_is_handed(logic, n, monkeypatch,
                                                                     request):
    """The cap counts every equation before any rule leaves one out, an upper bound on
    those handed, in the same refusal text. The search is handed those no rule leaves
    out: boolean2's and the diamond's `or` is a monoid over which their `and`
    distributes, Ł3's `oplus` is a monoid too, its `impl` is defined by `oplus` and
    `not`, and boolean2 and Ł3 have De Morgan pairs."""
    algebra = diamond_matrix().algebra if logic == "diamond" else request.getfixturevalue(logic)
    equations = Equations(algebra, n)
    calls = spy_on_the_homomorphism_search(monkeypatch)
    power_homomorphisms(algebra, n)
    monkeypatch.setattr(algebra_module, "MAX_CONSTRAINTS", 0)  # the cap's count, in its refusal
    with pytest.raises(BudgetExceededError) as refused:
        power_homomorphisms(algebra, n)
    [(_, handed)] = calls
    assert str(refused.value) == (f"homomorphism search of {algebra.name}^{n}: "
                                  f"{equations.unpaired_count()} equations exceed the limit of 0")
    assert handed == equations.handed_count() <= equations.unpaired_count()
    if (logic, n) != ("diamond", 1):  # the diamond's only rule needs two coordinates
        assert handed < equations.unpaired_count()


def handed_to_the_search(algebra, n):
    """Per connective, a bytearray over its argument tuples' row-major indices in
    algebra^n, 1 where power_homomorphisms hands the search its equation there; the
    spy records each equation once and runs no search."""
    size = algebra.size**n
    symbol_of = {id(table): symbol for symbol, table in algebra.tables.items()}
    assert len(symbol_of) == len(algebra.tables)
    handed = {symbol: bytearray(size**arity) for symbol, arity in algebra.signature.connectives}

    def spy(slots, size_, constraints, budget, stage, symmetries=()):
        for table, args, _ in constraints:
            index = 0
            for a in args:
                index = index * size + a
            record = handed[symbol_of[id(table)]]
            assert not record[index]
            record[index] = 1
        return []

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra_module, "search_tables", spy)
        assert power_homomorphisms(algebra, n) == []
    return handed


# a 3-element chain whose pairs have two involutions: not pairs or with and, and s (which
# swaps 0 and 1) pairs Ł3's oplus with its conjugate splus = s∘oplus∘s; all four commute,
# so one mask holds the equations of both involutions
TWO_INVOLUTIONS = str(Path(__file__).with_name("two_involutions.json"))


def assert_left_out_by_the_rules(algebra, n):
    """Against the definitions, on every equation: an equation is left out exactly where
    a rule implies it; each equation it follows from is handed, or left out with a last
    slot no later than its own, so the search checks all it follows from by then; and
    the chains of left-out equations end in handed ones, with no cycle."""
    equations = Equations(algebra, n)
    handed = handed_to_the_search(algebra, n)
    follows_from = {}  # each left-out equation: the left-out equations it follows from
    for symbol, arity in algebra.signature.connectives:
        for args in equations.rows(symbol, arity):
            supports = equations.supports(symbol, args)
            assert handed[symbol][equations.index(args)] == (supports is None), (symbol, args)
            if supports is not None:
                own = equations.last(symbol, args)
                assert all(equations.last(*support) <= own for support in supports)
                follows_from[symbol, args] = [
                    (g, xs) for g, xs in supports if not handed[g][equations.index(xs)]]
    assert 0 < len(follows_from) == equations.unpaired_count() - sum(map(sum, handed.values()))
    done = set()  # no cycle: a depth-first walk never meets an equation on its own path
    for start in follows_from:
        path, stack = set(), [(start, iter(follows_from[start]))]
        path.add(start)
        while stack:
            equation, pending = stack[-1]
            after = next((e for e in pending if e not in done), None)
            if after is None:
                stack.pop()
                path.discard(equation)
                done.add(equation)
            else:
                assert after not in path, (equation, after)
                path.add(after)
                stack.append((after, iter(follows_from[after])))
    return equations


@pytest.mark.parametrize("logic, n", [("boolean2", n) for n in (1, 2, 3, 4)]
                         + [("mv3", n) for n in (1, 2, 3)] + [("mv4", n) for n in (1, 2)]
                         + [("mv17", 2), ("chain17", 2)]
                         + [pytest.param(TWO_INVOLUTIONS, n, id=f"two-involutions-{n}")
                            for n in (1, 2, 3)]
                         + [(logic, n) for logic in ("diamond", "g3", "rm3", "shuffled-chain")
                            for n in (2, 3)])
def test_an_equation_is_left_out_exactly_where_a_rule_implies_it(logic, n):
    """Ł17's and the 17-element chain's squares have 289 elements, past the byte lanes."""
    algebra = RULE_ALGEBRAS[logic]() if logic in RULE_ALGEBRAS else load_matrix(logic).algebra
    assert_left_out_by_the_rules(algebra, n)


# boolean2 with iff before and: not(iff(not x̄)) is or(x̄) at every argument tuple but the
# last, (1, 1), so or's dual is and, not iff
IFF_BOOLEAN = FiniteAlgebra(
    Signature((("not", 1), ("or", 2), ("iff", 2), ("and", 2))), ("0", "1"),
    (("not", (1, 0)), ("or", (0, 1, 1, 1)), ("iff", (1, 0, 0, 1)), ("and", (0, 0, 0, 1))))


# the 3-element chain with not, s (which swaps 0 and 1), max and min as or and and, and
# their conjugates h = s∘max∘s and k = s∘min∘s: s pairs h with or and k with and, and not
# pairs or with and, so the pairs chain, and a left-out equation's dual may be left out too
CHAINED_PAIRS = FiniteAlgebra(
    Signature((("not", 1), ("s", 1), ("or", 2), ("and", 2), ("h", 2), ("k", 2))), ("0", "1", "2"),
    (("not", (2, 1, 0)), ("s", (1, 0, 2)),
     ("or", (0, 1, 2, 1, 1, 2, 2, 2, 2)), ("and", (0, 0, 0, 0, 1, 1, 0, 1, 2)),
     ("h", (0, 0, 2, 0, 1, 2, 2, 2, 2)), ("k", (0, 1, 0, 1, 1, 1, 0, 1, 2))))


def test_chained_de_morgan_pairs_find_every_homomorphism_of_the_square():
    """Each left-out equation follows from equations with strictly earlier last slots,
    handed or not, so the search finds what a filter of all 3^9 maps finds."""
    equations = Equations(CHAINED_PAIRS, 2)
    handed = handed_to_the_search(CHAINED_PAIRS, 2)
    assert any(not handed[g][equations.index(dual)]
               for symbol in ("h", "k") for args in equations.rows(symbol, 2)
               if not handed[symbol][equations.index(args)]
               for g, dual in [equations.dual(symbol, args)])
    found = [h.mapping for h in power_homomorphisms(CHAINED_PAIRS, 2)]
    assert found == every_homomorphism(shared_power(CHAINED_PAIRS, 2), CHAINED_PAIRS)


@pytest.mark.parametrize("logic", ["boolean2", "mv3", "mv4", "diamond", "iff-boolean",
                                   "chained-pairs",
                                   pytest.param(TWO_INVOLUTIONS, id="two-involutions")])
def test_the_de_morgan_pairs_are_the_pairs_by_definition(logic):
    algebra = {"diamond": diamond_matrix().algebra, "iff-boolean": IFF_BOOLEAN,
               "chained-pairs": CHAINED_PAIRS}.get(logic)
    algebra = algebra or load_matrix(logic).algebra
    expected = tuple((u, f, g) for f, (u, g) in pairs_by_definition(algebra).items())
    for n in (1, 2):
        assert algebra_module._identities(algebra, n)[0] == expected
    if algebra is IFF_BOOLEAN:
        assert expected[0] == ("not", "or", "and")


# perfbench/test_perfbench.py::test_installer_patches_every_binding_site_and_restores
# counts the FiniteAlgebra.op calls of `enumerate-homs boolean2 --electorate 2` and needs one
def test_the_homomorphism_route_calls_op(boolean2, monkeypatch):
    """``_identities`` decides the identities through ``FiniteAlgebra.op``."""
    calls, op = [], FiniteAlgebra.op

    def counted(self, symbol, args):
        calls.append(symbol)
        return op(self, symbol, args)

    monkeypatch.setattr(FiniteAlgebra, "op", counted)
    power_homomorphisms(boolean2, 2)
    assert calls


# Z3 with neg x = -x, add and f(x, y) = add(neg x, y) = y - x: add is a commutative
# monoid with unit 0 that is not monotone, so both slot conditions fail somewhere
Z3 = FiniteAlgebra(
    Signature((("neg", 1), ("add", 2), ("f", 2))), ("0", "1", "2"),
    (("neg", (0, 2, 1)), ("add", tuple((x + y) % 3 for x in range(3) for y in range(3))),
     ("f", tuple((y - x) % 3 for x in range(3) for y in range(3)))), name="Z3")


def _shuffled_chain():
    """The chain 0 < h < 1 listed as 0, 1, h, with and, or and up(x, y) = x ∨ y ∨ h. Both
    and and up distribute over the monoid or, but the ranks do not follow the order,
    and up(x, 0) is not 0, so both of up's slot conditions fail somewhere."""
    rank = (0, 2, 1)  # of each element in the order

    def join(x, y):
        return x if rank[x] >= rank[y] else y

    def meet(x, y):
        return x if rank[x] <= rank[y] else y

    pairs = list(product(range(3), repeat=2))
    return FiniteAlgebra(
        Signature((("and", 2), ("or", 2), ("up", 2))), ("0", "1", "h"),
        (("and", tuple(meet(x, y) for x, y in pairs)), ("or", tuple(join(x, y) for x, y in pairs)),
         ("up", tuple(join(join(x, y), 2) for x, y in pairs))), name="shuffled-chain")


SHUFFLED_CHAIN = _shuffled_chain()

RULE_ALGEBRAS = {"diamond": lambda: diamond_matrix().algebra, "iff-boolean": lambda: IFF_BOOLEAN,
                 "chained-pairs": lambda: CHAINED_PAIRS, "z3": lambda: Z3, "g3": goedel3,
                 "rm3": sugihara3, "shuffled-chain": lambda: SHUFFLED_CHAIN,
                 "chain17": lambda: builtin_distributive_lattice(
                     [str(i) for i in range(17)], [(i, i + 1) for i in range(16)])}


@pytest.mark.parametrize("logic", ["boolean2", "mv3", "mv4", "diamond", "iff-boolean",
                                   "chained-pairs", "z3", "g3", "rm3",
                                   pytest.param(TWO_INVOLUTIONS, id="two-involutions")])
def test_the_definitions_and_monoids_are_those_by_definition(logic):
    algebra = RULE_ALGEBRAS[logic]() if logic in RULE_ALGEBRAS else load_matrix(logic).algebra
    expected = tuple((u, f, g) for f, (u, g) in definitions_by_definition(algebra).items())
    monoids = tuple(monoids_by_definition(algebra))
    assert algebra_module._identities(algebra, 2)[1:3] == (expected, monoids)
    assert algebra_module._identities(algebra, 1)[1:3] == (expected, ())  # no monoid at N = 1
    known = {"boolean2": ((), ("or",)), "mv3": ((("not", "impl", "oplus"),), ("oplus",)),
             "diamond": ((), ("or",)), "z3": ((("neg", "f", "add"),), ("add",)),
             "g3": ((), ("or",)), "rm3": ((), ("or",))}
    if logic in known:
        assert (expected, monoids) == known[logic]


@pytest.mark.parametrize("logic", ["boolean2", "mv3", "mv4", "diamond", "iff-boolean",
                                   "chained-pairs", "z3", "g3", "rm3", "shuffled-chain",
                                   pytest.param(TWO_INVOLUTIONS, id="two-involutions")])
def test_the_distributive_pairs_are_those_by_definition(logic):
    """G3's and RM3's `impl` distributes over `or` too, but it does not commute, so its
    equations are handed at a <= b and at b <= a and no pair lists it."""
    algebra = RULE_ALGEBRAS[logic]() if logic in RULE_ALGEBRAS else load_matrix(logic).algebra
    expected = tuple(distributive_by_definition(algebra).items())
    assert algebra_module._identities(algebra, 2)[3] == expected
    assert algebra_module._identities(algebra, 1)[3] == ()  # no monoid at N = 1
    known = {"boolean2": (("and", "or"),), "mv3": (), "diamond": (("and", "or"),), "z3": (),
             "g3": (("and", "or"),), "rm3": (("and", "or"),),
             "shuffled-chain": (("and", "or"), ("up", "or"))}
    if logic in known:
        assert expected == known[logic]
    if logic in ("g3", "rm3"):
        def impl(x, y):
            return algebra.op("impl", [x, y])

        def join(x, y):
            return algebra.op("or", [x, y])

        elements = range(algebra.size)
        assert all(impl(x, join(y, z)) == join(impl(x, y), impl(x, z))
                   for x, y, z in product(elements, repeat=3))


def test_the_slot_conditions_fail_on_z3():
    """At Z3's square, neg x comes after some equation of f's last slot, and f(v, a) after
    max(b, add(a, b)) at some a <= b with two nonzero coordinates each: both rules then
    hand the equation on, and the mask follows them."""
    equations = Equations(Z3, 2)
    late_images = [(x, y) for x, y in equations.rows("f", 2)
                   if equations.image("neg", x) > equations.last("f", (x, y))]
    def add(a, b):
        return equations.result("add", (a, b))

    late_rests = [(a, b) for a, b in equations.rows("add", 2)
                  if min(equations.nonzero(a), equations.nonzero(b)) >= 2
                  and add(equations.split(b)[1], a) > max(b, add(a, b))]
    assert late_images and late_rests


def test_the_distributive_slot_conditions_fail_on_the_shuffled_chain():
    """At the shuffled chain's square, up(a, e) comes after max(b, up(a, b)) at some
    a <= b, b with two nonzero coordinates, where up(a, v) does not, and up(a, v) at
    some where up(a, e) does not: the rule then hands the equation on, and the mask
    follows it."""
    equations = Equations(SHUFFLED_CHAIN, 2)
    late = set()
    for a, b in equations.rows("up", 2):
        if equations.nonzero(b) >= 2:
            points = equations.split(b)  # e, then v
            late.add(tuple(equations.result("up", (a, point)) > equations.last("up", (a, b))
                           for point in points))
    assert {(True, False), (False, True)} <= late


def test_z3_hands_the_search_what_the_rules_leave():
    for n in (1, 2):
        assert_left_out_by_the_rules(Z3, n)


def test_a_monoid_needs_the_source_to_be_a_power_of_the_target(boolean2):
    """A monoid's rule splits the source's elements into coordinates over the target."""
    with pytest.raises(ValueError, match="direct power of the target"):
        enumerate_homomorphisms(shared_power(boolean2, 2), shared_power(boolean2, 3),
                                identities=((), (), ("or",), ()))


class NodeCount:
    """A budget no search exceeds, which counts the nodes the search enters: it compares
    its work units with the budget (``units > budget``) once at every node it enters."""

    def __init__(self):
        self.nodes = 0

    def __lt__(self, units):
        self.nodes += 1
        return False


def search_with_and_without_the_rules(algebra, n):
    """``power_homomorphisms(algebra, n)``'s tables, nodes entered and equations handed,
    with every rule, and with the De Morgan pairs alone, through a spy on the search."""
    runs = []
    for rules in (True, False):
        calls = []

        def spy(slots, size, constraints, budget, stage, symmetries=()):
            constraints, count = list(constraints), NodeCount()
            found = search_tables(slots, size, constraints, count, stage, symmetries=symmetries)
            calls.append((count.nodes, len(constraints)))
            return found

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(algebra_module, "search_tables", spy)
            if not rules:
                identities = algebra_module._identities
                patch.setattr(algebra_module, "_identities",
                              lambda algebra, n: (identities(algebra, n)[0], (), (), ()))
            tables = [h.mapping for h in power_homomorphisms(algebra, n)]
        [(nodes, handed)] = calls
        runs.append((tables, nodes, handed))
    return runs


@pytest.mark.parametrize("logic, n", [("boolean2", n) for n in (1, 2, 3, 4, 5)]
                         + [(logic, n) for logic in ("mv3", "mv4", "diamond") for n in (1, 2, 3)]
                         + [("z3", n) for n in (1, 2)]
                         + [(logic, n) for logic in ("g3", "rm3") for n in (1, 2, 3)]
                         + [("shuffled-chain", n) for n in (2, 3)])
def test_the_rules_leave_the_nodes_entered_as_they_were(logic, n):
    """Handing fewer equations can only let the search enter more nodes, so the same
    count means the same nodes, and the same tables are found."""
    algebra = RULE_ALGEBRAS[logic]() if logic in RULE_ALGEBRAS else load_matrix(logic).algebra
    (tables, nodes, handed), (plain_tables, plain_nodes, plain_handed) = (
        search_with_and_without_the_rules(algebra, n))
    assert tables == plain_tables and 0 < nodes == plain_nodes
    # a monoid's and a distributive pair's rules need two nonzero coordinates, and these
    # algebras have no definition
    if (logic, n) in (("boolean2", 1), ("diamond", 1), ("g3", 1), ("rm3", 1)):
        assert handed == plain_handed
    else:
        assert handed < plain_handed


@pytest.mark.parametrize("n", [1, 2])
def test_z3_finds_every_homomorphism_of_its_powers(n):
    found = [h.mapping for h in power_homomorphisms(Z3, n)]
    assert found == every_homomorphism(shared_power(Z3, n), Z3)


def test_census_of_a_24_formula_agenda(classical):
    leaves = ["x1", "x2", "(not x1)", "(not x2)"]
    pairs = [f"({c} {a} {b})" for c in ("or", "and") for a, b in permutations(leaves, 2)]
    a = agenda(classical, (leaves + pairs)[:24])
    assert len(a.formulas) == 24
    census = [c.values for c in qualifying_criteria(a, 2)]
    assert census == [projection_criterion(classical.algebra, 2, v).values for v in (0, 1)]


def test_census_fragment_holds_the_shortest_formula_of_each_vector(bool_agenda):
    fragment, _ = census_module._fragment_and_extensions(bool_agenda, 1, DEFAULT_BUDGET)
    assert [print_formula(f) for f in fragment] == [
        "(and (not x1) x2)", "(and x1 x2)", "(not (or x1 x2))", "(not x1)", "(not x2)",
        "(or (not x1) x2)", "(or x1 x2)", "bot", "top", "x1", "x2"]


def test_census_fragment_stops_growing_at_its_fixpoint(bool_agenda):
    at_three = census_module._fragment_and_extensions(bool_agenda, 3, DEFAULT_BUDGET)
    at_twelve = census_module._fragment_and_extensions(bool_agenda, 12, DEFAULT_BUDGET)
    assert at_twelve == at_three
    assert len(at_twelve[0]) == 16
    assert max(len(print_formula(f)) for f in at_twelve[0]) <= 34


@st.composite
def terms(draw, signature, depth):
    """A formula of depth at most ``depth`` over x1, x2 and the constants."""
    leaves = [Var("x1"), Var("x2"), *(App(c, ()) for c in signature.constants)]
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(leaves))
    symbol, arity = draw(st.sampled_from([c for c in signature.connectives if c[1]]))
    return App(symbol, tuple(draw(terms(signature, depth - 1)) for _ in range(arity)))


@st.composite
def closure_agendas(draw):
    """1-3 distinct agenda formulas of depth at most 2 over x1 and x2 in
    boolean2, mv3, mv3-degree or the diamond, and a closure depth of 1-2."""
    logic = draw(st.sampled_from(["boolean2", "mv3", "mv3-degree", "diamond"]))
    matrix = diamond_matrix() if logic == "diamond" else load_matrix(logic)
    formulas = draw(st.lists(terms(matrix.algebra.signature, 2), min_size=1, max_size=3,
                             unique=True))
    return agenda_over(formulas, matrix), draw(st.integers(1, 2))


@settings(max_examples=60, deadline=None)
@given(closure_agendas())
def test_census_extensions_stand_for_the_fragment_vectors(case):
    agenda, depth = case
    fragment, extensions = census_module._fragment_and_extensions(agenda, depth, DEFAULT_BUDGET)
    # equal truth vectors exactly where the extension columns are equal
    vectors = truth_vectors(fragment, agenda.variables, agenda.algebra)
    columns = list(zip(*extensions))
    assert len(set(vectors)) == len(set(columns)) == len(set(zip(vectors, columns)))
    # each row: the fragment's values at its attitude's least witness, by brute force
    rows = {}
    for valuation in all_valuations(agenda.variables, agenda.algebra):
        attitude = tuple(evaluate(f, valuation, agenda.algebra) for f in agenda.formulas)
        if attitude not in rows:
            rows[attitude] = tuple(evaluate(f, valuation, agenda.algebra) for f in fragment)
    assert tuple(rows) == tuple(values for values, _ in agenda.rational)
    assert tuple(rows.values()) == extensions


def test_an_empty_fragment_keeps_the_one_rational_attitude():
    negation = Signature((("not", 1),))
    matrix = Matrix(FiniteAlgebra(negation, ("0", "1"), (("not", (1, 0)),)), frozenset({1}))
    empty = agenda_over([], matrix)
    assert empty.rational == (((), 0),)
    assert census_module._fragment_and_extensions(empty, 1, DEFAULT_BUDGET) == ((), ((),))
    aggregator = CriterionAggregator(projection_criterion(matrix.algebra, 2, 0), empty)
    assert check_rational_universal(aggregator).both  # the empty attitude stays rational
    assert check_systematicity(aggregator, STRONGLY_SYSTEMATIC).holds


def test_census_keeps_the_profile_budget(bool_agenda):
    with pytest.raises(BudgetExceededError, match="^census constraints: "):
        qualifying_criteria(bool_agenda, 3, budget=2**9)


@pytest.mark.parametrize("n, budget, message", [
    (1, 2**8, "closure layer: 78 formulas x 4 valuations = 312 exceed the limit of 256"),
    (3, 2**9, "census constraints: 64 profiles x 11 vectors = 704 exceed the limit of 512"),
    (10, 10**8, "census constraints: 1048576 profiles x 11 vectors x 50 bytes = 576716800 "
                "exceed the limit of 268435456"),
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
        (10, 10**8, "1048576 profiles x 11 vectors x 50 bytes = 576716800 "
                    "exceed the limit of 268435456"),
        (3, 2**9, "64 profiles x 11 vectors = 704 exceed the limit of 512"),
    ]:
        with pytest.raises(BudgetExceededError) as refused:
            qualifying_criteria(bool_agenda, n, budget=budget)
        assert str(refused.value) == f"census constraints: {message}"


def reference_census_constraints(agenda, electorate, depth, budget):
    """The census constraints built one rational profile at a time, ranking
    each voters' tuple on its own, with slots numbered by first appearance
    of each profile's voters' tuples, in fragment order."""
    size = agenda.algebra.size
    rational = agenda.rational
    fragment = census_module._fragment_and_extensions(agenda, depth, budget)[0]
    fragment_vectors = truth_vectors(fragment, agenda.variables, agenda.algebra)
    vectors = tuple(dict.fromkeys(fragment_vectors))
    tables = [{product_element_index(size, values): vec[w] for values, w in rational}
              for vec in vectors]
    slot = {}
    constraints = []
    for combo in product(rational, repeat=electorate):
        ws = [w for _, w in combo]
        for vec in fragment_vectors:
            slot.setdefault(product_element_index(size, [vec[w] for w in ws]), len(slot))
        args = tuple(slot[product_element_index(size, col)] for col in zip(*(v for v, _ in combo)))
        for vec, table in zip(vectors, tables):
            result = product_element_index(size, [vec[w] for w in ws])
            constraints.append((table, args, slot[result]))
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
    assert (list(constraints), slots) == reference_census_constraints(a, n, depth, 10**8)


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
        constraints = list(constraints)
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


# the symmetric search's work bound: the diamond's fifth power, the largest case, takes
# 959,108 work units with the swaps and 8,089,424 without them
HOMS_WORK = 5 * 10**6


@pytest.mark.parametrize("logic", ["classical", "luk3_filter", "diamond"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_homomorphisms_are_the_same_with_and_without_coordinate_swaps(logic, n, request):
    """Both searches run on the one equation stream ``power_homomorphisms`` hands its
    search, caught by a spy that runs no search, so no table is re-checked."""
    matrix = diamond_matrix() if logic == "diamond" else request.getfixturevalue(logic)
    calls = []

    def spy(slots, size, constraints, budget, stage, symmetries=()):
        calls.append((slots, size, list(constraints), list(symmetries)))
        return []

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra_module, "search_tables", spy)
        power_homomorphisms(matrix.algebra, n)
    [(slots, size, constraints, swaps)] = calls
    assert len(swaps) == n - 1
    symmetric = search_tables(slots, size, constraints, HOMS_WORK, symmetries=swaps)
    assert symmetric == search_tables(slots, size, constraints, 10**8)
