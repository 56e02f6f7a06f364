"""The census of qualifying aggregators: the second, independent route of the
bijection check.

A decision criterion qualifies when its induced aggregator is rational,
universal and strongly systematic. The census finds every such criterion by a
table search under constraints read off the rational profiles alone. It never
consults the homomorphism equation: this module names nothing of the route
in ``algebra`` (``is_homomorphism``, ``shared_power``, ``homomorphism_violation``
...), and tests check that a census calls none of it. The rational attitudes,
the closure fragment and the rational profiles' rank table are built here and
shared with the aggregator checks in ``aggregation``.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, lru_cache
from itertools import chain, count, product, repeat
from operator import itemgetter

from .agenda import Agenda
from .algebra import (
    DEFAULT_BUDGET,
    MAX_CONSTRAINTS,
    DecisionCriterion,
    closure_vectors,
    paused_collector,
    product_element_index,
    refuse,
    search_tables,
    truth_vectors,
)
from .record import frozen
from .syntax import Formula, formula_sort_key


@lru_cache(maxsize=4)
def _rational_table(agenda: Agenda) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Distinct rational attitude value-tuples with the index (into valuation
    order) of their least witnessing valuation."""
    vectors = truth_vectors(agenda.formulas, agenda.variables, agenda.algebra)
    rows: dict[tuple[int, ...], int] = {}
    for w in range(agenda.algebra.size ** len(agenda.variables)):
        rows.setdefault(tuple(vec[w] for vec in vectors), w)
    return tuple(rows.items())


def _refuse_profiles_past_the_cap(agenda: Agenda, electorate: int, budget: int) -> None:
    refuse(min(budget, MAX_CONSTRAINTS), "profile enumeration",  # unbuilt: about 200 bytes each
           ((len(_rational_table(agenda)), electorate), "rational profiles"))


@lru_cache(maxsize=4)
def _fragment_and_vectors(
    agenda: Agenda, depth: int, budget: int
) -> tuple[tuple[Formula, ...], tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """The agenda formulas plus the least formula (shortest, then by printed
    text) of each distinct truth vector of the agenda's bounded closure at
    ``depth``, sorted, with their truth vectors over the agenda variables and
    each rational attitude's values on them (its extension), in
    ``_rational_table`` order: the key of the shared rank table ``_voter_ranks``.

    A closure formula sharing its vector with an earlier one can only repeat
    that formula's constraints, so the census and the aggregator checks skip
    it. ``budget`` caps the vector entries of each closure layer.
    """
    variables, algebra = agenda.variables, agenda.algebra
    closure = closure_vectors(agenda.formulas, variables, algebra, depth, budget=budget)
    vector_of = {formula: vector for vector, formula in closure.items()}
    vector_of.update(zip(agenda.formulas, truth_vectors(agenda.formulas, variables, algebra)))
    fragment = tuple(sorted(vector_of, key=formula_sort_key))
    vectors = tuple(vector_of[f] for f in fragment)
    return fragment, vectors, tuple(tuple(vec[w] for vec in vectors)
                                    for _, w in _rational_table(agenda))


@frozen
class RankTable:
    """The rank table of the rational profiles: for each fragment formula, one
    column holding each profile's rank in B^N of its voters' tuple at that
    formula, the profiles in product order (voter 0 most significant)."""

    columns: tuple[tuple[int, ...], ...]

    @cached_property
    def first_occurrences(self) -> tuple[int, ...]:
        """The ranks the table holds, in the order they first occur when it is
        read profile by profile, each profile in fragment order."""
        return tuple(dict.fromkeys(chain.from_iterable(zip(*self.columns))))


@lru_cache(maxsize=4)
def _voter_ranks(size: int, electorate: int, extensions: tuple[tuple[int, ...], ...]) -> RankTable:
    """The rank table of the profiles of the attitudes whose fragment values
    are ``extensions``."""
    return RankTable(tuple(tuple(_rank_column(values, size, electorate))
                           for values in zip(*extensions)))


def _rank_column(values: tuple[int, ...], size: int, electorate: int) -> list[int]:
    """Each profile's voters' tuple rank at a formula the attitudes take
    ``values`` on, in product order. A profile of the first voters followed
    by one of the last ``half`` has the first's rank times ``size**half``
    plus the last's, so each profile costs one addition."""
    if electorate < 2:
        return list(values) if electorate else [0]
    half = electorate // 2
    last = _rank_column(values, size, half)
    first = [rank * size**half for rank in _rank_column(values, size, electorate - half)]
    return [high + low for high in first for low in last]


def _gather(table, keys) -> tuple:
    """``table[key]`` for each key, in order, at C speed (an ``itemgetter`` of
    one key returns the bare value, not a 1-tuple)."""
    return itemgetter(*keys)(table) if len(keys) > 1 else tuple(map(table.__getitem__, keys))


def qualifying_criteria(
    agenda: Agenda,
    electorate: int,
    depth: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> list[DecisionCriterion]:
    """All total decision criteria whose induced aggregator is rational,
    universal and strongly systematic, found by a table search.

    Universality holds by construction for criterion-induced aggregators.
    Each rational profile must aggregate to a rational attitude whose unique
    rational extension on the depth-``depth`` closure agrees with the
    criterion applied to the extended voter tuples. The homomorphism
    equation is never consulted, so this census is an independent route to
    the same class. The search runs up to the voter swaps (``_voter_swaps``).
    """
    size = agenda.algebra.size
    # the constraints are many tuples that make no cycle, and they are freed before the
    # collector runs again, so no collection walks them
    with paused_collector():
        constraints, slot_of = _census_constraints(agenda, electorate, depth, budget)
        found = search_tables(len(slot_of), size, constraints, budget,
                              stage="census table search",
                              symmetries=_voter_swaps(size, electorate, slot_of))
        del constraints
    return [
        DecisionCriterion(agenda.algebra, electorate, values)
        for values in sorted(tuple(t[slot] for slot in slot_of) for t in found)
    ]


def _census_constraints(agenda: Agenda, electorate: int, depth: int, budget: int):
    """Per rational profile and distinct closure vector v: the criterion at
    the voters' tuple on v equals v at the least valuation witnessing the
    output attitude, so that attitude must be rational (v ranges over the
    agenda formulas' vectors too).

    The search slots are the voter tuples numbered in the order they first
    appear in this stream, so a profile's tuples get nearby slots and its
    constraints are checked early in the search's index order. Returns the
    constraints and the slot of each voter tuple, in row-major order.
    """
    size = agenda.algebra.size
    rational = _rational_table(agenda)
    _refuse_profiles_past_the_cap(agenda, electorate, budget)
    fragment, fragment_vectors, extensions = _fragment_and_vectors(agenda, depth, budget)
    first_column = {vec: fragment_vectors.index(vec) for vec in dict.fromkeys(fragment_vectors)}
    refuse(min(budget, MAX_CONSTRAINTS), "census constraints",
           ((len(rational), electorate), "profiles"), (len(first_column), "vectors"))
    tables = [defaultdict(lambda: -1, {product_element_index(size, values): vec[w]  # -1: irrational
                                       for values, w in rational}) for vec in first_column]
    ranks = _voter_ranks(size, electorate, extensions).columns  # the round trips' table
    # the output attitude is the criterion at each agenda formula's voter tuple
    agenda_ranks = [ranks[fragment.index(formula)] for formula in agenda.formulas]
    result_ranks = [ranks[c] for c in first_column.values()]
    # search slots by first appearance: a profile's agenda tuples, then its results;
    # tuples no profile attains come last
    order = dict.fromkeys(chain.from_iterable(zip(*agenda_ranks, *result_ranks)))
    order.update(dict.fromkeys(range(size**electorate)))
    slot = dict(zip(order, count()))
    slot_of = [slot[voters] for voters in range(size**electorate)]
    args = list(zip(*[_gather(slot_of, column) for column in agenda_ranks]))
    per_vector = [zip(repeat(table), args, _gather(slot_of, column))
                  for table, column in zip(tables, result_ranks)]
    return list(chain.from_iterable(zip(*per_vector))), slot_of  # profile by profile


def _voter_swaps(size: int, electorate: int, slot_of: list[int]) -> list[list[int]]:
    """One slot permutation per pair of adjacent voters. Swapping voters i and
    i+1 in every rational profile maps the rational profiles onto themselves
    and each voters' tuple to the tuple with entries i and i+1 swapped, so it
    maps the census's constraints, and its solutions, onto themselves; the
    permutation sends each tuple's slot to its swapped tuple's slot."""
    rank = {voters: r for r, voters in enumerate(product(range(size), repeat=electorate))}
    swaps = []
    for i in range(electorate - 1):
        perm = [0] * len(slot_of)
        for voters, r in rank.items():
            swapped = (*voters[:i], voters[i + 1], voters[i], *voters[i + 2:])
            perm[slot_of[r]] = slot_of[rank[swapped]]
        swaps.append(perm)
    return swaps
