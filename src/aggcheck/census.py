"""The census of qualifying aggregators: the second, independent route of the
bijection check.

A decision criterion qualifies when its induced aggregator is rational,
universal and strongly systematic. The census finds every such criterion by a
table search under constraints read off the rational profiles alone. It never
consults the homomorphism equation: this module names nothing of the route
in ``algebra`` (``is_homomorphism``, ``shared_power``, ``homomorphism_violation``
...), and tests check that a census calls none of it. The closure fragment,
the rational profiles' rank table and the round trips' whole-table check on
it (``_extends_everywhere``) live here, and ``aggregation`` imports them; the
rational attitudes are the agenda's (``Agenda.rational``). The census keeps
no table of its own. Its constraints are refused by their count against the
budget and by their bytes (``BYTES_PER_CONSTRAINT`` each) against
``MAX_BYTES``, before the rank table is built.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property, lru_cache
from itertools import chain, count, product, repeat

from .agenda import Agenda
from .algebra import (
    DEFAULT_BUDGET,
    MAX_BYTES,
    MAX_CONSTRAINTS,
    DecisionCriterion,
    _gather,
    closure_vectors,
    paused_collector,
    product_element_index,
    refuse,
    search_tables,
)
from .record import frozen
from .syntax import Formula, formula_sort_key

# What the census holds per constraint while its search runs: its share of the rank
# table (an 8-byte entry per fragment formula and profile), of the profiles' argument
# tuples (one of about 96 bytes per profile) and of the slot columns (8 bytes), and
# the search's buckets (about 25 bytes). tracemalloc reads 49 at boolean2 N=6 to 9 on
# the README agenda; tests/test_search.py pins it at N=8.
BYTES_PER_CONSTRAINT = 50


def _refuse_profiles_past_the_cap(agenda: Agenda, electorate: int, budget: int) -> None:
    # a count of what no caller builds here: enumerate_rational_profiles holds every
    # profile (about 200 bytes each), the checks build one at a time and the census none
    refuse(min(budget, MAX_CONSTRAINTS), "profile enumeration",
           ((len(agenda.rational), electorate), "rational profiles"))


@lru_cache(maxsize=4)
def _fragment_and_extensions(
    agenda: Agenda, depth: int, budget: int
) -> tuple[tuple[Formula, ...], tuple[tuple[int, ...], ...]]:
    """The agenda formulas plus the least formula (shortest, then by printed
    text) of each distinct truth vector of the agenda's bounded closure at
    ``depth``, sorted, and each rational attitude's values on them (its
    extension), in ``Agenda.rational`` order: the key of the rank table.

    A closure formula sharing its vector with an earlier one can only repeat
    that formula's constraints, so the census and the aggregator checks skip
    it. A fragment formula is a term over the agenda formulas and constants,
    so its value depends only on the attitude: two have equal truth vectors
    exactly when their extension columns are equal. ``budget`` caps the
    vector entries of each closure layer.
    """
    closure = closure_vectors(agenda.formulas, agenda.variables, agenda.algebra, depth, budget)
    vector_of = {formula: vector for vector, formula in closure.items()}
    fragment = tuple(sorted({*vector_of, *agenda.formulas}, key=formula_sort_key))
    # an agenda formula's value is the attitude's own; another's, its vector's at the witness
    sources = [(agenda.index.get(f), vector_of.get(f)) for f in fragment]
    return fragment, tuple(tuple(vector[w] if i is None else values[i] for i, vector in sources)
                           for values, w in agenda.rational)


@frozen
class RankTable:
    """The rank table of the rational profiles: for each fragment formula, one
    column holding each profile's rank in A^N of its voters' tuple at that
    formula, the profiles in product order (voter 0 most significant). Equal
    ranks are one shared int object. The census numbers its search slots, and
    a round trip reads its ledger, in ``first_occurrences`` order.

    ``first`` and ``last`` hold the table's product form, read by
    ``_extends_everywhere``: a profile is its first ``N - N//2`` voters'
    profile followed by its last ``N//2`` voters' one, and its rank is the
    first part's rank times ``width`` (``size**(N//2)``) plus the last part's."""

    columns: tuple[tuple[int, ...], ...]
    first: tuple[tuple[int, ...], ...]
    last: tuple[tuple[int, ...], ...]
    width: int

    @cached_property
    def first_occurrences(self) -> tuple[int, ...]:
        """The ranks the table holds, in the order they first occur when it is
        read profile by profile, each profile in fragment order."""
        return tuple(dict.fromkeys(chain.from_iterable(zip(*self.columns))))


def _extends_everywhere(table, ranks, extensions) -> bool:
    """Whether the criterion ``table`` gives each rational profile, over the
    fragment, a row of outputs that is some rational attitude's extension.

    If so, that attitude is the row's agenda part, the profile's output, so
    every output is rational with the row as its extension, and every strong
    systematicity constraint holds: it sets the criterion's own value at a
    rank. The check runs on the rank table's product form: the outputs of a
    first part of rank ``b`` over every last part, at a formula, are the last
    parts' ranks read in the block ``table[b·width:(b+1)·width]``. The rows
    of a first part hence depend only on the contents of the blocks it picks
    at each formula, and each distinct tuple of block contents is checked
    once, against every last part, at C speed.
    """
    width, allowed = ranks.width, set(extensions)
    blocks = {}  # each distinct block's contents -> its number
    block_of = [blocks.setdefault(table[b:b + width], len(blocks))
                for b in range(0, len(table), width)]
    contents = list(blocks)
    picks = dict.fromkeys(zip(*[_gather(block_of, column) for column in ranks.first]))
    return all(allowed.issuperset(zip(*[_gather(contents[block], column)
                                        for block, column in zip(pick, ranks.last)]))
               for pick in picks)


@lru_cache(maxsize=4)
def _voter_ranks(size: int, electorate: int, extensions: tuple[tuple[int, ...], ...]) -> RankTable:
    """The rank table of the profiles of the attitudes whose fragment values
    are ``extensions``. Its entries are read out of one ``range`` list, so the
    table holds at most ``size**electorate`` int objects, not one per entry:
    the ranks ``b·width`` to ``(b+1)·width - 1`` are that list's block ``b``,
    and a column is, for each first part, its block read at the last parts."""
    half = electorate // 2
    first, last = ([tuple(product_element_index(size, voters)
                          for voters in product(values, repeat=n)) for values in zip(*extensions)]
                   for n in (electorate - half, half))
    width, shared = size**half, list(range(size**electorate))
    blocks = [shared[b:b + width] for b in range(0, len(shared), width)]
    columns = []
    for highs, lows in zip(first, last):
        rows = [_gather(block, lows) for block in blocks]  # the ranks after each first part
        columns.append(tuple(chain.from_iterable(_gather(rows, highs))))
    return RankTable(tuple(columns), tuple(first), tuple(last), width)


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
    # the constraints' argument tuples are many and make no cycle; they are built, read
    # by the search and freed before the collector runs again, so no collection walks them
    with paused_collector():
        constraints, slot_of = _census_constraints(agenda, electorate, depth, budget)
        found = search_tables(len(slot_of), size, constraints, budget,
                              stage="census table search",
                              symmetries=_voter_swaps(size, electorate, slot_of))
    return [
        DecisionCriterion(agenda.algebra, electorate, values)
        for values in sorted(_gather(t, slot_of) for t in found)
    ]


def _census_constraints(agenda: Agenda, electorate: int, depth: int, budget: int):
    """Per rational profile and distinct fragment column v: the criterion at
    the voters' tuple on v equals v at the output attitude, so that attitude
    must be rational (v ranges over the agenda formulas' columns too).

    The search slots are the voter tuples in the rank table's
    ``first_occurrences`` order, so a profile's tuples get nearby slots and
    its constraints are checked early in the search's index order; tuples no
    profile attains come last. Returns the constraints, as a stream profile
    by profile, and the slot of each voter tuple, in row-major order.
    """
    size = agenda.algebra.size
    _refuse_profiles_past_the_cap(agenda, electorate, budget)
    fragment, extensions = _fragment_and_extensions(agenda, depth, budget)
    columns = list(zip(*extensions))
    first_column = {column: columns.index(column) for column in dict.fromkeys(columns)}
    counts = ((len(agenda.rational), electorate), "profiles"), (len(first_column), "vectors")
    refuse(budget, "census constraints", *counts)
    refuse(MAX_BYTES, "census constraints", *counts, (BYTES_PER_CONSTRAINT, "bytes"))
    attitudes = [product_element_index(size, values) for values, _ in agenda.rational]
    # each column's value at each rational attitude's rank; -1 at an irrational one
    tables = [defaultdict(lambda: -1, zip(attitudes, column)) for column in first_column]
    ranks = _voter_ranks(size, electorate, extensions)  # the round trips' table
    # the output attitude is the criterion at each agenda formula's voter tuple
    agenda_ranks = [ranks.columns[fragment.index(formula)] for formula in agenda.formulas]
    result_ranks = [ranks.columns[c] for c in first_column.values()]
    order = dict.fromkeys(chain(ranks.first_occurrences, range(size**electorate)))
    slot = dict(zip(order, count()))
    slot_of = [slot[voters] for voters in range(size**electorate)]
    args = list(zip(*[_gather(slot_of, column) for column in agenda_ranks]))
    per_vector = [zip(repeat(table), args, _gather(slot_of, column))
                  for table, column in zip(tables, result_ranks)]
    return chain.from_iterable(zip(*per_vector)), slot_of


def _voter_swaps(size: int, electorate: int, slot_of: list[int]) -> list[list[int]]:
    """One slot permutation per pair of adjacent voters. Swapping voters i and
    i+1 in every rational profile maps the rational profiles onto themselves
    and each voters' tuple to the tuple with entries i and i+1 swapped, so it
    maps the census's constraints, and its solutions, onto themselves; the
    permutation sends each tuple's slot to its swapped tuple's slot."""
    swaps = []
    for i in range(electorate - 1):
        perm = [0] * len(slot_of)
        for r, voters in enumerate(product(range(size), repeat=electorate)):
            swapped = (*voters[:i], voters[i + 1], voters[i], *voters[i + 2:])
            perm[slot_of[r]] = slot_of[product_element_index(size, swapped)]
        swaps.append(perm)
    return swaps
