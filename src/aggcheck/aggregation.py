"""Attitude functions, profiles, aggregators, and the characterization checks.

The central objects: an attitude function assigns a truth value to every
agenda formula; a profile is one attitude function per voter; an aggregator
maps profiles to a collective attitude function. A decision criterion is a
map from voter-value tuples to single values through which a systematic
aggregator factors pointwise.

Two constructions connect aggregators and algebra homomorphisms, and both
directions are implemented and checked exhaustively at desk scale:

* every rational, universal, strongly systematic aggregator yields a total
  decision criterion that is a homomorphism from the voter-power algebra to
  the value algebra (``criterion_from_aggregator``);
* every such homomorphism induces an aggregator with those three properties
  (``aggregator_from_criterion``).
"""

from __future__ import annotations

import gc
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from operator import add, eq, itemgetter
from typing import Optional, Sequence, Union

from .agenda import Agenda, pseudo_richness
from .algebra import (
    DEFAULT_BUDGET,
    MAX_CONSTRAINTS,
    FiniteAlgebra,
    all_valuations,
    closure_vectors,
    evaluate,
    is_homomorphism,
    product_element_index,
    search_tables,
    shared_power,
    truth_vector,
    truth_vectors,
)
from .errors import BudgetExceededError
from .syntax import Formula, Var, bounded_closure, formula_sort_key  # noqa: F401 (traced binding)

INDEPENDENT = "independent"
SYSTEMATIC = "systematic"
STRONGLY_SYSTEMATIC = "strongly-systematic"


@dataclass(frozen=True)
class AttitudeFunction:
    """A total assignment of truth values to the agenda formulas, stored as
    carrier indices aligned with the agenda's formula order."""

    agenda: Agenda
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.agenda.formulas):
            raise ValueError("attitude must be total on the agenda")
        size = self.agenda.algebra.size
        if any(not (0 <= v < size) for v in self.values):
            raise ValueError("attitude values outside the carrier")

    def value(self, formula: Formula) -> int:
        return self.values[self.agenda.index[formula]]


@dataclass(frozen=True)
class Profile:
    """One attitude function per voter, all over the same agenda."""

    attitudes: tuple[AttitudeFunction, ...]

    def __post_init__(self):
        if not self.attitudes:
            raise ValueError("empty profile")
        agenda = self.attitudes[0].agenda
        if any(a.agenda is not agenda and a.agenda != agenda for a in self.attitudes):
            raise ValueError("attitudes must share one agenda")

    @property
    def agenda(self) -> Agenda:
        return self.attitudes[0].agenda

    @property
    def electorate(self) -> int:
        return len(self.attitudes)

    def value_tuple(self, formula: Formula) -> tuple[int, ...]:
        i = self.agenda.index[formula]
        return tuple(a.values[i] for a in self.attitudes)


@dataclass(frozen=True)
class DecisionCriterion:
    """A total map from voter-value tuples into the value algebra.

    ``values`` is indexed by the row-major rank of the voter tuple (voter 0
    most significant), matching the product-algebra carrier order.
    """

    algebra: FiniteAlgebra
    electorate: int
    values: tuple[int, ...]

    def __post_init__(self):
        size, n, count = self.algebra.size, self.electorate, len(self.values)
        if n < 1:
            raise ValueError(f"criterion electorate must be >= 1, got {n}")
        if (size > 1 and n > count.bit_length()) or count != size**n:  # no size**n past count
            raise ValueError(f"criterion table needs {size}^{n} entries, got {count}")
        if any(not (0 <= v < self.algebra.size) for v in self.values):
            raise ValueError("criterion values outside the carrier")

    def __call__(self, coords: Sequence[int]) -> int:
        return self.values[product_element_index(self.algebra.size, coords)]

    def homomorphism_violation(self) -> Optional[tuple[str, tuple[int, ...]]]:
        """The first failure of the homomorphism equation from the voter-power
        algebra to the value algebra (see is_homomorphism), or None."""
        power = shared_power(self.algebra, self.electorate)
        return is_homomorphism(self.values, power, self.algebra)[1]


def projection_criterion(algebra: FiniteAlgebra, electorate: int, voter: int) -> DecisionCriterion:
    if not 0 <= voter < electorate:
        raise ValueError("voter index out of range")
    values = tuple(
        coords[voter]
        for coords in product(range(algebra.size), repeat=electorate)
    )
    return DecisionCriterion(algebra, electorate, values)


def constant_criterion(algebra: FiniteAlgebra, electorate: int, value: int) -> DecisionCriterion:
    return DecisionCriterion(algebra, electorate, (value,) * algebra.size**electorate)


def majority_criterion(algebra: FiniteAlgebra, electorate: int) -> DecisionCriterion:
    """Strict majority over a two-element carrier (ties go to 0)."""
    if algebra.size != 2:
        raise ValueError("majority needs a two-element carrier")
    values = tuple(
        int(sum(coords) * 2 > electorate)
        for coords in product((0, 1), repeat=electorate)
    )
    return DecisionCriterion(algebra, electorate, values)


# ---------------------------------------------------------------------------
# Rationality
# ---------------------------------------------------------------------------


def is_rational_attitude(
    attitude: AttitudeFunction,
) -> tuple[bool, Optional[dict[str, int]]]:
    """An attitude is rational iff some valuation of the agenda's variables
    reproduces it on every agenda formula. Returns the lexicographically
    least witnessing valuation."""
    agenda = attitude.agenda
    for valuation in all_valuations(agenda.variables, agenda.algebra):
        if all(
            evaluate(f, valuation, agenda.algebra) == attitude.values[i]
            for i, f in enumerate(agenda.formulas)
        ):
            return True, dict(valuation)
    return False, None


@lru_cache(maxsize=None)
def _rational_table(agenda: Agenda) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Distinct rational attitude value-tuples with the index (into valuation
    order) of their least witnessing valuation."""
    vectors = truth_vectors(agenda.formulas, agenda.variables, agenda.algebra)
    rows: dict[tuple[int, ...], int] = {}
    for w in range(agenda.algebra.size ** len(agenda.variables)):
        rows.setdefault(tuple(vec[w] for vec in vectors), w)
    return tuple(rows.items())


def enumerate_rational_attitudes(agenda: Agenda) -> tuple[AttitudeFunction, ...]:
    """All distinct rational attitude functions, in order of their least
    witnessing valuation."""
    return tuple(
        AttitudeFunction(agenda, values) for values, _ in _rational_table(agenda)
    )


def _refuse_profiles_past_the_cap(agenda: Agenda, electorate: int, budget: int) -> None:
    count = len(_rational_table(agenda)) ** electorate
    limit = min(budget, MAX_CONSTRAINTS)  # refused unbuilt: a profile takes about 200 bytes
    if count > limit:
        raise BudgetExceededError(
            f"{count} rational profiles exceed the limit of {limit}"
        )


def enumerate_rational_profiles(
    agenda: Agenda, electorate: int, budget: int = DEFAULT_BUDGET
) -> tuple[Profile, ...]:
    """All rational profiles, voter 0's attitude most significant. The checks
    below build none for a criterion aggregator: they read its outputs off
    the rational profiles' rank table."""
    _refuse_profiles_past_the_cap(agenda, electorate, budget)
    attitudes = enumerate_rational_attitudes(agenda)
    return tuple(Profile(combo) for combo in product(attitudes, repeat=electorate))


def _rational_profile(agenda: Agenda, electorate: int, number: int) -> Profile:
    """The rational profile at ``number`` in enumerate_rational_profiles
    order: voter i's attitude is the number's i-th base-|rational| digit,
    voter 0 most significant."""
    attitudes = enumerate_rational_attitudes(agenda)
    base = len(attitudes)
    return Profile(tuple(
        attitudes[number // base ** (electorate - 1 - i) % base] for i in range(electorate)
    ))


# ---------------------------------------------------------------------------
# Witness constructions for prescribed values
# ---------------------------------------------------------------------------


def rational_attitude_with_values(
    agenda: Agenda, targets: Sequence[int]
) -> tuple[tuple[Formula, ...], AttitudeFunction]:
    """A rational attitude hitting prescribed values on pseudo-rich witnesses.

    For targets (a_1,...,a_m) over an m-pseudo-rich agenda, picks the witness
    formulas delta_j (each interderivable with its own variable x_j), sets
    x_j to a_j and every other agenda variable to the least carrier element,
    and evaluates the whole agenda. The construction is checked: the returned
    attitude takes value a_j on delta_j.
    """
    m = len(targets)
    level, witnesses = pseudo_richness(agenda)
    if level < m:
        raise ValueError(f"agenda is only {level}-pseudo-rich, need {m}")
    size = agenda.algebra.size
    if any(not (0 <= t < size) for t in targets):
        raise ValueError("targets outside the carrier")
    chosen = witnesses[:m]
    valuation = {name: 0 for name in agenda.variables}
    for (_, var), target in zip(chosen, targets):
        valuation[var] = target
    values = tuple(
        evaluate(f, valuation, agenda.algebra) for f in agenda.formulas
    )
    attitude = AttitudeFunction(agenda, values)
    for (delta, _), target in zip(chosen, targets):
        if attitude.value(delta) != target:
            raise ValueError(
                "pseudo-rich witness does not track its variable; "
                "is the matrix a selfextensional presentation?"
            )
    return tuple(delta for delta, _ in chosen), attitude


def rational_profile_with_values(
    agenda: Agenda, electorate: int, target_tuples: Sequence[Sequence[int]]
) -> tuple[tuple[Formula, ...], Profile]:
    """Componentwise version: target_tuples[j] prescribes, voter by voter,
    the value of the j-th witness formula."""
    if electorate < 1:
        raise ValueError("electorate must be >= 1")
    for t in target_tuples:
        if len(t) != electorate:
            raise ValueError("each target tuple needs one entry per voter")
    deltas: tuple[Formula, ...] = ()
    attitudes = []
    for voter in range(electorate):
        deltas, attitude = rational_attitude_with_values(
            agenda, [t[voter] for t in target_tuples]
        )
        attitudes.append(attitude)
    return deltas, Profile(tuple(attitudes))


# ---------------------------------------------------------------------------
# Aggregators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionAggregator:
    """Aggregator induced pointwise by a decision criterion; its domain is
    the set of all rational profiles."""

    criterion: DecisionCriterion
    agenda: Agenda

    def __post_init__(self):
        if self.criterion.algebra != self.agenda.algebra:
            raise ValueError("criterion and agenda use different algebras")

    @property
    def electorate(self) -> int:
        return self.criterion.electorate

    def apply(self, profile: Profile) -> AttitudeFunction:
        if profile.electorate != self.electorate:
            raise ValueError("profile has the wrong number of voters")
        # one voter tuple per agenda position
        columns = zip(*(a.values for a in profile.attitudes))
        return AttitudeFunction(self.agenda, tuple(map(self.criterion, columns)))

    def in_domain(self, profile: Profile) -> bool:
        rational = dict(_rational_table(self.agenda))
        return all(a.values in rational for a in profile.attitudes)

    def domain_profiles(self, budget: int = DEFAULT_BUDGET) -> tuple[Profile, ...]:
        return enumerate_rational_profiles(self.agenda, self.electorate, budget)


@dataclass(frozen=True)
class ExtensionalAggregator:
    """Aggregator given by an explicit table on an explicit domain."""

    agenda: Agenda
    electorate: int
    table: tuple[tuple[Profile, AttitudeFunction], ...]

    def __post_init__(self):
        seen = set()
        for profile, output in self.table:
            if profile.agenda != self.agenda or output.agenda != self.agenda:
                raise ValueError("table rows must use the aggregator's agenda")
            if profile.electorate != self.electorate:
                raise ValueError("profile has the wrong number of voters")
            if profile in seen:
                raise ValueError("duplicate profile in table")
            seen.add(profile)

    @cached_property
    def _lookup(self) -> dict[Profile, AttitudeFunction]:
        return dict(self.table)

    def apply(self, profile: Profile) -> AttitudeFunction:
        try:
            return self._lookup[profile]
        except KeyError:
            raise ValueError("profile outside the aggregator's domain") from None

    def in_domain(self, profile: Profile) -> bool:
        return profile in self._lookup

    def domain_profiles(self, budget: int = DEFAULT_BUDGET) -> tuple[Profile, ...]:
        return tuple(p for p, _ in self.table)


Aggregator = Union[CriterionAggregator, ExtensionalAggregator]


# ---------------------------------------------------------------------------
# Property checks: one pass over the aggregator's domain
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalityReport:
    universal: bool
    rational: bool
    missing_profile: Optional[Profile]
    irrational_witness: Optional[tuple[Profile, AttitudeFunction]]

    @property
    def both(self) -> bool:
        return self.universal and self.rational


@dataclass(frozen=True)
class SystematicityResult:
    holds: bool
    level: str
    depth: int
    criterion: Optional[dict[tuple[int, ...], int]]
    conflict: Optional[str]


@dataclass(frozen=True)
class ParetoReport:
    holds: bool
    checked_profiles: int
    witness: Optional[str]


@lru_cache(maxsize=None)
def _fragment_and_vectors(
    agenda: Agenda, depth: int, budget: int
) -> tuple[tuple[Formula, ...], tuple[tuple[int, ...], ...]]:
    """The agenda formulas plus the least formula (in ``formula_sort_key``
    order) of each distinct truth vector of the agenda's bounded closure at
    ``depth``, sorted, with their truth vectors over the agenda variables.

    A closure formula sharing its vector with an earlier one can only repeat
    that formula's constraints, so the checks below skip it. ``budget`` caps
    the vector entries of each closure layer.
    """
    variables, algebra = agenda.variables, agenda.algebra
    closure = closure_vectors(agenda.formulas, variables, algebra, depth, budget=budget)
    vector_of = {formula: vector for vector, formula in closure.items()}
    vector_of.update(zip(agenda.formulas, truth_vectors(agenda.formulas, variables, algebra)))
    fragment = tuple(sorted(vector_of, key=formula_sort_key))
    return fragment, tuple(vector_of[f] for f in fragment)


@lru_cache(maxsize=4)
def _voter_ranks(
    size: int, electorate: int, extensions: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], ...]:
    """For each profile of the attitudes whose fragment values are
    ``extensions``, in product order (voter 0 most significant), the rank in
    B^N of the voters' tuple at each fragment formula."""
    ranks = [(0,) * len(extensions[0])]
    for _ in range(electorate):
        shifted = [tuple([r * size for r in prefix]) for prefix in ranks]
        ranks = [tuple(map(add, prefix, ext)) for prefix in shifted for ext in extensions]
    return tuple(ranks)


def _ranked_rows(aggregator, extension, positions, size):
    """(profile, its number among the rational profiles, its voters' tuple
    rank at each fragment formula, output values) for each row of an
    extensional aggregator's table. A profile with an irrational voter has
    no number and no rank at closure formulas (None)."""
    number_of = {values: i for i, values in enumerate(extension)}
    for profile, output in aggregator.table:
        voters = [a.values for a in profile.attitudes]
        extended = [extension.get(values) for values in voters]
        if None in extended:
            number, attained = None, [
                None if pos is None else product_element_index(size, [v[pos] for v in voters])
                for pos in positions
            ]
        else:
            number = product_element_index(len(extension), [number_of[v] for v in voters])
            attained = [product_element_index(size, col) for col in zip(*extended)]
        yield profile, number, attained, output.values


class _Constraints:
    """The systematicity constraints met so far. A key is the voters' tuple
    rank, paired with the fragment number at the independent level; each
    keeps its output value and the profile and fragment number where it
    first occurs."""

    def __init__(self, level: str, fragment: Sequence[Formula], positions, size: int,
                 electorate: int):
        self.level, self.fragment, self.size, self.electorate = level, fragment, size, electorate
        self.agenda_slots = [(f_num, pos) for f_num, pos in enumerate(positions)
                             if pos is not None]
        self.value_of: dict[object, int] = {}
        self.known: dict[object, Optional[int]] = defaultdict(lambda: None)  # value_of, None if unset
        self.origin: dict[object, tuple[int, int]] = {}

    def meet(self, p_num: int, attained, output: tuple[int, ...],
             closure: Optional[tuple[int, ...]]) -> Optional[str]:
        """Add profile ``p_num``'s constraints, in fragment order: all of
        them given the output's closure values, else the agenda part only.
        Returns the first conflict with an earlier constraint, or None."""
        if closure is not None:
            nums, voters, values = range(len(self.fragment)), attained, closure
        else:
            nums = [f_num for f_num, _ in self.agenda_slots]
            voters = [attained[f_num] for f_num in nums]
            values = [output[pos] for _, pos in self.agenda_slots]
        keys = voters if self.level != INDEPENDENT else list(zip(voters, nums))
        if all(map(eq, map(self.value_of.get, keys), values)):
            return None  # every constraint already met
        for f_num, rank, key, value in zip(nums, voters, keys, values):
            prior = self.known[key] = self.value_of.setdefault(key, value)
            if prior == value:
                self.origin.setdefault(key, (p_num, f_num))
                continue
            first_profile, first_num = self.origin[key]
            return (
                f"tuple {self._voter_tuple(rank)}: value {prior} from profile {first_profile} "
                f"at {formula_sort_key(self.fragment[first_num])} vs value {value} from "
                f"profile {p_num} at {formula_sort_key(self.fragment[f_num])}"
            )
        return None

    def criterion(self) -> dict:
        """The constraints as a criterion on voter tuples (paired with the
        formula at the independent level), in first-occurrence order."""
        if self.level == INDEPENDENT:
            return {(self._voter_tuple(rank), self.fragment[f_num]): value
                    for (rank, f_num), value in self.value_of.items()}
        return {self._voter_tuple(rank): value for rank, value in self.value_of.items()}

    def _voter_tuple(self, rank: int) -> tuple[int, ...]:
        n = self.electorate
        return tuple(rank // self.size ** (n - 1 - i) % self.size for i in range(n))


@dataclass(frozen=True)
class _Pass:
    rationality: Optional[RationalityReport]
    systematicity: Optional[SystematicityResult]
    pareto: Optional[ParetoReport]


def _one_pass(
    aggregator: Aggregator,
    budget: int,
    level: Optional[str] = None,
    depth: int = 1,
    rationality: bool = True,
    pareto: bool = False,
) -> _Pass:
    """Read the aggregator's output on each profile of its domain once, in
    domain order, and feed it to every check asked for: universality and
    rationality over the rational profiles (``rationality``), systematicity
    at ``level`` over the whole domain (None skips it), and the Pareto scan
    over the rational profiles (``pareto``).

    Every refusal comes before the first output is read: the
    rational-profile cap (for a criterion aggregator, its domain's), the
    closure layers, then the systematicity budget. A rational profile's
    voters' tuple ranks come from a table shared by every pass over the same
    profiles and fragment; a criterion aggregator's outputs are read off
    that table, and a profile is built only for a reported irrational witness.
    """
    agenda, n = aggregator.agenda, aggregator.electorate
    size = agenda.algebra.size
    induced = isinstance(aggregator, CriterionAggregator)  # its domain: the rational profiles
    if rationality or induced:
        _refuse_profiles_past_the_cap(agenda, n, budget)
    domain = len(_rational_table(agenda)) ** n if induced else len(aggregator.table)
    if level == STRONGLY_SYSTEMATIC:
        fragment, vectors = _fragment_and_vectors(agenda, depth, budget)
    else:
        fragment = agenda.formulas
        vectors = truth_vectors(fragment, agenda.variables, agenda.algebra)
    if level is not None and domain * len(fragment) > budget:
        raise BudgetExceededError(
            f"systematicity check: {domain} profiles x {len(fragment)} formulas "
            f"= {domain * len(fragment)} exceed budget {budget}"
        )
    # each rational attitude's values on the fragment, its unique rational extension
    extension = {
        values: tuple(vec[w] for vec in vectors) for values, w in _rational_table(agenda)
    }
    positions = [agenda.index.get(formula) for formula in fragment]
    # the agenda formulas' fragment numbers, in agenda order
    agenda_order = sorted((pos, f_num) for f_num, pos in enumerate(positions) if pos is not None)
    if induced:  # its output at an agenda formula: the criterion at that formula's rank
        table, columns = aggregator.criterion.values, [f_num for _, f_num in agenda_order]
        rows = ((None, number, attained, tuple([table[attained[c]] for c in columns]))
                for number, attained in enumerate(_voter_ranks(size, n, tuple(extension.values()))))
    else:
        rows = _ranked_rows(aggregator, extension, positions, size)
    # rank of each unanimous voters' tuple on a constant -> that constant
    unanimous = {
        c * product_element_index(size, (1,) * n): c
        for c in (agenda.algebra.constant(name) for name in agenda.signature.constants)
    }

    constraints = None if level is None else _Constraints(level, fragment, positions, size, n)
    conflict = None
    rational_rows = 0
    irrational = None  # (number, profile, output): the least rational profile aggregated irrationally
    unfair = None  # (number, text): the least rational profile breaking unanimity on a constant
    for p_num, (profile, number, attained, output) in enumerate(rows):
        closure = extension.get(output)
        if number is not None:
            rational_rows += 1
            if closure is None and (irrational is None or number < irrational[0]):
                irrational = (number, profile, output)
            if pareto and (unfair is None or number < unfair[0]):
                for pos, f_num in agenda_order:
                    value = unanimous.get(attained[f_num])
                    if value is not None and output[pos] != value:
                        label = agenda.algebra.label
                        unfair = (number, f"unanimous {label(value)} on "
                                          f"{formula_sort_key(fragment[f_num])} aggregated to "
                                          f"{label(output[pos])}")
                        break
        if constraints is not None and not conflict:
            # closure values need every attitude rational; a row held at its ranks adds nothing
            closed = closure if number is not None else None
            if closed is None or itemgetter(*attained)(constraints.known) != closed:
                conflict = constraints.meet(p_num, attained, output, closed)
                if conflict and not (rationality or pareto):
                    break

    report = strong = fair = None
    if rationality:
        universal = rational_rows == len(extension) ** n
        missing = None if universal else next(
            p for p in enumerate_rational_profiles(agenda, n, budget)
            if not aggregator.in_domain(p)
        )
        witness = None if irrational is None else (
            irrational[1] or _rational_profile(agenda, n, irrational[0]),
            AttitudeFunction(agenda, irrational[2]))
        report = RationalityReport(universal, irrational is None, missing, witness)
    if constraints is not None:
        strong = (SystematicityResult(False, level, depth, None, conflict) if conflict
                  else SystematicityResult(True, level, depth, constraints.criterion(), None))
    if pareto:
        fair = (ParetoReport(True, rational_rows, None) if unfair is None
                else ParetoReport(False, unfair[0] + 1, unfair[1]))
    return _Pass(report, strong, fair)


def check_rational_universal(
    aggregator: Aggregator, budget: int = DEFAULT_BUDGET
) -> RationalityReport:
    """Universality: every rational profile is in the domain. Rationality:
    every output on a rational domain profile is itself rational. Exhaustive
    over the rational profiles of the agenda; the missing profile and the
    irrational witness are the first in rational-profile order."""
    return _one_pass(aggregator, budget).rationality


def check_systematicity(
    aggregator: Aggregator,
    level: str = SYSTEMATIC,
    depth: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> SystematicityResult:
    """Does a single decision criterion explain the aggregator?

    independent:  for each formula separately, equal voter tuples imply equal
                  outputs across profiles.
    systematic:   one map over all agenda formulas and profiles.
    strongly-systematic: the same, over the agenda's bounded closure at
                  ``depth``; attitude values on closure formulas are the
                  unique rational extensions, so pairs whose input or output
                  attitude is not rational contribute only their agenda part.

    Returns the induced (partial) criterion on the attained tuples when the
    level holds, and a human-readable conflict otherwise (the first one met
    over the domain profiles in order, each over the fragment in order).
    """
    if level not in (INDEPENDENT, SYSTEMATIC, STRONGLY_SYSTEMATIC):
        raise ValueError(f"unknown level {level!r}")
    return _one_pass(aggregator, budget, level, depth, rationality=False).systematicity


# ---------------------------------------------------------------------------
# The two directions of the characterization
# ---------------------------------------------------------------------------


def witness_attitudes(
    agenda: Agenda, via: Optional[Formula] = None
) -> tuple[Formula, dict[int, AttitudeFunction]]:
    """A witness formula and, for each carrier value b, the rational attitude
    at the least valuation where the witness takes b.

    The witness is the first pseudo-richness witness by default, which must
    equal its variable at every valuation (so its attitude for b sets that
    variable to b and every other to 0, as ``rational_attitude_with_values``
    does), or any strictly contingent agenda formula passed as ``via``.
    """
    algebra = agenda.algebra
    variable, variables = None, agenda.variables
    if via is None:
        level, witnesses = pseudo_richness(agenda)
        if not level:
            raise ValueError("agenda is not even 1-pseudo-rich")
        via, variable = witnesses[0]
        # on degenerate matrices the tracked variable may not occur in the agenda
        variables = tuple(sorted({*variables, variable}))
    elif via not in agenda.index:
        raise ValueError("witness formula must belong to the agenda")
    via_vector, *vectors = truth_vectors((via, *agenda.formulas), variables, algebra)
    if variable is not None and via_vector != truth_vector(Var(variable), variables, algebra):
        raise ValueError(
            "pseudo-rich witness does not track its variable; "
            "is the matrix a selfextensional presentation?"
        )
    attitude_for = {}
    for w, b in enumerate(via_vector):
        if b not in attitude_for:
            attitude_for[b] = AttitudeFunction(agenda, tuple(vec[w] for vec in vectors))
    if len(attitude_for) != algebra.size:
        raise ValueError("witness formula must be strictly contingent")
    return via, attitude_for


def criterion_from_aggregator(
    aggregator: Aggregator,
    via: Optional[Formula] = None,
    depth: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> DecisionCriterion:
    """Extract the total decision criterion of a rational, universal,
    strongly systematic aggregator, and verify it is a homomorphism.

    Every voter tuple is attained on a single witness formula (see
    ``witness_attitudes``). The preconditions are verified, not assumed; the
    final homomorphism assertion failing signals a non-qualifying aggregator
    (or a bug) and raises.
    """
    agenda = aggregator.agenda
    algebra = agenda.algebra
    n = aggregator.electorate

    checked = _one_pass(aggregator, budget, STRONGLY_SYSTEMATIC, depth)
    report, strong = checked.rationality, checked.systematicity
    if not report.both:
        raise ValueError(
            "aggregator is not universal+rational: "
            f"universal={report.universal} rational={report.rational}"
        )
    if not strong.holds:
        raise ValueError(f"aggregator is not strongly systematic: {strong.conflict}")

    via, attitude_for = witness_attitudes(agenda, via)
    position = agenda.index[via]
    values = [
        aggregator.apply(Profile(tuple(attitude_for[b] for b in coords))).values[position]
        for coords in product(range(algebra.size), repeat=n)
    ]
    criterion = DecisionCriterion(algebra, n, tuple(values))
    violation = criterion.homomorphism_violation()
    if violation:
        raise ValueError(
            "extracted criterion is not a homomorphism "
            f"(fails at {violation[0]} on {violation[1]}); the aggregator does not qualify"
        )
    return criterion


def aggregator_from_criterion(
    criterion: DecisionCriterion, agenda: Agenda
) -> CriterionAggregator:
    """Lift a homomorphism voter-power -> values to the induced aggregator on
    all rational profiles. Rejects non-homomorphic criteria."""
    if criterion.algebra != agenda.algebra:
        raise ValueError("criterion and agenda use different algebras")
    violation = criterion.homomorphism_violation()
    if violation:
        symbol, args = violation
        raise ValueError(f"criterion is not a homomorphism (fails at {symbol} on {args})")
    return CriterionAggregator(criterion, agenda)


def check_pareto(
    aggregator: Aggregator, budget: int = DEFAULT_BUDGET
) -> ParetoReport:
    """Unanimity on a constant's value forces that value in the output.

    Preconditions (universal, rational, strongly systematic) are verified
    on the same pass; the scan covers every rational profile, agenda formula
    and constant of the signature, and reports the first failure in
    rational-profile order with the number of profiles checked up to it.
    """
    checked = _one_pass(aggregator, budget, STRONGLY_SYSTEMATIC, 1, pareto=True)
    if not (checked.rationality.both and checked.systematicity.holds):
        raise ValueError(
            "Pareto check requires a universal, rational, strongly "
            "systematic aggregator"
        )
    return checked.pareto


# ---------------------------------------------------------------------------
# Census of qualifying aggregators (independent of the homomorphism
# equation; used as the second route of the bijection check)
# ---------------------------------------------------------------------------


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
    the same class.
    """
    constraints, slot_of = _census_constraints(agenda, electorate, depth, budget)
    found = search_tables(len(slot_of), agenda.algebra.size, constraints, budget,
                          stage="census table search")
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
    fragment, fragment_vectors = _fragment_and_vectors(agenda, depth, budget)
    first_column = {vec: fragment_vectors.index(vec) for vec in dict.fromkeys(fragment_vectors)}
    profiles = len(rational) ** electorate
    limit = min(budget, MAX_CONSTRAINTS)
    if profiles * len(first_column) > limit:
        raise BudgetExceededError(
            f"profile x fragment space exceeds budget: census of {profiles} profiles "
            f"x {len(first_column)} vectors = {profiles * len(first_column)} constraints, "
            f"over the limit of {limit}"
        )
    tables = [defaultdict(lambda: -1, {product_element_index(size, values): vec[w]  # -1: irrational
                                       for values, w in rational}) for vec in first_column]
    agenda_columns = [fragment.index(formula) for formula in agenda.formulas]
    slot: dict[int, int] = {}  # voter tuple -> search slot, by first appearance
    constraints = []
    extensions = tuple(tuple(vec[w] for vec in fragment_vectors) for _, w in rational)
    collecting = gc.isenabled()  # each constraint holds a dict, so stays tracked: full
    gc.disable()  # collections as they pile up would free nothing (no cycle is made)
    try:
        for ranks in _voter_ranks(size, electorate, extensions):  # the round trips' table
            # the output attitude is the criterion at each agenda formula's voter tuple
            args = tuple(slot.setdefault(ranks[c], len(slot)) for c in agenda_columns)
            for c, table in zip(first_column.values(), tables):
                constraints.append((table, args, slot.setdefault(ranks[c], len(slot))))
    finally:
        if collecting:
            gc.enable()
    for voters in range(size**electorate):  # tuples no profile attains
        slot.setdefault(voters, len(slot))
    return constraints, [slot[voters] for voters in range(size**electorate)]
