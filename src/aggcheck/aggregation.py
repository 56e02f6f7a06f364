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

from functools import cached_property
from itertools import chain, product
from typing import Optional, Sequence, Union

from .agenda import Agenda, pseudo_richness
from .algebra import (
    DEFAULT_BUDGET,
    DecisionCriterion,
    FiniteAlgebra,
    _gather,
    _within,
    element_coordinates,
    evaluate,
    refuse,
    truth_vectors,
)
from .census import (
    _extends_everywhere,
    _fragment_and_extensions,
    _refuse_profiles_past_the_cap,
    _voter_ranks,
)
from .errors import NotQualifyingError
from .record import frozen
from .syntax import Formula, Var, formula_sort_key
from .syntax import bounded_closure  # noqa: F401 (traced binding)

INDEPENDENT = "independent"
SYSTEMATIC = "systematic"
STRONGLY_SYSTEMATIC = "strongly-systematic"


@frozen
class AttitudeFunction:
    """A total assignment of truth values to the agenda formulas, stored as
    carrier indices aligned with the agenda's formula order."""

    agenda: Agenda
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.agenda.formulas):
            raise ValueError("attitude must be total on the agenda")
        if not _within(self.values, self.agenda.algebra.size):
            raise ValueError("attitude values outside the carrier")


@frozen
class Profile:
    """One attitude function per voter, all over the same agenda."""

    attitudes: tuple[AttitudeFunction, ...]

    def __post_init__(self):
        if not self.attitudes:
            raise ValueError("empty profile")
        agenda = self.attitudes[0].agenda
        if any(a.agenda != agenda for a in self.attitudes):
            raise ValueError("attitudes must share one agenda")

    @property
    def agenda(self) -> Agenda:
        return self.attitudes[0].agenda

    @property
    def electorate(self) -> int:
        return len(self.attitudes)


def projection_criterion(algebra: FiniteAlgebra, electorate: int, voter: int) -> DecisionCriterion:
    if not 0 <= voter < electorate:
        raise ValueError("voter index out of range")
    values = tuple(
        coords[voter]
        for coords in product(range(algebra.size), repeat=electorate)
    )
    return DecisionCriterion(algebra, electorate, values)


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


def enumerate_rational_attitudes(agenda: Agenda) -> tuple[AttitudeFunction, ...]:
    """All distinct rational attitude functions, in order of their least
    witnessing valuation."""
    return tuple(AttitudeFunction(agenda, values) for values, _ in agenda.rational)


def enumerate_rational_profiles(
    agenda: Agenda, electorate: int, budget: int = DEFAULT_BUDGET
) -> tuple[Profile, ...]:
    """All rational profiles, voter 0's attitude most significant. The checks
    below walk them one at a time (``_rational_profiles``) and keep none."""
    _refuse_profiles_past_the_cap(agenda, electorate, budget)
    return tuple(_rational_profiles(agenda, electorate))


def _rational_profiles(agenda: Agenda, electorate: int):
    """The rational profiles in enumerate_rational_profiles order, built one
    at a time."""
    return map(Profile, product(enumerate_rational_attitudes(agenda), repeat=electorate))


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
    and evaluates the whole agenda. Each witness is checked to equal its
    variable at every valuation, so the returned attitude takes value a_j on
    delta_j.
    """
    deltas, (attitude,) = _attitudes_with_values(agenda, len(targets), [targets])
    return deltas, attitude


def _attitudes_with_values(
    agenda: Agenda, m: int, target_rows: Sequence[Sequence[int]]
) -> tuple[tuple[Formula, ...], list[AttitudeFunction]]:
    """The first m witnesses, checked once to track their variables, and per
    row of m targets the attitude ``rational_attitude_with_values`` builds."""
    level, witnesses = pseudo_richness(agenda)
    if level < m:
        raise ValueError(f"agenda is only {level}-pseudo-rich, need {m}")
    if not _within(list(chain.from_iterable(target_rows)), agenda.algebra.size):
        raise ValueError("targets outside the carrier")
    chosen = witnesses[:m]
    _tracking_variables(agenda, chosen)
    attitudes = []
    for targets in target_rows:
        valuation = {name: 0 for name in agenda.variables}
        for (_, var), target in zip(chosen, targets):
            valuation[var] = target
        values = tuple(evaluate(f, valuation, agenda.algebra) for f in agenda.formulas)
        attitudes.append(AttitudeFunction(agenda, values))
    return tuple(delta for delta, _ in chosen), attitudes


def _tracking_variables(agenda: Agenda, witnesses: Sequence[tuple[Formula, str]]) -> None:
    """Check that each witness formula equals its variable at every valuation
    of the agenda's variables and the witnesses' (on degenerate matrices not
    always in the agenda), as selfextensionality makes it in Alg S."""
    variables = tuple(sorted({*agenda.variables, *(var for _, var in witnesses)}))
    pairs = [g for delta, var in witnesses for g in (delta, Var(var))]
    vectors = truth_vectors(pairs, variables, agenda.algebra)
    if vectors[0::2] != vectors[1::2]:
        raise ValueError(
            "pseudo-rich witness does not track its variable; "
            "is the matrix a selfextensional presentation?"
        )


# ---------------------------------------------------------------------------
# Aggregators
# ---------------------------------------------------------------------------


@frozen
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


@frozen
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


Aggregator = Union[CriterionAggregator, ExtensionalAggregator]


# ---------------------------------------------------------------------------
# Property checks: the definitions, one domain profile at a time
# ---------------------------------------------------------------------------


@frozen
class RationalityReport:
    universal: bool
    rational: bool
    missing_profile: Optional[Profile]
    irrational_witness: Optional[tuple[Profile, AttitudeFunction]]

    @property
    def both(self) -> bool:
        return self.universal and self.rational


@frozen
class SystematicityResult:
    holds: bool
    level: str
    depth: int
    criterion: Optional[dict[tuple[int, ...], int]]
    conflict: Optional[str]


def _systematicity_fragment(aggregator: Aggregator, level: str, depth: int, budget: int):
    """The formulas a check at ``level`` reads and each rational attitude's
    values on them, in ``Agenda.rational`` order, after the refusals: the
    rational-profile cap for a criterion aggregator (its domain), the closure
    layers at the strong level, then the systematicity budget."""
    agenda, n = aggregator.agenda, aggregator.electorate
    induced = isinstance(aggregator, CriterionAggregator)
    if induced:
        _refuse_profiles_past_the_cap(agenda, n, budget)
    if level == STRONGLY_SYSTEMATIC:
        fragment, extensions = _fragment_and_extensions(agenda, depth, budget)
    else:  # on the agenda, a rational attitude is its own extension
        fragment, extensions = agenda.formulas, tuple(values for values, _ in agenda.rational)
    domain = len(agenda.rational) ** n if induced else len(aggregator.table)
    refuse(budget, "systematicity check", (domain, "profiles"), (len(fragment), "formulas"))
    return fragment, extensions


def check_rational_universal(
    aggregator: Aggregator, budget: int = DEFAULT_BUDGET
) -> RationalityReport:
    """Universality: every rational profile is in the domain. Rationality:
    every output on a rational domain profile is itself rational. Exhaustive
    over the rational profiles of the agenda; the missing profile and the
    irrational witness are the first in rational-profile order."""
    agenda, n = aggregator.agenda, aggregator.electorate
    _refuse_profiles_past_the_cap(agenda, n, budget)
    rational = dict(agenda.rational)
    # an explicit table's output, None off its domain; a criterion aggregator's domain is all
    output_of = (aggregator._lookup.get if isinstance(aggregator, ExtensionalAggregator)
                 else aggregator.apply)
    missing = witness = None
    for profile in _rational_profiles(agenda, n):
        output = output_of(profile)
        if output is None:
            missing = missing or profile
        elif witness is None and output.values not in rational:
            witness = profile, output
    return RationalityReport(missing is None, witness is None, missing, witness)


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
    fragment, extensions = _systematicity_fragment(aggregator, level, depth, budget)
    agenda = aggregator.agenda
    extension = dict(zip((values for values, _ in agenda.rational), extensions))
    # the agenda formulas' fragment numbers and their positions in an attitude, in fragment order
    agenda_nums = [f_num for f_num, formula in enumerate(fragment) if formula in agenda.index]
    agenda_part = [agenda.index[fragment[f_num]] for f_num in agenda_nums]
    independent = level == INDEPENDENT
    # the domain's (profile, output) pairs in order: an explicit table's rows, or else
    # each rational profile with its output
    domain = aggregator.table if isinstance(aggregator, ExtensionalAggregator) else (
        (profile, aggregator.apply(profile))
        for profile in _rational_profiles(agenda, aggregator.electorate))
    ledger = {}  # voters' tuple (with the fragment number if independent) -> where first set
    for p_num, (profile, output) in enumerate(domain):
        attitudes = [a.values for a in (*profile.attitudes, output)]
        rows, nums = [extension.get(values) for values in attitudes], range(len(fragment))
        if None in rows:  # closure values need every attitude rational, else the agenda part
            rows, nums = [_gather(values, agenda_part) for values in attitudes], agenda_nums
        for f_num, column in zip(nums, zip(*rows)):
            voters, value = column[:-1], column[-1]
            prior, first_profile, first_num = ledger.setdefault(
                (voters, f_num) if independent else voters, (value, p_num, f_num))
            if prior != value:
                return SystematicityResult(False, level, depth, None, (
                    f"tuple {voters}: value {prior} from profile {first_profile} at "
                    f"{formula_sort_key(fragment[first_num])} vs value {value} from profile "
                    f"{p_num} at {formula_sort_key(fragment[f_num])}"))
    return SystematicityResult(True, level, depth, {
        (key[0], fragment[key[1]]) if independent else key: value
        for key, (value, _, _) in ledger.items()}, None)


# ---------------------------------------------------------------------------
# The two directions of the characterization
# ---------------------------------------------------------------------------


def witness_attitudes(agenda: Agenda) -> tuple[Formula, dict[int, AttitudeFunction]]:
    """The first pseudo-richness witness and, for each carrier value b, the
    rational attitude that sets the witness's variable to b and every other
    variable to 0 (``rational_attitude_with_values``)."""
    if not pseudo_richness(agenda)[0]:
        raise ValueError("agenda is not even 1-pseudo-rich")
    (witness,), attitudes = _attitudes_with_values(
        agenda, 1, [[b] for b in range(agenda.algebra.size)])
    return witness, dict(enumerate(attitudes))


def criterion_from_aggregator(
    aggregator: Aggregator, depth: int = 1, budget: int = DEFAULT_BUDGET
) -> DecisionCriterion:
    """Extract the total decision criterion of a rational, universal,
    strongly systematic aggregator, and verify it is a homomorphism.

    The criterion is the strong-systematicity ledger, read in row-major
    voter-tuple order; a rational profile must attain each tuple. Every
    refusal comes first: the rational-profile cap, the closure layers, then
    the systematicity budget. A criterion aggregator is checked on its whole
    rank table at once (``_extends_everywhere``), and its ledger is then the
    criterion at the table's ranks in first-occurrence order; an explicit
    table, or a criterion failing that check, is checked profile by profile
    (``check_rational_universal``, ``check_systematicity``). The
    preconditions are verified, not assumed; the final homomorphism
    assertion failing signals a non-qualifying aggregator (or a bug) and raises.
    """
    agenda, n = aggregator.agenda, aggregator.electorate
    algebra = agenda.algebra
    _refuse_profiles_past_the_cap(agenda, n, budget)
    _, extensions = _systematicity_fragment(aggregator, STRONGLY_SYSTEMATIC, depth, budget)
    ledger = None
    if isinstance(aggregator, CriterionAggregator):
        table, ranks = aggregator.criterion.values, _voter_ranks(algebra.size, n, extensions)
        if _extends_everywhere(table, ranks, extensions):
            ledger = {element_coordinates(algebra.size, n, key): table[key]
                      for key in ranks.first_occurrences}
    if ledger is None:
        report = check_rational_universal(aggregator, budget)
        if not report.both:
            raise NotQualifyingError("aggregator is not universal+rational: "
                                     f"universal={report.universal} rational={report.rational}")
        strong = check_systematicity(aggregator, STRONGLY_SYSTEMATIC, depth, budget)
        if not strong.holds:
            raise NotQualifyingError(f"aggregator is not strongly systematic: {strong.conflict}")
        ledger = strong.criterion

    values = tuple(map(ledger.get, product(range(algebra.size), repeat=n)))
    if None in values:
        unattained = element_coordinates(algebra.size, n, values.index(None))
        raise NotQualifyingError(f"no rational profile attains the voter tuple {unattained}")
    criterion = DecisionCriterion(algebra, n, values)
    violation = criterion.homomorphism_violation()
    if violation:
        symbol, args = violation
        raise NotQualifyingError(f"extracted criterion is not a homomorphism (fails at {symbol} "
                                 f"on {args}); the aggregator does not qualify")
    return criterion


def aggregator_from_criterion(
    criterion: DecisionCriterion, agenda: Agenda
) -> CriterionAggregator:
    """Lift a homomorphism voter-power -> values to the induced aggregator on
    all rational profiles. Rejects non-homomorphic criteria."""
    aggregator = CriterionAggregator(criterion, agenda)  # refuses different algebras first
    violation = criterion.homomorphism_violation()
    if violation:
        symbol, args = violation
        raise ValueError(f"criterion is not a homomorphism (fails at {symbol} on {args})")
    return aggregator
