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

from collections import defaultdict
from functools import cached_property
from itertools import count, product, repeat
from typing import Optional, Sequence, Union

from .agenda import Agenda, pseudo_richness
from .algebra import (
    DEFAULT_BUDGET,
    DecisionCriterion,
    FiniteAlgebra,
    element_coordinates,
    evaluate,
    product_element_index,
    refuse,
    truth_vectors,
)
from .census import (
    _fragment_and_extensions,
    _gather,
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
        size = self.agenda.algebra.size
        if any(not (0 <= v < size) for v in self.values):
            raise ValueError("attitude values outside the carrier")


@frozen
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
    below build none: they number the rational profiles and read a criterion
    aggregator's outputs off their rank table."""
    _refuse_profiles_past_the_cap(agenda, electorate, budget)
    attitudes = enumerate_rational_attitudes(agenda)
    return tuple(Profile(combo) for combo in product(attitudes, repeat=electorate))


def _rational_profile(agenda: Agenda, electorate: int, number: int) -> Profile:
    """The rational profile at ``number`` in enumerate_rational_profiles
    order: voter i's attitude is the number's i-th base-|rational| digit,
    voter 0 most significant."""
    attitudes = enumerate_rational_attitudes(agenda)
    coords = element_coordinates(len(attitudes), electorate, number)
    return Profile(tuple(attitudes[i] for i in coords))


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
    size = agenda.algebra.size
    if any(not (0 <= t < size) for targets in target_rows for t in targets):
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
# Property checks: one pass over the aggregator's domain
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


def _ranked_rows(aggregator, extension, positions, size):
    """(its profile's number among the rational profiles, its voters' tuple
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
        yield number, attained, output.values


def _extends_everywhere(table, ranks, extensions) -> bool:
    """Whether the criterion ``table`` gives each rational profile, over the
    fragment, a row of outputs that is some rational attitude's extension.

    If so, that attitude is the row's agenda part, the profile's output, so
    every output is rational with the row as its extension, and every strong
    systematicity constraint holds: it sets the criterion's own value at a
    rank. One C-level pass over the rank table's columns decides it.
    """
    return set(extensions).issuperset(zip(*[_gather(table, column) for column in ranks.columns]))


def _one_pass(
    aggregator: Aggregator,
    budget: int,
    level: Optional[str] = None,
    depth: int = 1,
    rationality: bool = True,
) -> tuple[Optional[RationalityReport], Optional[SystematicityResult]]:
    """Read the aggregator's output on each profile of its domain once, in
    domain order, and feed it to every check asked for: universality and
    rationality over the rational profiles (``rationality``), and
    systematicity at ``level`` over the whole domain (None skips it).

    Every refusal comes before the first output is read: the
    rational-profile cap (for a criterion aggregator, its domain's), the
    closure layers, then the systematicity budget. A rational profile's
    voters' tuple ranks come from a table shared by every pass over the same
    profiles and fragment; a criterion aggregator's outputs are read off
    that table. At the strong level a criterion aggregator is first checked
    on the whole table at once (``_extends_everywhere``); only when that
    check fails are the rows read one by one, so every witness and conflict
    is the loop's. Each row carries its rational profile's number, and a
    profile is built from its number only to report an irrational witness or
    a missing profile.

    The systematicity constraints met so far are one ledger: ``value_of``
    maps a voters' tuple rank (paired with the fragment number at the
    independent level) to its output value, None if unset, and ``origin``
    maps it to the profile and fragment number where it first occurs.
    """
    agenda, n = aggregator.agenda, aggregator.electorate
    size = agenda.algebra.size
    induced = isinstance(aggregator, CriterionAggregator)  # its domain: the rational profiles
    if rationality or induced:
        _refuse_profiles_past_the_cap(agenda, n, budget)
    rational = tuple(values for values, _ in agenda.rational)
    domain = len(rational) ** n if induced else len(aggregator.table)
    if level == STRONGLY_SYSTEMATIC:
        fragment, extensions = _fragment_and_extensions(agenda, depth, budget)
    else:  # on the agenda, a rational attitude is its own extension
        fragment, extensions = agenda.formulas, rational
    if level is not None:
        refuse(budget, "systematicity check", (domain, "profiles"), (len(fragment), "formulas"))
    extension = dict(zip(rational, extensions))  # each rational attitude's fragment values
    positions = [agenda.index.get(formula) for formula in fragment]
    if induced:  # its output at a fragment formula: the criterion at that formula's rank
        table, ranks = aggregator.criterion.values, _voter_ranks(size, n, extensions)
        if level == STRONGLY_SYSTEMATIC and _extends_everywhere(table, ranks, extensions):
            ledger = {element_coordinates(size, n, key): table[key]  # as the loop would set it
                      for key in ranks.first_occurrences}
            return (RationalityReport(True, True, None, None) if rationality else None,
                    SystematicityResult(True, level, depth, ledger, None))
        columns = [fragment.index(formula) for formula in agenda.formulas]
        # each profile's ranks; with no fragment formulas, an empty row per profile
        ranked = zip(*ranks.columns) if ranks.columns else repeat((), domain)
        rows = ((number, attained, tuple([table[attained[c]] for c in columns]))
                for number, attained in enumerate(ranked))
    else:
        rows = _ranked_rows(aggregator, extension, positions, size)

    agenda_nums = [f_num for f_num, pos in enumerate(positions) if pos is not None]
    independent = level == INDEPENDENT
    value_of = defaultdict(lambda: None)
    origin = {}
    conflict = None
    rational_rows = 0
    irrational = None  # (number, output): the least rational profile aggregated irrationally
    for p_num, (number, attained, output) in enumerate(rows):
        closure = extension.get(output)
        if number is not None:
            rational_rows += 1
            if closure is None and (irrational is None or number < irrational[0]):
                irrational = (number, output)
        if level is None or conflict:
            continue
        # closure values need every attitude rational, else the agenda part only
        if number is not None and closure is not None:
            if not independent and _gather(value_of, attained) == closure:
                continue  # a row held at its ranks adds nothing
            nums, values = range(len(fragment)), closure
        else:
            nums, values = agenda_nums, [output[positions[f_num]] for f_num in agenda_nums]
        for f_num, value in zip(nums, values):
            key = (attained[f_num], f_num) if independent else attained[f_num]
            prior = value_of[key]
            if prior is None:
                value_of[key], origin[key] = value, (p_num, f_num)
            elif prior != value:
                first_profile, first_num = origin[key]
                conflict = (
                    f"tuple {element_coordinates(size, n, attained[f_num])}: value {prior} "
                    f"from profile {first_profile} at {formula_sort_key(fragment[first_num])} "
                    f"vs value {value} from profile {p_num} at "
                    f"{formula_sort_key(fragment[f_num])}"
                )
                break
        if conflict and not rationality:
            break

    report = strong = None
    if rationality:
        universal = rational_rows == len(rational) ** n  # an explicit table repeats no profile
        missing = None
        if not universal:  # only an explicit table misses one: its least absent number
            numbers = {row[0] for row in _ranked_rows(aggregator, extension, positions, size)}
            missing = _rational_profile(agenda, n, next(i for i in count() if i not in numbers))
        witness = None if irrational is None else (
            _rational_profile(agenda, n, irrational[0]), AttitudeFunction(agenda, irrational[1]))
        report = RationalityReport(universal, irrational is None, missing, witness)
    if conflict:
        strong = SystematicityResult(False, level, depth, None, conflict)
    elif level is not None:  # the constraints as a criterion, in first-occurrence order
        strong = SystematicityResult(True, level, depth, {
            (element_coordinates(size, n, key[0]), fragment[key[1]]) if independent
            else element_coordinates(size, n, key): value_of[key] for key in origin}, None)
    return report, strong


def check_rational_universal(
    aggregator: Aggregator, budget: int = DEFAULT_BUDGET
) -> RationalityReport:
    """Universality: every rational profile is in the domain. Rationality:
    every output on a rational domain profile is itself rational. Exhaustive
    over the rational profiles of the agenda; the missing profile and the
    irrational witness are the first in rational-profile order."""
    return _one_pass(aggregator, budget)[0]


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
    return _one_pass(aggregator, budget, level, depth, rationality=False)[1]


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

    The criterion is the one pass's strong-systematicity ledger, read in
    row-major voter-tuple order; a rational profile must attain each tuple.
    The preconditions are verified, not assumed; the final homomorphism
    assertion failing signals a non-qualifying aggregator (or a bug) and raises.
    """
    algebra, n = aggregator.agenda.algebra, aggregator.electorate
    report, strong = _one_pass(aggregator, budget, STRONGLY_SYSTEMATIC, depth)
    if not report.both:
        raise NotQualifyingError("aggregator is not universal+rational: "
                                 f"universal={report.universal} rational={report.rational}")
    if not strong.holds:
        raise NotQualifyingError(f"aggregator is not strongly systematic: {strong.conflict}")

    values = tuple(map(strong.criterion.get, product(range(algebra.size), repeat=n)))
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
