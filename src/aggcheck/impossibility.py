"""Boolean specialization: decisive coalitions, ultrafilters, dictators.

Over the two-element algebra, a decision criterion determines the family of
coalitions it deems decisive; the criterion is a homomorphism exactly when
that family is an ultrafilter, which on a finite electorate is principal,
i.e. generated by one voter — the dictator.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .aggregation import DecisionCriterion, projection_criterion
from .algebra import element_coordinates
from .record import frozen


@frozen
class UltrafilterView:
    """The decisive-coalition family of a two-valued decision criterion."""

    electorate: int
    decisive: frozenset[frozenset[int]]


def decisive_coalitions(criterion: DecisionCriterion) -> UltrafilterView:
    """Coalitions whose characteristic tuple the criterion maps to 1."""
    if criterion.algebra.size != 2:
        raise ValueError("decisive coalitions are defined over a 2-element carrier")
    n = criterion.electorate
    return UltrafilterView(n, frozenset(
        frozenset(i for i, c in enumerate(element_coordinates(2, n, rank)) if c)
        for rank, value in enumerate(criterion.values) if value == 1
    ))


@frozen
class UltrafilterCheck:
    is_ultrafilter: bool
    is_filter: bool
    violations: tuple[tuple[str, str], ...]
    oligarchs: Optional[frozenset[int]]


def is_ultrafilter(view: UltrafilterView) -> UltrafilterCheck:
    """Check properness, upward closure, intersection closure, maximality.

    All violations are reported (axiom name plus witness). When the family is
    a proper filter but not maximal, the intersection of all decisive
    coalitions is reported as the oligarchs.
    """
    n = view.electorate
    everyone = frozenset(range(n))
    family = view.decisive
    members = sorted(family, key=sorted)
    violations: list[tuple[str, str]] = []
    # the first witness against each axiom, in a fixed order
    if frozenset() in family:
        violations.append(("properness", "the empty coalition is decisive"))
    upward = next(((c, c | {x}) for c in members for x in range(n) if c | {x} not in family), None)
    if upward:
        small, big = upward
        violations.append(("upward closure", f"{sorted(small)} decisive but {sorted(big)} is not"))
    meet = next(((a, b) for a, b in combinations(members, 2) if a & b not in family), None)
    if meet:
        a, b = meet
        violations.append(
            ("intersection", f"{sorted(a)} ∩ {sorted(b)} = {sorted(a & b)} is not decisive")
        )
    coalitions = (frozenset(i for i in range(n) if mask >> i & 1) for mask in range(1 << n))
    split = next(
        ((c, k) for c in coalitions if (k := (c in family) + (everyone - c in family)) != 1), None
    )
    if split:
        c, inside = split
        both = "both" if inside == 2 else "neither"
        violations.append(("maximality", f"{both} of {sorted(c)} and its complement are decisive"))

    is_filter = bool(family) and frozenset() not in family and not upward and not meet
    oligarchs = frozenset.intersection(*members) if is_filter and split else None
    return UltrafilterCheck(
        is_ultrafilter=not violations,
        is_filter=is_filter,
        violations=tuple(violations),
        oligarchs=oligarchs,
    )


def classify_dictator(criterion: DecisionCriterion) -> Optional[int]:
    """The first voter the criterion projects onto, None if there is none.
    Every projection is a homomorphism; over the Boolean signature every
    homomorphism is a projection, onto exactly one voter."""
    if criterion.algebra.size != 2:
        raise ValueError("dictator classification is defined over a 2-element carrier")
    n = criterion.electorate
    return next((voter for voter in range(n) if criterion.values
                 == projection_criterion(criterion.algebra, n, voter).values), None)
