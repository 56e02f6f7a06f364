"""Agendas and their structural properties.

An agenda is the finite set of formulas individuals hold attitudes on,
together with its ambient logic (a matrix) and truth-value algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .algebra import FiniteAlgebra, truth_vector
from .semantics import Matrix, interderivable
from .syntax import (
    Formula,
    Signature,
    Var,
    formula_sort_key,
    validate_formula,
    variables_of,
)


@dataclass(frozen=True)
class Agenda:
    """A finite set of well-formed formulas over its matrix's signature."""

    formulas: tuple[Formula, ...]
    matrix: Matrix
    algebra: FiniteAlgebra

    def __post_init__(self):
        if len(set(self.formulas)) != len(self.formulas):
            raise ValueError("agenda formulas must be distinct")
        for f in self.formulas:
            validate_formula(f, self.signature)
        if self.algebra.signature != self.signature:
            raise ValueError("algebra signature differs from the agenda's")

    @property
    def signature(self) -> Signature:
        return self.matrix.algebra.signature

    @cached_property
    def index(self) -> dict[Formula, int]:
        return {f: i for i, f in enumerate(self.formulas)}

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return variables_of(*self.formulas)

    def __len__(self) -> int:
        return len(self.formulas)


def agenda_over(
    formulas, matrix: Matrix, algebra: Optional[FiniteAlgebra] = None
) -> Agenda:
    """Convenience constructor: the truth-value algebra defaults to the matrix's."""
    return Agenda(
        formulas=tuple(formulas),
        matrix=matrix,
        algebra=algebra if algebra is not None else matrix.algebra,
    )


def _fresh_variable(taken: set[str], sig: Signature) -> str:
    base = "x_fresh"
    name = base
    k = 0
    while name in taken or name in sig:
        k += 1
        name = f"{base}{k}"
    return name


def equivalent_variable(formula: Formula, agenda: Agenda) -> Optional[str]:
    """A variable the formula is interderivable with, if any.

    Only the formula's own variables plus one fresh variable need testing: a
    formula equivalent to a variable it does not contain would have to take
    one value everywhere, which a variable only does on one-element carriers.
    """
    candidates = list(variables_of(formula))
    candidates.append(_fresh_variable(set(candidates), agenda.signature))
    for name in candidates:
        if interderivable(agenda.matrix, formula, Var(name)):
            return name
    return None


@lru_cache(maxsize=4)
def pseudo_richness(agenda: Agenda) -> tuple[int, tuple[tuple[Formula, str], ...]]:
    """Largest n such that the agenda is n-pseudo-rich, with witnesses.

    Greedy selection in lexicographic formula order is maximal because each
    formula is interderivable with at most one variable (on carriers of size
    at least two).
    """
    witnesses: list[tuple[Formula, str]] = []
    used: set[str] = set()
    for f in sorted(agenda.formulas, key=formula_sort_key):
        name = equivalent_variable(f, agenda)
        if name is not None and name not in used:
            used.add(name)
            witnesses.append((f, name))
    return len(witnesses), tuple(witnesses)


def is_strictly_contingent(formula: Formula, algebra: FiniteAlgebra) -> bool:
    """True iff the formula's evaluation image covers the whole carrier."""
    return len(set(truth_vector(formula, variables_of(formula), algebra))) == algebra.size


def strictly_contingent_formulas(agenda: Agenda) -> tuple[Formula, ...]:
    return tuple(
        f
        for f in sorted(agenda.formulas, key=formula_sort_key)
        if is_strictly_contingent(f, agenda.algebra)
    )
