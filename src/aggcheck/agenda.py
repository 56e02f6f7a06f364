"""Agendas and their structural properties.

An agenda is the finite set of formulas individuals hold attitudes on,
together with its ambient logic (a matrix) and truth-value algebra. Its
rational attitudes are decided once per agenda (``Agenda.rational``).
"""

from __future__ import annotations

from functools import cached_property
from operator import eq
from typing import Collection, Optional

from .algebra import FiniteAlgebra, truth_vectors
from .record import frozen
from .semantics import Matrix
from .syntax import (
    Formula,
    Signature,
    Var,
    formula_sort_key,
    validate_formula,
    variables_of,
)


@frozen
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

    @cached_property
    def variables_and_image_sizes(self) -> dict[Formula, tuple[Optional[str], int]]:
        """Each formula's equivalent_variable and the count of distinct values it
        takes in the truth-value algebra, in agenda order, decided once."""
        return {f: _variable_and_image_size(f, self) for f in self.formulas}

    @cached_property
    def rational(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """Distinct rational attitude value-tuples with the index (into valuation
        order) of their least witnessing valuation."""
        vectors = truth_vectors(self.formulas, self.variables, self.algebra)
        if not vectors:  # no formulas, no variables: one valuation, one empty row
            return (((), 0),)
        rows: dict[tuple[int, ...], int] = {}
        for w, row in enumerate(zip(*vectors)):
            rows.setdefault(row, w)
        return tuple(rows.items())

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


def _fresh_variable(agenda: Agenda, used: Collection[str] = ()) -> str:
    """The first of x_fresh, x_fresh1, ... that is neither a connective, an agenda
    variable nor in ``used``."""
    taken = {*agenda.variables, *used}
    k = 0
    while (name := f"x_fresh{k or ''}") in agenda.signature or name in taken:
        k += 1
    return name


def equivalent_variable(formula: Formula, agenda: Agenda) -> Optional[str]:
    """A variable equivalent to the formula: the first of its own variables whose
    values hold as its values do at every valuation, else a fresh variable if that
    qualifies, else None. A fresh variable takes every value at every valuation,
    so it qualifies exactly when every value holds alike (a filter matrix
    designating its whole carrier, or a one-element carrier)."""
    return _variable_and_image_size(formula, agenda)[0]


def _variable_and_image_size(formula: Formula, agenda: Agenda) -> tuple[Optional[str], int]:
    """The formula's equivalent_variable, and how many distinct values its truth
    vector over its own variables takes in the agenda's truth-value algebra. The
    matrix's vector is counted when the two algebras are one; else one is built."""
    matrix = agenda.matrix
    names = variables_of(formula)
    vector, *others = truth_vectors([formula, *map(Var, names)], names, matrix.algebra)
    image_size = len(set(vector if agenda.algebra == matrix.algebra
                         else truth_vectors([formula], names, agenda.algebra)[0]))
    pattern = matrix.pattern(vector)
    for name, other in zip(names, others):  # up to the first valuation they differ at
        if all(map(eq, pattern, map(matrix.holding.__getitem__, other))):
            return name, image_size
    if len(set(matrix.holding)) == 1:  # only a variable-free formula gets here then
        return _fresh_variable(agenda), image_size
    return None, image_size


def pseudo_richness(agenda: Agenda) -> tuple[int, tuple[tuple[Formula, str], ...]]:
    """Largest n such that the agenda is n-pseudo-rich, with witnesses.

    Greedy selection in lexicographic formula order is maximal because each
    formula is equivalent to at most one variable, its own equivalent_variable,
    unless every value holds alike (``Matrix.holding`` takes one value). Then
    every formula is equivalent to every variable, so each takes its first
    unused own variable, else a fresh one, and the level is the agenda's size.
    """
    witnesses: list[tuple[Formula, str]] = []
    used: set[str] = set()
    alike = len(set(agenda.matrix.holding)) == 1
    for f in sorted(agenda.formulas, key=formula_sort_key):
        if alike:
            own = [v for v in variables_of(f) if v not in used]
            name = own[0] if own else _fresh_variable(agenda, used)
        else:
            name = agenda.variables_and_image_sizes[f][0]
        if name is not None and name not in used:
            used.add(name)
            witnesses.append((f, name))
    return len(witnesses), tuple(witnesses)


def is_strictly_contingent(formula: Formula, algebra: FiniteAlgebra) -> bool:
    """True iff the formula's evaluation image covers the whole carrier."""
    return len(set(truth_vectors([formula], variables_of(formula), algebra)[0])) == algebra.size


def strictly_contingent_formulas(agenda: Agenda) -> tuple[Formula, ...]:
    """The agenda's strictly contingent formulas in its truth-value algebra, in
    formula order, read off the image sizes counted with the equivalent variables."""
    sizes = agenda.variables_and_image_sizes
    return tuple(f for f in sorted(agenda.formulas, key=formula_sort_key)
                 if sizes[f][1] == agenda.algebra.size)
