"""Matrix-presented consequence relations and their metalogical checks.

A logic is given here as a finite matrix: an algebra of truth values plus
either a set of designated values ("filter" mode: premises designated force
the conclusion designated) or none, and then the algebra's partial order
("degree" mode: every lower bound of the premises is a lower bound of the
conclusion).
Entailment, interderivability and the congruence property are decided by
exhaustive quantification over valuations of the occurring variables, so
every verdict is exact on the fragment it inspects: failures are
conclusive, successes are "no counterexample within the bound".
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .algebra import DEFAULT_BUDGET, FiniteAlgebra, closure_vectors, refuse, truth_vectors
from .record import frozen
from .syntax import App, Formula, Var, variables_of
from .syntax import bounded_closure  # noqa: F401 (traced binding)


@frozen
class Matrix:
    """A finite algebra together with a notion of "holding": a nonempty
    designated subset of the carrier (filter mode), or with ``designated``
    None the algebra's partial order, which must be present (degree mode).
    """

    algebra: FiniteAlgebra
    designated: Optional[frozenset[int]] = None

    def __post_init__(self):
        if self.designated is None:
            if self.algebra.order is None:
                raise ValueError("degree mode requires an algebra with a lattice order")
        elif not self.designated:
            raise ValueError("filter mode needs a nonempty designated set")
        elif any(not (0 <= d < self.algebra.size) for d in self.designated):
            raise ValueError("designated values outside the carrier")

    def describe(self) -> str:
        if self.designated is None:
            return f"{self.algebra.name or 'algebra'}/degree-preserving"
        labels = sorted(self.algebra.label(d) for d in self.designated)
        return f"{self.algebra.name or 'algebra'}/designated {labels}"


def entails(
    matrix: Matrix, premises: Iterable[Formula], conclusion: Formula
) -> bool:
    """Semantic consequence over the matrix, quantifying over valuations of
    the variables that occur in the premises or the conclusion."""
    premises = tuple(premises)
    names = variables_of(*premises, conclusion)
    algebra = matrix.algebra
    *vectors, conclusion_vector = truth_vectors((*premises, conclusion), names, algebra)
    for w, c in enumerate(conclusion_vector):
        values = [vec[w] for vec in vectors]
        if matrix.designated is None:
            for a in range(algebra.size):
                if all(algebra.leq(a, v) for v in values) and not algebra.leq(a, c):
                    return False
        elif all(v in matrix.designated for v in values) and c not in matrix.designated:
            return False
    return True


def interderivable(matrix: Matrix, left: Formula, right: Formula) -> bool:
    return entails(matrix, [left], right) and entails(matrix, [right], left)


# ---------------------------------------------------------------------------
# Congruence property (selfextensionality)
# ---------------------------------------------------------------------------


def _holding_pattern(matrix: Matrix) -> list[int]:
    """What "holding" records of each value: filter mode one bit (designated
    or not), degree mode the value itself (in a partial order, two values
    with the same lower bounds are equal)."""
    if matrix.designated is None:
        return list(range(matrix.algebra.size))
    return [int(b in matrix.designated) for b in range(matrix.algebra.size)]


@frozen
class CongruenceWitness:
    """A connective application that breaks the congruence property:
    the two argument lists are componentwise interderivable, the results
    are not."""

    connective: str
    left_args: tuple[Formula, ...]
    right_args: tuple[Formula, ...]

    @property
    def left_result(self) -> Formula:
        return App(self.connective, self.left_args)

    @property
    def right_result(self) -> Formula:
        return App(self.connective, self.right_args)


def check_selfextensionality(
    matrix: Matrix,
    variables: Sequence[str],
    depth: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[bool, Optional[CongruenceWitness]]:
    """Search the depth-bounded fragment for a congruence violation.

    Interderivability of fragment formulas is decided by their holding
    pattern over all valuations; formulas with identical truth vectors can
    never yield a violation, so the search runs over distinct truth vectors
    grouped by holding pattern, swapping one argument position at a time
    (one-position swaps compose to arbitrary componentwise-equivalent
    argument tuples). Failure is conclusive; success means no counterexample
    at this depth.
    """
    algebra = matrix.algebra
    names = sorted(variables)
    n_valuations = algebra.size ** len(names)
    # least formula per distinct truth vector, shortest first, then by text
    rep = closure_vectors(map(Var, variables), names, algebra, depth,
                          key=lambda text: (len(text), text), budget=budget)
    vectors = list(rep)

    pattern = _holding_pattern(matrix)

    def key(vec: tuple[int, ...]) -> tuple:
        """Holding pattern; in degree mode it is the vector itself."""
        return tuple(map(pattern.__getitem__, vec))

    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for vec in vectors:
        classes.setdefault(key(vec), []).append(vec)

    pairs = [pair for members in classes.values() for pair in combinations(members, 2)]
    if not pairs:
        return True, None

    for symbol, arity in algebra.signature.connectives:
        if arity == 0:
            continue
        refuse(budget, f"congruence check of {symbol!r}", (len(pairs), "vector pairs"),
               (arity, "positions"), ((len(vectors), arity - 1), "other arguments"))
        for u, w in pairs:
            for position in range(arity):
                for others in product(vectors, repeat=arity - 1):
                    args_u = others[:position] + (u,) + others[position:]
                    args_w = others[:position] + (w,) + others[position:]
                    res_u = algebra.op_on_vectors(symbol, args_u, n_valuations)
                    res_w = algebra.op_on_vectors(symbol, args_w, n_valuations)
                    if key(res_u) != key(res_w):
                        witness = CongruenceWitness(
                            connective=symbol,
                            left_args=tuple(rep[a] for a in args_u),
                            right_args=tuple(rep[a] for a in args_w),
                        )
                        return False, witness
    return True, None
