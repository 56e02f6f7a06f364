"""Brute-force oracles: the definitions restated as loops over valuations
and frames.

The tests check the fast kernels against these. No command calls them, and no
other module of the package imports this one. ``entails`` and ``interderivable``
evaluate each formula at each valuation with ``evaluate``, and so share no code
with the truth-vector layer they check. ``is_consistent`` is no loop of
its own: it runs the modal search to the given bound, with no small-model cut,
and the tests check it against the frames ``reflexive_frames`` lists and
``modal.small_model_bound`` against it. ``modal.certify_implication_bottom``
runs the same uncut search; the tests check it against ``evaluate`` in every
labelled frame algebra (``modal.bao_from_frame``). ``syntax.bounded_closure``
is an oracle too, but stays in ``syntax``: the benchmark harness
(``perfbench``) traces it there and at every module that binds it.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Optional, Sequence

from .aggregation import AttitudeFunction
from .algebra import FiniteAlgebra, evaluate
from .modal import ConsistencyWitness, KripkeFrame, _compile_set, _frame_from_mask, _search
from .semantics import Matrix
from .syntax import Formula, variables_of


def all_valuations(variables: Sequence[str], algebra: FiniteAlgebra):
    """All assignments of carrier indices to the given variables, in
    lexicographic order of the value tuples (variables as given)."""
    for values in product(range(algebra.size), repeat=len(variables)):
        yield dict(zip(variables, values))


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


def entails(
    matrix: Matrix, premises: Iterable[Formula], conclusion: Formula
) -> bool:
    """Semantic consequence over the matrix, quantifying over valuations of
    the variables that occur in the premises or the conclusion, each formula
    evaluated at each valuation by ``evaluate``."""
    premises = tuple(premises)
    algebra = matrix.algebra
    for valuation in all_valuations(variables_of(*premises, conclusion), algebra):
        values = [evaluate(p, valuation, algebra) for p in premises]
        c = evaluate(conclusion, valuation, algebra)
        if matrix.designated is None:
            for a in range(algebra.size):
                if all((a, v) in algebra.order for v in values) and (a, c) not in algebra.order:
                    return False
        elif all(v in matrix.designated for v in values) and c not in matrix.designated:
            return False
    return True


def interderivable(matrix: Matrix, left: Formula, right: Formula) -> bool:
    return entails(matrix, [left], right) and entails(matrix, [right], left)


def reflexive_frames(worlds: int) -> list[KripkeFrame]:
    """All reflexive frames on the given world count, in a fixed order:
    subsets of the off-diagonal pairs by binary counting over the pairs in
    lexicographic order."""
    return [_frame_from_mask(worlds, mask) for mask in range(1 << worlds * (worlds - 1))]


def is_consistent(
    formulas: Iterable[Formula], max_worlds: int
) -> tuple[bool, Optional[ConsistencyWitness]]:
    """Is there a reflexive frame with at most max_worlds worlds, a valuation
    and a world making every formula true there?

    Search is deterministic: frames by size then relation order, valuations
    in lexicographic order over sorted variables, worlds ascending; the first
    witness is returned. A False verdict means "no model within the bound".

    Only the least frame of each isomorphism class is visited. That finds
    the same first witness: isomorphic frames satisfy the same formulas, so
    the first frame with a model is the least of its class.

    The search is exhaustive up to max_worlds, with no small-model cut: it
    is the oracle small_model_bound is checked against, and refuses
    6 worlds or more (MAX_FRAMES).
    """
    return _search(_compile_set(formulas), max_worlds)
