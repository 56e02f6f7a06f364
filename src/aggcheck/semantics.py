"""Matrix-presented consequence relations and their metalogical checks.

A logic is given here as a finite matrix: an algebra of truth values plus
either a set of designated values ("filter" mode: premises designated force
the conclusion designated) or none, and then the algebra's partial order
("degree" mode: every lower bound of the premises is a lower bound of the
conclusion).
Every verdict quantifies over all valuations of the occurring variables, so it
is exact on the fragment it inspects: failures are conclusive, successes are
"no counterexample within the bound". Interderivability is decided by holding
patterns (``Matrix.holding``). The brute-force loops ``entails`` and
``interderivable``, which that decision is tested against, live in ``oracles``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Optional, Sequence

from .algebra import DEFAULT_BUDGET, FiniteAlgebra, closure_vectors, refuse
from .record import frozen
from .syntax import App, Formula, Var
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

    @cached_property
    def holding(self) -> tuple[int, ...]:
        """What "holding" records of each value: filter mode one bit (designated
        or not), degree mode the value itself (in a partial order, two values
        with the same lower bounds are equal)."""
        if self.designated is None:
            return tuple(range(self.algebra.size))
        return tuple(int(b in self.designated) for b in range(self.algebra.size))

    def pattern(self, vector: Sequence[int]) -> tuple[int, ...]:
        """A truth vector's holding pattern: what holding records at each valuation."""
        return tuple(map(self.holding.__getitem__, vector))

    def describe(self) -> str:
        if self.designated is None:
            return f"{self.algebra.name or 'algebra'}/degree-preserving"
        labels = sorted(self.algebra.label(d) for d in self.designated)
        return f"{self.algebra.name or 'algebra'}/designated {labels}"


# ---------------------------------------------------------------------------
# Congruence property (selfextensionality)
# ---------------------------------------------------------------------------


@frozen
class CongruenceWitness:
    """A connective application that breaks the congruence property:
    the two argument lists hold alike componentwise, the results do not."""

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
    argument tuples), each class's first member against each later member.
    Holding alike is an equivalence, so where two later members break the
    congruence, one of them breaks it with the first member at the same
    arguments. That pair comes earlier in the all-pairs order, so comparing
    every pair would find the same first witness. Failure is conclusive;
    success means no counterexample at this depth.

    Where holding tells every value apart (degree mode, or a filter that
    designates one of two values), distinct vectors hold differently, so
    every class has one member, no pair is left to swap, and the answer is
    True at every depth without building the closure.
    """
    if len(set(matrix.holding)) == len(matrix.holding):
        return True, None
    algebra = matrix.algebra
    names = sorted(variables)
    n_valuations = algebra.size ** len(names)
    # least formula per distinct truth vector, shortest first, then by text
    rep = closure_vectors(map(Var, variables), names, algebra, depth, budget=budget)
    vectors = list(rep)

    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for vec in vectors:
        classes.setdefault(matrix.pattern(vec), []).append(vec)

    pairs = [(first, w) for first, *later in classes.values() for w in later]

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
                    if matrix.pattern(res_u) != matrix.pattern(res_w):
                        witness = CongruenceWitness(
                            connective=symbol,
                            left_args=tuple(rep[a] for a in args_u),
                            right_args=tuple(rep[a] for a in args_w),
                        )
                        return False, witness
    return True, None
