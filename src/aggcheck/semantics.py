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
from operator import ne
from typing import Optional, Sequence

from .algebra import (DEFAULT_BUDGET, FiniteAlgebra, Vector, _gather, _join, _within,
                      closure_vectors, refuse)
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
        elif not _within(self.designated, self.algebra.size):
            raise ValueError("designated values outside the carrier")

    @cached_property
    def holding(self) -> tuple[int, ...]:
        """What "holding" records of each value: filter mode one bit (designated
        or not), degree mode the value itself (in a partial order, two values
        with the same lower bounds are equal)."""
        if self.designated is None:
            return tuple(range(self.algebra.size))
        return tuple(int(b in self.designated) for b in range(self.algebra.size))

    @cached_property
    def _holding_lookup(self) -> bytes:
        """``holding`` as a ``bytes.translate`` table, for vectors over at most 256 elements."""
        return bytes(self.holding).ljust(256, b"\0") if self.algebra.size <= 256 else b""

    def pattern(self, vector: Vector) -> Vector:
        """A truth vector's holding pattern: what holding records at each
        valuation, in the vector's form (one ``bytes.translate`` on bytes)."""
        if isinstance(vector, bytes):
            return vector.translate(self._holding_lookup)
        return _gather(self.holding, vector)

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
    every pair would find the same first witness. A member's row at a
    position, its pattern at every tuple of other arguments in product
    order, is one ``op_on_vectors`` (as in a closure layer); the first
    member's rows are kept for the class, and the first lane where a later
    member's row differs names the witness's other arguments. Failure is
    conclusive; success means no counterexample at this depth.

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

    classes: dict[Vector, list[Vector]] = {}
    for vec in vectors:
        classes.setdefault(matrix.pattern(vec), []).append(vec)
    pairs = len(vectors) - len(classes)  # each class's first member with each later one
    shared = [members for members in classes.values() if len(members) > 1]
    # the connectives with arguments, while some class has a pair (else no rows are built)
    for symbol, arity in [(c, a) for c, a in algebra.signature.connectives if a and shared]:
        refuse(budget, f"congruence check of {symbol!r}", (pairs, "vector pairs"),
               (arity, "positions"), ((len(vectors), arity - 1), "other arguments"))
        partners = list(product(vectors, repeat=arity - 1))
        columns = [_join(algebra.size)([p[j] for p in partners]) for j in range(arity - 1)]

        def row(member: Vector, position: int) -> Vector:  # its pattern, partner by partner
            args = [*columns[:position], member * len(partners), *columns[position:]]
            return matrix.pattern(algebra.op_on_vectors(symbol, args, len(partners) * n_valuations))

        for first, *later in shared:
            held = [row(first, position) for position in range(arity)]
            for w, position in product(later, range(arity)):
                if (pattern := row(w, position)) != held[position]:
                    lane = list(map(ne, pattern, held[position])).index(True)
                    others = partners[lane // n_valuations]
                    left, right = ((*others[:position], v, *others[position:]) for v in (first, w))
                    return False, CongruenceWitness(symbol, tuple(rep[a] for a in left),
                                                    tuple(rep[a] for a in right))
    return True, None
