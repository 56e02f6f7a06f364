"""Matrix-presented consequence relations and their metalogical checks.

A logic is given here as a finite matrix: an algebra of truth values plus
either a set of designated values ("filter" mode: premises designated force
the conclusion designated) or the algebra's partial order ("degree" mode:
every lower bound of the premises is a lower bound of the conclusion).
Entailment, interderivability, closure-operator laws, the congruence
property, and filter generation are all decided by exhaustive quantification
over valuations of the occurring variables, so every verdict is exact on the
fragment it inspects: failures are conclusive, successes are "no
counterexample within the bound".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Optional, Sequence

from .algebra import DEFAULT_BUDGET, FiniteAlgebra, closure_vectors, refuse, truth_vectors
from .syntax import (
    App,
    Formula,
    Var,
    bounded_closure,
    formula_sort_key,
    variables_of,
)

FILTER_MODE = "filter"
DEGREE_MODE = "degree"

MAX_LAWS_FRAGMENT = 20
MAX_RELATION_FRAGMENT = 12


@dataclass(frozen=True)
class Matrix:
    """A finite algebra together with a notion of "holding".

    mode="filter": a nonempty designated subset of the carrier.
    mode="degree": the algebra's partial order (which must be present).
    """

    algebra: FiniteAlgebra
    designated: Optional[frozenset[int]] = None
    mode: str = FILTER_MODE

    def __post_init__(self):
        if self.mode == FILTER_MODE:
            if not self.designated:
                raise ValueError("filter mode needs a nonempty designated set")
            if any(not (0 <= d < self.algebra.size) for d in self.designated):
                raise ValueError("designated values outside the carrier")
        elif self.mode == DEGREE_MODE:
            if self.algebra.order is None:
                raise ValueError(
                    "degree mode requires an algebra with a lattice order"
                )
        else:
            raise ValueError(f"unknown mode {self.mode!r}")

    def describe(self) -> str:
        if self.mode == FILTER_MODE:
            labels = sorted(self.algebra.label(d) for d in self.designated)
            return f"{self.algebra.name or 'algebra'}/designated {labels}"
        return f"{self.algebra.name or 'algebra'}/degree-preserving"


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
        if matrix.mode == FILTER_MODE:
            if all(v in matrix.designated for v in values) and c not in matrix.designated:
                return False
        else:
            for a in range(algebra.size):
                if all(algebra.leq(a, v) for v in values) and not algebra.leq(a, c):
                    return False
    return True


def interderivable(matrix: Matrix, left: Formula, right: Formula) -> bool:
    return entails(matrix, [left], right) and entails(matrix, [right], left)


# ---------------------------------------------------------------------------
# Bounded consequence and closure laws
# ---------------------------------------------------------------------------


def _holding_pattern(matrix: Matrix) -> tuple[int, list[int]]:
    """Bits per valuation, and the bits each value sets there: filter mode
    one bit (designated or not), degree mode a block of carrier bits
    encoding the value's downset."""
    algebra, size = matrix.algebra, matrix.algebra.size
    if matrix.mode == FILTER_MODE:
        return 1, [int(b in matrix.designated) for b in range(size)]
    return size, [sum(1 << a for a in range(size) if algebra.leq(a, b)) for b in range(size)]


def _holding_masks(matrix: Matrix, fragment: Sequence[Formula]) -> tuple[list[int], int]:
    """Per-formula bitmask of "where the formula holds": the holding
    pattern of its value at each valuation. Γ ⊢ φ iff the AND of the premise
    masks is contained in the conclusion mask, so closure computations
    reduce to bitwise arithmetic."""
    names = variables_of(*fragment)
    block, pattern = _holding_pattern(matrix)
    vectors = truth_vectors(fragment, names, matrix.algebra)
    masks = [sum(pattern[v] << (w * block) for w, v in enumerate(vec)) for vec in vectors]
    return masks, matrix.algebra.size ** len(names) * block


def _entailed(masks: Sequence[int], width: int, premises: Iterable[int]) -> list[int]:
    """The formulas (by index) whose holding mask contains the AND of the
    premises' masks: those the premises entail."""
    lower = (1 << width) - 1
    for i in premises:
        lower &= masks[i]
    return [i for i, m in enumerate(masks) if lower & ~m == 0]


@dataclass(frozen=True)
class BoundedConsequence:
    """The consequence relation of a matrix restricted to a finite fragment.

    The fragment is the bounded closure of the base formulas at the given
    depth. The full relation (all premise subsets) is materialized lazily and
    only for small fragments; law checking works on bitmasks and supports
    fragments up to MAX_LAWS_FRAGMENT formulas.
    """

    matrix: Matrix
    base: tuple[Formula, ...]
    depth: int

    @cached_property
    def fragment(self) -> tuple[Formula, ...]:
        closed = bounded_closure(self.base, self.matrix.algebra.signature, self.depth)
        frag = tuple(sorted(closed, key=formula_sort_key))
        refuse(MAX_LAWS_FRAGMENT, "bounded consequence", (len(frag), "fragment formulas"))
        return frag

    @cached_property
    def _masks(self) -> tuple[list[int], int]:
        return _holding_masks(self.matrix, self.fragment)

    def closure_mask(self, subset_mask: int) -> int:
        """Bitmask of the fragment formulas entailed by the given subset."""
        masks, width = self._masks
        premises = (i for i in range(len(masks)) if subset_mask >> i & 1)
        return sum(1 << i for i in _entailed(masks, width, premises))

    @cached_property
    def relation(self) -> frozenset[tuple[frozenset[Formula], Formula]]:
        """All (premise set, conclusion) pairs over the fragment."""
        frag = self.fragment
        refuse(MAX_RELATION_FRAGMENT, "consequence relation", (len(frag), "fragment formulas"))
        pairs = []
        for subset_mask in range(1 << len(frag)):
            premises = frozenset(
                frag[i] for i in range(len(frag)) if subset_mask >> i & 1
            )
            cmask = self.closure_mask(subset_mask)
            for i in range(len(frag)):
                if cmask >> i & 1:
                    pairs.append((premises, frag[i]))
        return frozenset(pairs)


@dataclass(frozen=True)
class ClosureLawsReport:
    extensive: bool
    monotone: bool
    idempotent: bool
    violations: tuple[str, ...]

    @property
    def all_hold(self) -> bool:
        return self.extensive and self.monotone and self.idempotent


def check_closure_laws(bc: BoundedConsequence) -> ClosureLawsReport:
    """Verify extensivity, monotonicity and idempotence of the induced
    closure operator on every subset of the fragment."""
    n = len(bc.fragment)
    closure = [bc.closure_mask(m) for m in range(1 << n)]

    extensive = monotone = idempotent = True
    violations = []
    for m in range(1 << n):
        if m & ~closure[m]:
            extensive = False
            violations.append(f"extensivity fails on subset mask {m:#x}")
        if closure[closure[m]] != closure[m]:
            idempotent = False
            violations.append(f"idempotence fails on subset mask {m:#x}")
        for i in range(n):
            if not m >> i & 1 and closure[m] & ~closure[m | 1 << i]:
                monotone = False
                violations.append(
                    f"monotonicity fails adding formula {i} to subset mask {m:#x}"
                )
    return ClosureLawsReport(extensive, monotone, idempotent, tuple(violations[:10]))


# ---------------------------------------------------------------------------
# Congruence property (selfextensionality)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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

    _, pattern = _holding_pattern(matrix)

    def key(vec: tuple[int, ...]) -> tuple:
        """Holding pattern; downsets are distinct, so in degree mode it is the value."""
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


# ---------------------------------------------------------------------------
# Logical filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SFilter:
    """A subset of an algebra closed under all fragment entailments of the
    ambient logic, under every valuation into the algebra.

    ``provenance`` records the generating fragment: closure under the full
    (unbounded) consequence relation is not decided here.
    """

    algebra: FiniteAlgebra
    elements: frozenset[int]
    logic: Matrix
    provenance: str


def generate_sfilter(
    matrix: Matrix,
    algebra: FiniteAlgebra,
    seed: Iterable[int],
    fragment: Iterable[Formula],
) -> SFilter:
    """Least superset of ``seed`` closed under fragment entailments.

    Fixpoint iteration: for every valuation h of the fragment's variables
    into ``algebra`` and every fragment entailment Γ ⊢ φ with h[Γ] inside the
    current set, h(φ) is added. Premise sets are maximized per valuation
    (monotonicity makes smaller premise sets redundant). Terminates because
    the carrier is finite.
    """
    if matrix.algebra.signature != algebra.signature:
        raise ValueError("matrix and target algebra must share a signature")
    frag = tuple(sorted(set(fragment), key=formula_sort_key))
    masks, width = _holding_masks(matrix, frag)
    names = variables_of(*frag)
    # h_values[w][i]: value of fragment formula i at valuation w into ``algebra``
    h_values = list(zip(*truth_vectors(frag, names, algebra)))

    current = set(seed)
    if any(not (0 <= e < algebra.size) for e in current):
        raise ValueError("seed outside the carrier")
    changed = True
    while changed:
        changed = False
        for values in h_values:
            premises = (i for i, value in enumerate(values) if value in current)
            added = {values[i] for i in _entailed(masks, width, premises)} - current
            if added:
                current |= added
                changed = True
    return SFilter(
        algebra=algebra,
        elements=frozenset(current),
        logic=matrix,
        provenance=(
            f"generated from seed over a {len(frag)}-formula fragment; "
            "closure uses fragment entailments only"
        ),
    )
