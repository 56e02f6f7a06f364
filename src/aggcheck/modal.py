"""Reflexive Kripke frames, their powerset modal algebras, and the
subjunctive reading of implication.

The implication p -> q is read as box(not p or q): a statement about all
accessible worlds rather than the actual one. Consistency of finite formula
sets is decided by bounded search over reflexive frames, with truth at a
world as the satisfaction notion (local consequence).

The search visits one frame per isomorphism class (1, 3, 16, 218 and 9,608
classes on 1 to 5 worlds). It evaluates every valuation at once (a formula's
value is one int per world, bit i set where it holds under valuation i),
charging that work before each world count. It runs up to 5 worlds; 6 (2^30
labelled frames) are refused. The subjunctive checks search only up to
min(K, K₀), where K₀ is small_model_bound of the formula set (at most 2 for
every set they check), so any frame bound K runs, at the cost of bound 2.
Uncut, the search is the oracle ``oracles.is_consistent``, checked against
every labelled frame. Uncut to CERTIFIED_WORLDS, it is also the certificate
that the boxed implication's refuting meet is bottom in every frame algebra,
where a formula's value is the set of worlds where it holds; no command
builds a frame algebra (``bao_from_frame``).
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from itertools import permutations
from operator import and_, or_
from typing import Callable, Iterable, Optional, Sequence

from .algebra import (DEFAULT_BUDGET, FiniteAlgebra, _program_steps, _variable_vectors,
                      element_coordinates, refuse)
from .record import frozen
from .syntax import App, Formula, Signature, Var, variables_of

MODAL_SIGNATURE = Signature(
    (("not", 1), ("or", 2), ("and", 2), ("bot", 0), ("top", 0), ("box", 1))
)


@frozen
class KripkeFrame:
    """A finite set of worlds 0..n-1 with an accessibility relation."""

    worlds: int
    relation: frozenset[tuple[int, int]]

    def __post_init__(self):
        for a, b in self.relation:
            if not (0 <= a < self.worlds and 0 <= b < self.worlds):
                raise ValueError("relation mentions unknown worlds")

    @cached_property
    def is_reflexive(self) -> bool:
        return all((w, w) in self.relation for w in range(self.worlds))


def bao_from_frame(frame: KripkeFrame) -> FiniteAlgebra:
    """The powerset algebra of a reflexive frame with box as the
    all-successors operator.

    Carrier element i is the subset of worlds with bitmask i. The result is
    verified at construction to satisfy box(top)=top, box meet-distributivity
    and box(a) <= a (the last is where reflexivity enters).
    """
    if not frame.is_reflexive:
        raise ValueError("frame must be reflexive")
    n = frame.worlds
    size = 1 << n
    succ = [0] * n
    for a, b in frame.relation:
        succ[a] |= 1 << b
    full = size - 1
    boxt = tuple(sum(1 << w for w in range(n) if succ[w] & ~a == 0) for a in range(size))
    algebra = FiniteAlgebra(
        signature=MODAL_SIGNATURE,
        carrier=tuple("{" + ",".join(str(w) for w in range(n) if a >> w & 1) + "}"
                      for a in range(size)),
        ops=(
            ("not", tuple(full ^ a for a in range(size))),
            ("or", tuple(a | b for a in range(size) for b in range(size))),
            ("and", tuple(a & b for a in range(size) for b in range(size))),
            ("bot", (0,)),
            ("top", (full,)),
            ("box", boxt),
        ),
        order=frozenset((a, b) for a in range(size) for b in range(size) if a & ~b == 0),
        name=f"frame-algebra-{n}w",
    )
    if boxt[full] != full:
        raise AssertionError("box(top) != top")
    for a in range(size):
        if boxt[a] & ~a:
            raise AssertionError("box(a) <= a fails; frame not reflexive?")
        for b in range(size):
            if boxt[a & b] != boxt[a] & boxt[b]:
                raise AssertionError("box does not distribute over meets")
    return algebra


def subjunctive_implication(antecedent: Formula, consequent: Formula) -> Formula:
    """box(not antecedent or consequent)."""
    return App("box", (App("or", (App("not", (antecedent,)), consequent)),))


def material_implication(antecedent: Formula, consequent: Formula) -> Formula:
    """not antecedent or consequent, without the modal guard."""
    return App("or", (App("not", (antecedent,)), consequent))


@lru_cache(maxsize=None)
def _off_diagonal(worlds: int) -> tuple[tuple[int, int], ...]:
    """The pairs of distinct worlds in lexicographic order: bit i of a
    frame's mask says whether the i-th pair is in its relation."""
    return tuple((a, b) for a in range(worlds) for b in range(worlds) if a != b)


def _frame_from_mask(worlds: int, mask: int) -> KripkeFrame:
    """The reflexive frame whose off-diagonal pairs are the set bits of ``mask``."""
    pairs = [p for i, p in enumerate(_off_diagonal(worlds)) if mask >> i & 1]
    return KripkeFrame(worlds, frozenset([(w, w) for w in range(worlds)] + pairs))


# Labelled reflexive frames the orbit pass marks, one byte each: 2^20 on 5 worlds.
MAX_FRAMES = 1 << 20
# The world count up to which certify_implication_bottom searches every frame class.
CERTIFIED_WORLDS = 3


@lru_cache(maxsize=None)
def _frame_classes(worlds: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """The least mask of each isomorphism class of reflexive frames on the
    given world count, ascending, with every world's successors (itself
    included): the frames a search up to isomorphism visits, in
    ``oracles.reflexive_frames`` order (ascending masks).

    The masks are walked in order; an unmarked mask is the least of its
    orbit under the world permutations, and all its images are marked, each
    the sum of the bits that the permutation moves the mask's set pairs to.
    """
    off = _off_diagonal(worlds)
    bit = {pair: i for i, pair in enumerate(off)}
    moves = [[1 << bit[pi[a], pi[b]] for a, b in off] for pi in permutations(range(worlds))]
    seen = bytearray(1 << len(off))
    classes = []
    mask = 0
    while mask >= 0:
        classes.append(mask)
        pairs = [i for i in range(len(off)) if mask >> i & 1]
        for moved in moves:
            seen[sum(map(moved.__getitem__, pairs))] = 1
        mask = seen.find(0, mask + 1)
    return tuple(
        (mask, tuple((w, *[b for i, (a, b) in enumerate(off) if a == w and mask >> i & 1])
                     for w in range(worlds)))
        for mask in classes
    )


@lru_cache(maxsize=None)
def _variable_worlds(worlds: int, count: int) -> tuple[tuple[int, ...], ...]:
    """Per variable and world, the valuations (bit i: the i-th in
    ``oracles.all_valuations`` order over the frame algebra) whose value for the
    variable contains the world."""
    return tuple(
        tuple(int("".join("01"[value >> w & 1] for value in reversed(vector)), 2)
              for w in range(worlds))
        for vector in _variable_vectors(1 << worlds, count)
    )


# Bit-sliced connectives: a value is one int per world, bit i set where the
# formula is true at that world under valuation i. Each takes the all-ones
# int and the worlds' successor tuples first.
_SLICED = {
    "not": lambda full, succ, x: tuple([full ^ a for a in x]),
    "or": lambda full, succ, x, y: tuple(map(or_, x, y)),
    "and": lambda full, succ, x, y: tuple(map(and_, x, y)),
    "bot": lambda full, succ: (0,) * len(succ),
    "top": lambda full, succ: (full,) * len(succ),
    "box": lambda full, succ, x: tuple([reduce(and_, [x[v] for v in s]) for s in succ]),
}


# A formula set's variables and its program (``_program_steps``).
Compiled = tuple[tuple[str, ...], list[tuple[str, tuple[int, ...]]], list[int]]


def _compile_set(formulas: Iterable[Formula]) -> Compiled:
    """The formula set as _search and small_model_bound both read it."""
    formulas = tuple(formulas)
    names = variables_of(*formulas)
    return (names, *_program_steps(formulas, names))


def _sliced_program(
    steps: Sequence[tuple[str, tuple[int, ...]]], outputs: Sequence[int], count: int
) -> Callable[[int, tuple[tuple[int, ...], ...]], list[tuple[int, ...]]]:
    """A program over ``count`` variables (``_program_steps``), for truth at a
    world: running it on a world count and each world's successors gives each
    output's value as one int per world, bit i set where it is true under the
    i-th valuation of the variables in ``oracles.all_valuations`` order over
    the frame algebra."""
    steps = [(_SLICED[symbol], args) for symbol, args in steps]

    def run(worlds: int, succ: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
        full = (1 << (1 << worlds * count)) - 1
        values = list(_variable_worlds(worlds, count))
        for connective, args in steps:
            values.append(connective(full, succ, *[values[i] for i in args]))
        return [values[i] for i in outputs]

    return run


@frozen
class ConsistencyWitness:
    frame: KripkeFrame
    valuation: dict[str, int]
    world: int


def _search(compiled: Compiled, max_worlds: int) -> tuple[bool, Optional[ConsistencyWitness]]:
    """``oracles.is_consistent`` on a compiled formula set."""
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    names, steps, outputs = compiled
    refuse(MAX_FRAMES, "consistency search",
           ((2, max_worlds * (max_worlds - 1)), f"reflexive frames on {max_worlds} worlds"))
    program = _sliced_program(steps, outputs, len(names))
    for n in range(1, max_worlds + 1):
        classes = _frame_classes(n)
        # charged before any value is built: per class, n ints of 2^(n * variables) bits
        refuse(DEFAULT_BUDGET, "consistency search", (len(classes), "frame classes"),
               (n, "worlds"), ((2, max(n * len(names) - 6, 0)), "words"))
        everywhere = (1 << (1 << n * len(names))) - 1
        for mask, succ in classes:
            # per world, the valuations where every formula is true there
            common = [everywhere] * n
            for value in program(n, succ):
                common = list(map(and_, common, value))
            models = reduce(or_, common)
            if models:
                i = (models & -models).bit_length() - 1
                valuation = dict(zip(names, element_coordinates(1 << n, len(names), i)))
                world = next(w for w, c in enumerate(common) if c >> i & 1)
                return True, ConsistencyWitness(_frame_from_mask(n, mask), valuation, world)
    return False, None


def small_model_bound(formulas: Iterable[Formula]) -> int:
    """K₀ = 1 + b + … + b^d: the formulas hold together at a world of some
    reflexive model iff they do in one of at most K₀ worlds, where b is the
    number of distinct box subformulas (up to syntactic equality) and d the
    modal depth.

    This is selective filtration (Blackburn, de Rijke and Venema, *Modal
    Logic*, CUP 2001, ch. 2). Unravel the model into a tree, each node with
    its loop, so a node's successors are itself and its children. Keep the
    root; at each kept node keep, for every box subformula false there, one
    child where its body fails; stop at depth d. Every node at depth i keeps
    the truth of each subformula of modal depth at most d - i, so the
    formulas still hold at the root, and the kept tree has at most b
    children per node. As the search scans world counts upwards, its
    verdict and first witness at bound K and at min(K, K₀) agree.

    Boxes nested inside other boxes count in b: a root can need witnesses
    for them through its own loop.
    """
    return _model_bound(_compile_set(formulas))


def _model_bound(compiled: Compiled) -> int:
    """small_model_bound of a compiled formula set."""
    names, steps, _ = compiled  # one step per distinct subformula
    slot_depth = [0] * len(names)  # a program slot's modal depth
    for symbol, args in steps:
        slot_depth.append(max([slot_depth[a] for a in args], default=0) + (symbol == "box"))
    boxes = sum(symbol == "box" for symbol, _ in steps)
    return sum(boxes ** i for i in range(max(slot_depth, default=0) + 1))


@frozen
class SubjunctiveReport:
    condition_a: dict[str, bool]
    condition_b: dict[str, bool]
    material_b: dict[str, bool]
    bottom_certified: bool
    insufficient_bound: bool

    @property
    def a_holds(self) -> bool:
        return all(self.condition_a.values())

    @property
    def b_holds(self) -> bool:
        return all(self.condition_b.values())

    @property
    def material_b_fails(self) -> bool:
        return not all(self.material_b.values())


def certify_implication_bottom() -> bool:
    """In every frame algebra up to CERTIFIED_WORLDS worlds, the meet of
    box(not p or q), p and not q is bottom, pointwise over all element pairs.

    In a frame's algebra a formula's value under a valuation is the set of
    worlds where it holds (Jónsson and Tarski), so the meet is bottom in
    every algebra iff it holds at no world of any frame: the consistency
    search, uncut, over one frame per isomorphism class (isomorphic frames
    have isomorphic algebras), finds no model of it."""
    p, q = Var("p"), Var("q")
    meet = App("and", (App("and", (subjunctive_implication(p, q), p)), App("not", (q,))))
    return not _search(_compile_set([meet]), CERTIFIED_WORLDS)[0]


def check_subjunctive_conditions(max_worlds: int = 3) -> SubjunctiveReport:
    """Run the eight consistency checks for the boxed implication and the
    baseline showing the unboxed (material) reading loses the negated-
    implication consistencies.

    Condition a: p -> q must be inconsistent with {p, not q} and consistent
    with the other three sign patterns. Condition b: not(p -> q) must be
    consistent with all four sign patterns. With one world, box collapses to
    the identity and condition b cannot be exhibited; the report flags the
    bound as insufficient in that case.

    Each set is searched up to min(max_worlds, small_model_bound(set)),
    which gives the verdicts of the search up to max_worlds. Every set here
    has at most one box, at modal depth 1, so no search goes past 2 worlds
    and any bound runs.
    """
    p, q = Var("p"), Var("q")
    np_, nq = App("not", (p,)), App("not", (q,))
    sides = {"p,q": (p, q), "p,not q": (p, nq), "not p,q": (np_, q), "not p,not q": (np_, nq)}
    subj = subjunctive_implication(p, q)
    mat = material_implication(p, q)

    def consistent(formula: Formula, label: str) -> bool:
        compiled = _compile_set((formula, *sides[label]))  # once, for the bound and the search
        return _search(compiled, min(max_worlds, _model_bound(compiled)))[0]

    condition_a = {"inconsistent with p,not q": not consistent(subj, "p,not q")}
    for label in ("p,q", "not p,q", "not p,not q"):
        condition_a[f"consistent with {label}"] = consistent(subj, label)
    condition_b = {
        f"consistent with {label}": consistent(App("not", (subj,)), label) for label in sides
    }
    material_b = {
        f"consistent with {label}": consistent(App("not", (mat,)), label) for label in sides
    }

    return SubjunctiveReport(
        condition_a=condition_a,
        condition_b=condition_b,
        material_b=material_b,
        bottom_certified=certify_implication_bottom(),
        insufficient_bound=max_worlds < 2 and not all(condition_b.values()),
    )
