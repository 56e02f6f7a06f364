"""Reflexive Kripke frames, their powerset modal algebras, and the
subjunctive reading of implication.

The implication p -> q is read as box(not p or q): a statement about all
accessible worlds rather than the actual one. Consistency of finite formula
sets is decided by bounded search over reflexive frames, with truth at a
world as the satisfaction notion (local consequence).

The search, and the certificate in the frames' algebras, visit one frame per
isomorphism class (1, 3, 16, 218 and 9,608 classes on 1 to 5 worlds). The
search evaluates every valuation at once (a formula's value is one int per
world, bit i set where it holds under valuation i), charging that work before
each world count. Bound 5 runs; bound 6 (2^30 labelled frames) is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import permutations
from operator import and_, or_
from typing import Callable, Iterable, Optional, Sequence

from .algebra import (DEFAULT_BUDGET, FiniteAlgebra, _program_steps, element_coordinates, refuse,
                      truth_vector)
from .syntax import App, Formula, Signature, Var, variables_of

MODAL_SIGNATURE = Signature(
    (("not", 1), ("or", 2), ("and", 2), ("bot", 0), ("top", 0), ("box", 1))
)


@dataclass(frozen=True)
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

    def box(a: int) -> int:
        return sum(1 << w for w in range(n) if succ[w] & ~a == 0)

    def subset_label(mask: int) -> str:
        return "{" + ",".join(str(w) for w in range(n) if mask >> w & 1) + "}"

    algebra = FiniteAlgebra(
        signature=MODAL_SIGNATURE,
        carrier=tuple(subset_label(a) for a in range(size)),
        ops=(
            ("not", tuple(full ^ a for a in range(size))),
            ("or", tuple(a | b for a in range(size) for b in range(size))),
            ("and", tuple(a & b for a in range(size) for b in range(size))),
            ("bot", (0,)),
            ("top", (full,)),
            ("box", tuple(box(a) for a in range(size))),
        ),
        order=frozenset((a, b) for a in range(size) for b in range(size) if a & ~b == 0),
        name=f"frame-algebra-{n}w",
    )
    boxt = algebra.tables["box"]
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


def reflexive_frames(worlds: int) -> list[KripkeFrame]:
    """All reflexive frames on the given world count, in a fixed order:
    subsets of the off-diagonal pairs by binary counting over the pairs in
    lexicographic order."""
    return [_frame_from_mask(worlds, mask) for mask in range(1 << worlds * (worlds - 1))]


# Labelled reflexive frames the orbit pass marks, one byte each: 2^20 on 5 worlds.
MAX_FRAMES = 1 << 20


@lru_cache(maxsize=None)
def _frame_classes(worlds: int) -> tuple[int, ...]:
    """The least mask of each isomorphism class of reflexive frames on the
    given world count, ascending: the frames a search up to isomorphism
    visits, in reflexive_frames order.

    The masks are walked in order; an unmarked mask is the least of its
    orbit under the world permutations, and all its images are marked.
    """
    off = _off_diagonal(worlds)
    bit = {pair: i for i, pair in enumerate(off)}
    perms = list(permutations(range(worlds)))
    # per 8-bit chunk of a mask: each chunk value's image under every permutation
    chunks = []
    for low in range(0, len(off), 8):
        moved = [
            tuple(1 << bit[pi[a], pi[b]] for pi in perms) for a, b in off[low:low + 8]
        ]
        table = [(0,) * len(perms)]
        for value in range(1, 1 << len(moved)):
            lowest = (value & -value).bit_length() - 1
            table.append(tuple(map(or_, table[value & value - 1], moved[lowest])))
        chunks.append((low, table))
    seen = bytearray(1 << len(off))
    classes = []
    mask = 0
    while mask >= 0:
        classes.append(mask)
        images = (0,) * len(perms)
        for low, table in chunks:
            images = map(or_, images, table[mask >> low & 255])
        for image in images:
            seen[image] = 1
        mask = seen.find(0, mask + 1)
    return tuple(classes)


@lru_cache(maxsize=None)
def _class_successors(worlds: int) -> tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]:
    """Each class representative's mask with every world's successors
    (itself included), in _frame_classes order."""
    width = worlds - 1  # bits w*width .. (w+1)*width - 1 of a mask: the pairs (w, b)
    # per world, each value of its bits -> its successors
    tables = []
    for w in range(worlds):
        others = [b for b in range(worlds) if b != w]
        tables.append([(w, *(b for j, b in enumerate(others) if bits >> j & 1))
                       for bits in range(1 << width)])
    ones = (1 << width) - 1
    return tuple(
        (mask, tuple(table[mask >> w * width & ones] for w, table in enumerate(tables)))
        for mask in _frame_classes(worlds)
    )


@lru_cache(maxsize=None)
def _variable_worlds(worlds: int, count: int) -> tuple[tuple[int, ...], ...]:
    """Per variable and world, the valuations (bit i: the i-th in
    all_valuations order over the frame algebra) whose value for the
    variable contains the world. For variable v and world w those are the i
    with bit b = worlds·(count−1−v) + w set: 2^b clear bits then 2^b set
    bits, repeated over all 2^(worlds·count) valuations."""
    def bits(b: int) -> int:
        half = 1 << b
        pattern, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << worlds * count:  # doubling the copies each time
            pattern, width = pattern | pattern << width, 2 * width
        return pattern

    return tuple(tuple(bits(worlds * (count - 1 - v) + w) for w in range(worlds))
                 for v in range(count))


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


def _sliced_program(
    formulas: Iterable[Formula], variables: Sequence[str]
) -> Callable[[int, tuple[tuple[int, ...], ...]], list[tuple[int, ...]]]:
    """Compile formulas for truth at a world: running the program on a
    world count and each world's successors gives each formula's value as
    one int per world, bit i set where it is true under the i-th valuation
    of ``variables`` in all_valuations order over the frame algebra."""
    steps, outputs = _program_steps(formulas, variables)
    steps = [(_SLICED[symbol], args) for symbol, args in steps]

    def run(worlds: int, succ: tuple[tuple[int, ...], ...]) -> list[tuple[int, ...]]:
        full = (1 << (1 << worlds * len(variables))) - 1
        values = list(_variable_worlds(worlds, len(variables)))
        for connective, args in steps:
            values.append(connective(full, succ, *[values[i] for i in args]))
        return [values[i] for i in outputs]

    return run


@dataclass(frozen=True)
class ConsistencyWitness:
    frame: KripkeFrame
    valuation: dict[str, int]
    world: int


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
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    formulas = tuple(formulas)
    names = variables_of(*formulas)
    refuse(MAX_FRAMES, "consistency search",
           ((2, max_worlds * (max_worlds - 1)), f"reflexive frames on {max_worlds} worlds"))
    program = _sliced_program(formulas, names)
    for n in range(1, max_worlds + 1):
        classes = _class_successors(n)
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


@dataclass(frozen=True)
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


def certify_implication_bottom(max_worlds: int) -> bool:
    """In every frame algebra up to the bound, the meet of box(not p or q),
    p and not q is bottom, pointwise over all element pairs. One frame per
    isomorphism class is enough, as isomorphic frames have isomorphic
    algebras; each is built and evaluated by its tables, not bit-sliced."""
    p, q = Var("p"), Var("q")
    meet = App("and", (App("and", (subjunctive_implication(p, q), p)), App("not", (q,))))
    algebras = (bao_from_frame(_frame_from_mask(n, mask))
                for n in range(1, max_worlds + 1) for mask in _frame_classes(n))
    return all(set(truth_vector(meet, ["p", "q"], a)) == {a.constant("bot")} for a in algebras)


def check_subjunctive_conditions(max_worlds: int = 3) -> SubjunctiveReport:
    """Run the eight consistency checks for the boxed implication and the
    baseline showing the unboxed (material) reading loses the negated-
    implication consistencies.

    Condition a: p -> q must be inconsistent with {p, not q} and consistent
    with the other three sign patterns. Condition b: not(p -> q) must be
    consistent with all four sign patterns. With one world, box collapses to
    the identity and condition b cannot be exhibited; the report flags the
    bound as insufficient in that case.
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    p, q = Var("p"), Var("q")
    np_, nq = App("not", (p,)), App("not", (q,))
    sides = {"p,q": (p, q), "p,not q": (p, nq), "not p,q": (np_, q), "not p,not q": (np_, nq)}
    subj = subjunctive_implication(p, q)
    mat = material_implication(p, q)

    def consistent(formula: Formula, label: str) -> bool:
        return is_consistent([formula, *sides[label]], max_worlds)[0]

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
        bottom_certified=certify_implication_bottom(3),
        insufficient_bound=max_worlds < 2 and not all(condition_b.values()),
    )
