"""Reflexive Kripke frames, their powerset modal algebras, and the
subjunctive reading of implication.

The implication p -> q is read as box(not p or q): a statement about all
accessible worlds rather than the actual one. Consistency of finite formula
sets is decided by bounded search over reflexive frames, with truth at a
world as the satisfaction notion (local consequence).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress, count
from operator import and_
from typing import Iterable, Optional

from .algebra import FiniteAlgebra, truth_vectors, vector_program
from .errors import BudgetExceededError
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


@lru_cache(maxsize=None)
def _powerset_boolean_algebra(worlds: int) -> tuple[tuple[str, ...], tuple, frozenset]:
    """Carrier labels, Boolean operation tables and inclusion order of the
    powerset of ``worlds`` worlds, shared by every frame on them."""
    size = 1 << worlds
    full = size - 1

    def subset_label(mask: int) -> str:
        return "{" + ",".join(str(w) for w in range(worlds) if mask >> w & 1) + "}"

    ops = (
        ("not", tuple(full ^ a for a in range(size))),
        ("or", tuple(a | b for a in range(size) for b in range(size))),
        ("and", tuple(a & b for a in range(size) for b in range(size))),
        ("bot", (0,)),
        ("top", (full,)),
    )
    order = frozenset((a, b) for a in range(size) for b in range(size) if a & ~b == 0)
    return tuple(subset_label(a) for a in range(size)), ops, order


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

    carrier, boolean_ops, order = _powerset_boolean_algebra(n)
    algebra = FiniteAlgebra(
        signature=MODAL_SIGNATURE,
        carrier=carrier,
        ops=(*boolean_ops, ("box", tuple(box(a) for a in range(size)))),
        order=order,
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


def reflexive_frames(worlds: int) -> list[KripkeFrame]:
    """All reflexive frames on the given world count, in a fixed order:
    subsets of the off-diagonal pairs by binary counting over the pairs in
    lexicographic order."""
    diagonal = [(w, w) for w in range(worlds)]
    off = [(a, b) for a in range(worlds) for b in range(worlds) if a != b]
    return [
        KripkeFrame(worlds, frozenset(diagonal + [p for i, p in enumerate(off) if mask >> i & 1]))
        for mask in range(1 << len(off))
    ]


# Reflexive frames on 5 worlds number 2^20; searches refuse that bound.
MAX_FRAMES = 1 << 12


@lru_cache(maxsize=None)
def _frame_algebras(worlds: int) -> tuple[tuple[KripkeFrame, FiniteAlgebra], ...]:
    """Every reflexive frame on the given world count with its algebra, in
    reflexive_frames order; built once per world count."""
    return tuple((frame, bao_from_frame(frame)) for frame in reflexive_frames(worlds))


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
    """
    if max_worlds < 1:
        raise ValueError("max_worlds must be >= 1")
    formulas = tuple(formulas)
    names = variables_of(*formulas)
    frames = 1 << (max_worlds * (max_worlds - 1))
    if frames > MAX_FRAMES:
        raise BudgetExceededError(
            f"{frames} reflexive frames on {max_worlds} worlds exceed budget {MAX_FRAMES}"
        )
    program = vector_program(formulas, names)
    for n in range(1, max_worlds + 1):
        for frame, algebra in _frame_algebras(n):
            vectors = program(algebra)
            # per valuation, the worlds where every formula is true, as a bitmask
            common = [(1 << n) - 1] * algebra.size ** len(names)
            for vec in vectors:
                common = list(map(and_, common, vec))
            w = next(compress(count(), common), None)
            if w is not None:
                values = truth_vectors(map(Var, names), names, algebra)
                valuation = {name: vec[w] for name, vec in zip(names, values)}
                world = (common[w] & -common[w]).bit_length() - 1
                return True, ConsistencyWitness(frame, valuation, world)
    return False, None


@dataclass(frozen=True)
class SubjunctiveReport:
    condition_a: dict[str, bool]
    condition_b: dict[str, bool]
    material_b: dict[str, bool]
    bottom_certified: bool
    insufficient_bound: bool
    max_worlds: int

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
    p and not q is bottom, pointwise over all element pairs."""
    p, q = Var("p"), Var("q")
    meet = App("and", (App("and", (subjunctive_implication(p, q), p)), App("not", (q,))))
    program = vector_program([meet], ["p", "q"])
    return all(
        set(program(algebra)[0]) == {algebra.constant("bot")}
        for n in range(1, max_worlds + 1)
        for _, algebra in _frame_algebras(n)
    )


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
        max_worlds=max_worlds,
    )
