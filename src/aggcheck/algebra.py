"""Finite algebras as operation tables, with products and homomorphisms.

Carrier elements are indices 0..n-1; labels are presentation-only (rational
labels for many-valued chains, subset labels for powerset algebras), so all
computation is exact integer table lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, product
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import BudgetExceededError, EvaluationError
from .syntax import App, Formula, Signature, Var, print_formula

# Variable assignment into an algebra: variable name -> carrier index.
Valuation = Mapping[str, int]

DEFAULT_BUDGET = 10**8  # the one default limit every budgeted stage compares its count with
MAX_POWER_SIZE = 10_000  # most elements of a power that product_algebra builds
# Most constraints a table search is handed: each costs about 128 bytes once
# bucketed, so the cap bounds the search's memory as the budget bounds its time.
MAX_CONSTRAINTS = 2_000_000


@dataclass(frozen=True)
class FiniteAlgebra:
    """A total algebra over a signature, given by flat row-major tables.

    ``ops`` pairs each connective with a tuple of length ``len(carrier)**arity``;
    the entry for arguments (a1,...,am) sits at row-major position
    a1*n^(m-1) + ... + am. ``order`` optionally carries a partial order on
    carrier indices (needed for degree-mode semantics).
    """

    signature: Signature
    carrier: tuple[str, ...]
    ops: tuple[tuple[str, tuple[int, ...]], ...]
    order: Optional[frozenset[tuple[int, int]]] = None
    name: str = ""

    def __post_init__(self):
        n = len(self.carrier)
        if n == 0:
            raise ValueError("carrier must be nonempty")
        tables = dict(self.ops)
        if len(tables) != len(self.ops):
            raise ValueError("duplicate operation name")
        for symbol, arity in self.signature.connectives:
            if symbol not in tables:
                raise ValueError(f"missing table for connective {symbol!r}")
            table = tables[symbol]
            if len(table) != n**arity:
                raise ValueError(
                    f"table for {symbol!r} has {len(table)} entries, "
                    f"expected {n**arity}"
                )
            if min(table) < 0 or max(table) >= n:
                raise ValueError(f"table for {symbol!r} has out-of-range entries")
        extra = set(tables) - set(self.signature.arities)
        if extra:
            raise ValueError(f"tables for unknown connectives: {sorted(extra)}")
        if self.order is not None:
            self._check_partial_order(self.order, n)

    @staticmethod
    @lru_cache(maxsize=16)  # frame algebras on one world count share one order
    def _check_partial_order(order: frozenset[tuple[int, int]], n: int) -> None:
        for a in range(n):
            if (a, a) not in order:
                raise ValueError("order not reflexive")
        for a, b in order:
            if (b, a) in order and a != b:
                raise ValueError("order not antisymmetric")
            for c in range(n):
                if (b, c) in order and (a, c) not in order:
                    raise ValueError("order not transitive")

    @cached_property
    def size(self) -> int:
        return len(self.carrier)

    @cached_property
    def tables(self) -> dict[str, tuple[int, ...]]:
        return dict(self.ops)

    def op_on_vectors(
        self, symbol: str, args: Sequence[tuple[int, ...]], width: int
    ) -> tuple[int, ...]:
        """The connective's table applied coordinatewise to argument vectors."""
        table = self.tables[symbol]
        if len(args) == 1:
            return tuple([table[a] for a in args[0]])
        index = args[0] if args else (0,) * width
        for arg in args[1:]:  # row-major table index, coordinatewise
            index = [i * self.size + a for i, a in zip(index, arg)]
        return tuple([table[i] for i in index])

    def op(self, symbol: str, args: Sequence[int]) -> int:
        table = self.tables[symbol]
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return table[idx]

    def constant(self, symbol: str) -> int:
        if self.signature.arity(symbol) != 0:
            raise ValueError(f"{symbol!r} is not a constant")
        return self.tables[symbol][0]

    def leq(self, a: int, b: int) -> bool:
        if self.order is None:
            raise ValueError(f"algebra {self.name or self.carrier} has no order")
        return (a, b) in self.order

    def label(self, index: int) -> str:
        return self.carrier[index]


def evaluate(formula: Formula, valuation: Valuation, algebra: FiniteAlgebra) -> int:
    """Value of a formula under a valuation, by structural recursion."""
    if isinstance(formula, Var):
        try:
            return valuation[formula.name]
        except KeyError:
            raise EvaluationError(f"unbound variable {formula.name!r}") from None
    return algebra.op(formula.symbol, [evaluate(a, valuation, algebra) for a in formula.args])


def all_valuations(variables: Sequence[str], algebra: FiniteAlgebra):
    """All assignments of carrier indices to the given variables, in
    lexicographic order of the value tuples (variables as given)."""
    for values in product(range(algebra.size), repeat=len(variables)):
        yield dict(zip(variables, values))


# A truth vector is a formula's value at every valuation of a fixed variable
# list, in all_valuations order.
Vector = tuple[int, ...]


@lru_cache(maxsize=None)
def _variable_vectors(size: int, count: int) -> tuple[Vector, ...]:
    """Truth vectors of ``count`` variables over a carrier of ``size``."""
    return tuple(zip(*product(range(size), repeat=count)))


def _program_steps(
    formulas: Iterable[Formula], variables: Sequence[str]
) -> tuple[list[tuple[str, tuple[int, ...]]], list[int]]:
    """Formulas as a straight-line program over their distinct subformulas,
    in post-order: slot i < len(variables) holds variable i, each step
    ``(connective, argument slots)`` fills the next slot, and the second
    list gives each formula's slot."""
    formulas = list(formulas)  # keeps every node alive, so its id() is stable

    def slot_key(node: Formula):  # identity, not structure: hashing recurses
        return node.name if isinstance(node, Var) else id(node)

    slots: dict = {name: i for i, name in enumerate(variables)}
    steps: list[tuple[str, tuple[int, ...]]] = []
    for formula in formulas:
        stack = [formula]
        while stack:  # iterative post-order, so deep formulas need no recursion
            node = stack[-1]
            if slot_key(node) in slots:
                stack.pop()
            elif isinstance(node, Var):
                raise EvaluationError(f"unbound variable {node.name!r}")
            else:
                pending = [a for a in node.args if slot_key(a) not in slots]
                if pending:
                    stack.extend(pending)
                else:
                    stack.pop()
                    slots[id(node)] = len(variables) + len(steps)
                    steps.append((node.symbol, tuple(slots[slot_key(a)] for a in node.args)))
    return steps, [slots[slot_key(f)] for f in formulas]


def vector_program(
    formulas: Iterable[Formula], variables: Sequence[str]
) -> Callable[[FiniteAlgebra], list[Vector]]:
    """Compile formulas to a straight-line program over their distinct
    subformulas; running it on an algebra gives each formula's truth vector
    over ``variables``, bottom-up from the connective tables."""
    steps, outputs = _program_steps(formulas, variables)

    def run(algebra: FiniteAlgebra) -> list[Vector]:
        width = algebra.size ** len(variables)
        vectors = list(_variable_vectors(algebra.size, len(variables)))
        for symbol, args in steps:
            vectors.append(algebra.op_on_vectors(symbol, [vectors[i] for i in args], width))
        return [vectors[i] for i in outputs]

    return run


def truth_vectors(
    formulas: Iterable[Formula], variables: Sequence[str], algebra: FiniteAlgebra
) -> list[Vector]:
    """Each formula's truth vector over ``variables``."""
    return vector_program(formulas, variables)(algebra)


def truth_vector(formula: Formula, variables: Sequence[str], algebra: FiniteAlgebra) -> Vector:
    """Formula value at every valuation of ``variables``, in valuation order."""
    return truth_vectors([formula], variables, algebra)[0]


def closure_vectors(
    formulas: Iterable[Formula],
    variables: Sequence[str],
    algebra: FiniteAlgebra,
    depth: int,
    key: Callable[[str], object] = lambda text: text,
    budget: int = DEFAULT_BUDGET,
) -> dict[Vector, Formula]:
    """The distinct truth vectors of ``bounded_closure(formulas, signature,
    depth)``, each with its least formula under ``key`` of the printed form.

    Each layer applies the connectives to the previous layer's
    representatives only. That loses no representative, because for both
    orders used here (printed text, and length then text) replacing an
    argument by a smaller one with the same vector gives a smaller formula.
    ``budget`` caps vector entries computed per layer, the seeds' included.
    The result is ordered by representative.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    signature = algebra.signature
    width = algebra.size ** len(variables)
    seeds = [*formulas, *(App(c, ()) for c in signature.constants)]

    def charge(count: int) -> None:
        if count * width > budget:
            try:
                valuations = str(width)
            except ValueError:  # more digits than the interpreter prints
                valuations = f"{algebra.size}^{len(variables)}"
            raise BudgetExceededError(
                f"closure layer of {count} formulas x {valuations} valuations "
                f"exceeds budget {budget}"
            )

    charge(len(seeds))
    best: dict[Vector, tuple[object, str, Formula]] = {}
    for formula, vector in zip(seeds, truth_vectors(seeds, variables, algebra)):
        text = print_formula(formula)
        rank = key(text)
        if vector not in best or rank < best[vector][0]:
            best[vector] = (rank, text, formula)
    for _ in range(depth):
        layer = [(vector, text, formula) for vector, (_, text, formula) in best.items()]
        charge(sum(len(layer) ** a for _, a in signature.connectives if a))
        for symbol, arity in signature.connectives:
            if arity == 0:
                continue
            for combo in product(layer, repeat=arity):
                vector = algebra.op_on_vectors(symbol, [c[0] for c in combo], width)
                text = f"({symbol} {' '.join(c[1] for c in combo)})"
                rank = key(text)
                if vector not in best or rank < best[vector][0]:
                    best[vector] = (rank, text, App(symbol, tuple(c[2] for c in combo)))
    ranked = sorted(best.items(), key=lambda item: item[1][0])
    return {vector: formula for vector, (_, _, formula) in ranked}


def _power_size(size: int, n: int) -> int:
    if n < 1:
        raise ValueError("power must be >= 1")
    if size > 1 and n > MAX_POWER_SIZE.bit_length():  # too large to compute or print
        count = f"{size}^{n}"
    elif size**n <= MAX_POWER_SIZE:
        return size**n
    else:
        count = str(size**n)
    raise BudgetExceededError(
        f"product carrier would have {count} elements, over the limit of {MAX_POWER_SIZE}"
    )


def product_algebra(algebra: FiniteAlgebra, n: int) -> FiniteAlgebra:
    """Direct power with coordinatewise operations and no order.

    Element i of the product is the tuple of base indices given by the
    row-major rank i (first coordinate most significant); constants are
    constant tuples. Each table is built one coordinate at a time, by index
    arithmetic: with x = (x1..xm) and d a base element, x*size + d is the
    element (x1..xm, d) of the next power, and the operation on such
    elements is its value on the x's times size plus its value on the d's.
    """
    _power_size(algebra.size, n)
    size = algebra.size
    carrier = tuple("(" + ",".join(algebra.carrier[c] for c in t) + ")"
                    for t in product(range(size), repeat=n))
    ops = []
    for symbol, arity in algebra.signature.connectives:
        base = table = algebra.tables[symbol]
        for width in (size**m for m in range(1, n)):  # table is on the width-element power
            if arity == 0:
                table = [table[0] * size + base[0]]
                continue
            # each column (arguments after the first) of the next power, as
            # its column on the width-element power and its base column
            columns = [(0, 0)]
            for _ in range(arity - 1):
                columns = [(c * width + x, b * size + d) for c, b in columns
                           for x in range(width) for d in range(size)]
            row, base_row = width ** (arity - 1), size ** (arity - 1)
            grown = []
            for x in range(width):
                old = table[x * row:(x + 1) * row]
                for d in range(size):
                    new = base[d * base_row:(d + 1) * base_row]
                    grown += [old[c] * size + new[b] for c, b in columns]
            table = grown
        ops.append((symbol, tuple(table)))
    return FiniteAlgebra(
        signature=algebra.signature,
        carrier=carrier,
        ops=tuple(ops),
        name=f"{algebra.name or 'algebra'}^{n}",
    )


@lru_cache(maxsize=4)
def shared_power(algebra: FiniteAlgebra, n: int) -> FiniteAlgebra:
    """``product_algebra(algebra, n)``, built once and shared by every later
    caller (the search and each homomorphism re-check of one command)."""
    return product_algebra(algebra, n)


def product_element_index(base_size: int, coords: Sequence[int]) -> int:
    """Rank of a coordinate tuple in the product carrier built above."""
    idx = 0
    for c in coords:
        idx = idx * base_size + c
    return idx


def is_homomorphism(
    mapping: Sequence[int], source: FiniteAlgebra, target: FiniteAlgebra
) -> tuple[bool, Optional[tuple[str, tuple[int, ...]]]]:
    """Check the homomorphism equation for every connective and argument tuple.

    Returns (True, None) or (False, (symbol, argument_tuple)) with the first
    violation in signature order / row-major argument order. Each row of
    equations (one first argument) is checked at once against the target
    side, which is computed coordinatewise once per image of the first
    argument.
    """
    if source.signature != target.signature:
        raise ValueError("source and target must share a signature")
    if len(mapping) != source.size:
        raise ValueError("mapping must be total on the source carrier")
    if any(not (0 <= v < target.size) for v in mapping):
        raise ValueError("mapping has out-of-range values")
    n = source.size
    for symbol, arity in source.signature.connectives:
        width = n ** max(arity - 1, 0)
        mapped = [mapping[v] for v in source.tables[symbol]]
        later = [tuple([mapping[a] for a in column])  # mapped later arguments of a row
                 for column in _variable_vectors(n, max(arity - 1, 0))]
        images: dict[int, list[int]] = {}  # target side of a row, by its first argument's image
        for first in range(n if arity else 1):
            head = mapping[first]
            if head not in images:
                args = [(head,) * width, *later] if arity else []
                images[head] = list(target.op_on_vectors(symbol, args, width))
            row, image = mapped[first * width:(first + 1) * width], images[head]
            if row != image:
                offset = next(i for i, (a, b) in enumerate(zip(row, image)) if a != b)
                args = next(islice(product(range(n), repeat=arity), first * width + offset, None))
                return False, (symbol, args)
    return True, None


@dataclass(frozen=True)
class AlgebraHomomorphism:
    """A checked structure-preserving map between algebras of one signature."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]

    def __post_init__(self):
        ok, witness = is_homomorphism(self.mapping, self.source, self.target)
        if not ok:
            symbol, args = witness
            raise ValueError(f"not a homomorphism: fails at {symbol} on {args}")

    def __call__(self, element: int) -> int:
        return self.mapping[element]


def search_tables(
    slots: int,
    size: int,
    constraints: Iterable[tuple],
    budget: int,
    stage: str = "table search",
) -> list[tuple[int, ...]]:
    """Every table t over ``range(size)`` with ``slots`` entries such that
    ``t[result] == table[row-major index of (t[a] for a in args)]`` for each
    constraint ``(table, args, result)``, in lexicographic order.

    Depth-first with an explicit stack, branching on the slots in index order;
    each constraint is checked once its last slot is assigned, a run on one
    ``args`` object sharing one index. Entering a node (giving a slot a value)
    charges one work unit plus one per constraint whose last slot it is; past
    ``budget`` the search stops with a ``BudgetExceededError`` naming ``stage``.
    """
    by_last: list[list[tuple]] = [[] for _ in range(slots)]
    for constraint in constraints:
        by_last[max((*constraint[1], constraint[2]))].append(constraint)
    cost = [1 + len(bucket) for bucket in by_last]
    units = 0

    # t[:k+1] is the partial table, and t[k] steps through the values upwards
    found: list[tuple[int, ...]] = []
    t, k = [-1] * slots, 0
    while k >= 0:
        value = t[k] + 1
        if value == size:
            t[k] = -1
            k -= 1
            continue
        t[k] = value
        units += cost[k]
        if units > budget:
            raise BudgetExceededError(f"{stage} charged {units} work units, over budget {budget}")
        shared = None  # the args whose index was worked out last, at this node
        for table, args, result in by_last[k]:
            if args is not shared:
                shared, index = args, 0
                for a in args:
                    index = index * size + t[a]
            if t[result] != table[index]:
                break
        else:
            if k + 1 == slots:
                found.append(tuple(t))
            else:
                k += 1
    return found


def enumerate_homomorphisms(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    budget: int = DEFAULT_BUDGET,
) -> list[AlgebraHomomorphism]:
    """All homomorphisms source -> target, in lexicographic table order: the table
    search over the source operations' equations, argument tuple by argument tuple."""
    if source.signature != target.signature:
        raise ValueError("source and target must share a signature")
    by_arity: dict[int, list[tuple]] = {}  # arity -> (target, source) tables of its connectives
    for symbol, arity in source.signature.connectives:
        by_arity.setdefault(arity, []).append((target.tables[symbol], source.tables[symbol]))
    equations = ((table, args, values[row]) for arity, pairs in by_arity.items()
                 for row, args in enumerate(product(range(source.size), repeat=arity))
                 for table, values in pairs)
    return [
        AlgebraHomomorphism(source, target, mapping)
        for mapping in search_tables(source.size, target.size, equations, budget,
                                     stage="homomorphism search")
    ]


def power_homomorphisms(
    algebra: FiniteAlgebra, n: int, budget: int = DEFAULT_BUDGET
) -> list[AlgebraHomomorphism]:
    """All homomorphisms algebra^n -> algebra. A power too large, or with
    more homomorphism equations than ``MAX_CONSTRAINTS``, is refused before
    it is built."""
    power = _power_size(algebra.size, n)
    equations = sum(power**arity for _, arity in algebra.signature.connectives)
    if equations > MAX_CONSTRAINTS:
        raise BudgetExceededError(
            f"homomorphism search of {algebra.name or 'algebra'}^{n} would read "
            f"{equations} equations, over the limit of {MAX_CONSTRAINTS}"
        )
    return enumerate_homomorphisms(shared_power(algebra, n), algebra, budget)


# ---------------------------------------------------------------------------
# Built-in algebras
# ---------------------------------------------------------------------------

BOOLEAN_SIGNATURE = Signature(
    (("not", 1), ("or", 2), ("and", 2), ("bot", 0), ("top", 0))
)

MV_SIGNATURE = Signature(
    (("not", 1), ("oplus", 2), ("odot", 2), ("impl", 2), ("0", 0), ("1", 0))
)


def builtin_boolean2() -> FiniteAlgebra:
    """The two-element Boolean algebra over not/or/and with bot/top."""
    return FiniteAlgebra(
        signature=BOOLEAN_SIGNATURE,
        carrier=("0", "1"),
        ops=(
            ("not", (1, 0)),
            ("or", (0, 1, 1, 1)),
            ("and", (0, 0, 0, 1)),
            ("bot", (0,)),
            ("top", (1,)),
        ),
        order=frozenset({(0, 0), (0, 1), (1, 1)}),
        name="boolean2",
    )


def builtin_mv_chain(k: int) -> FiniteAlgebra:
    """The k-element Łukasiewicz chain on {0, 1/(k-1), ..., 1}.

    not x = 1-x, x oplus y = min(1, x+y), x odot y = max(0, x+y-1),
    x impl y = min(1, 1-x+y); all table entries computed in exact rationals.
    """
    if k < 2:
        raise ValueError("chain needs at least 2 elements")
    values = [Fraction(i, k - 1) for i in range(k)]
    index = {v: i for i, v in enumerate(values)}
    one = Fraction(1)
    zero = Fraction(0)

    def tab1(fn):
        return tuple(index[fn(a)] for a in values)

    def tab2(fn):
        return tuple(index[fn(a, b)] for a in values for b in values)

    return FiniteAlgebra(
        signature=MV_SIGNATURE,
        carrier=tuple(str(v) for v in values),
        ops=(
            ("not", tab1(lambda a: one - a)),
            ("oplus", tab2(lambda a, b: min(one, a + b))),
            ("odot", tab2(lambda a, b: max(zero, a + b - 1))),
            ("impl", tab2(lambda a, b: min(one, one - a + b))),
            ("0", (0,)),
            ("1", (k - 1,)),
        ),
        order=frozenset((i, j) for i in range(k) for j in range(k) if i <= j),
        name=f"lukasiewicz{k}",
    )


LATTICE_SIGNATURE = Signature((("and", 2), ("or", 2), ("bot", 0), ("top", 0)))


def builtin_distributive_lattice(
    labels: Sequence[str], leq_pairs: Iterable[tuple[int, int]]
) -> FiniteAlgebra:
    """A bounded distributive lattice from a poset presentation.

    ``leq_pairs`` may be any generating relation; its reflexive-transitive
    closure must be a partial order in which every pair has a meet and a
    join, meets distribute over joins, and a least and greatest element
    exist (exposed as the constants bot/top).
    """
    n = len(labels)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in leq_pairs:
        leq[a][b] = True
    for m in range(n):  # transitive closure
        for a in range(n):
            if leq[a][m]:
                for b in range(n):
                    if leq[m][b]:
                        leq[a][b] = True
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise ValueError("order not antisymmetric")

    def bound(a: int, b: int, below: list[list[bool]], name: str) -> int:
        """The greatest common lower bound of a and b under ``below``."""
        common = [c for c in range(n) if below[c][a] and below[c][b]]
        best = [c for c in common if all(below[d][c] for d in common)]
        if len(best) != 1:
            raise ValueError(f"no {name} for {labels[a]!r}, {labels[b]!r}")
        return best[0]

    geq = [list(column) for column in zip(*leq)]
    meets = tuple(bound(a, b, leq, "meet") for a in range(n) for b in range(n))
    joins = tuple(bound(a, b, geq, "join") for a in range(n) for b in range(n))
    bottoms = [c for c in range(n) if all(leq[c][d] for d in range(n))]
    tops = [c for c in range(n) if all(leq[d][c] for d in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise ValueError("lattice must be bounded (unique bot and top)")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = meets[a * n + joins[b * n + c]]
                rhs = joins[meets[a * n + b] * n + meets[a * n + c]]
                if lhs != rhs:
                    raise ValueError(
                        "lattice not distributive: fails at "
                        f"({labels[a]}, {labels[b]}, {labels[c]})"
                    )
    return FiniteAlgebra(
        signature=LATTICE_SIGNATURE,
        carrier=tuple(labels),
        ops=(
            ("and", meets),
            ("or", joins),
            ("bot", (bottoms[0],)),
            ("top", (tops[0],)),
        ),
        order=frozenset((a, b) for a in range(n) for b in range(n) if leq[a][b]),
        name="bounded-distributive-lattice",
    )
