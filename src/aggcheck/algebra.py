"""Finite algebras as operation tables, with products and homomorphisms.

Carrier elements are indices 0..n-1; labels are presentation-only (rational
labels for many-valued chains, subset labels for powerset algebras), so all
computation is exact integer table lookup.
"""

from __future__ import annotations

import gc
import math
import sys
from contextlib import contextmanager, suppress
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement, product, repeat
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import BudgetExceededError, EvaluationError
from .record import frozen
from .syntax import App, Formula, Signature, Var, print_formula

# Variable assignment into an algebra: variable name -> carrier index.
Valuation = Mapping[str, int]

DEFAULT_BUDGET = 10**8  # the one default limit every budgeted stage compares its count with
MAX_POWER_SIZE = 10_000  # most elements of a power that product_algebra builds
# Most homomorphism equations a table search is handed, table entries it keeps and
# rational profiles a check walks: an equation costs about 25 bytes once bucketed
# (three list entries; tests/test_search.py measures it), so the cap bounds the
# search's memory as the budget bounds its time.
MAX_CONSTRAINTS = 2_000_000
# Most bytes a stage that states its bytes per unit may build (the census's constraints).
MAX_BYTES = 256 * 2**20


@contextmanager
def paused_collector():
    """Pause the cyclic garbage collector for the block, then leave it as it was.
    A search's argument tuples stay tracked and make no cycle, so full collections
    as they pile up would free nothing."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _within(table: Sequence[int], n: int) -> bool:
    """Whether every entry of the table is in range(n): for n <= 256, by packing it
    into bytes (entries 0..255 only) and deleting every byte below n."""
    if n > 256:
        return min(table) >= 0 and max(table) < n
    try:
        return not bytes(table).translate(None, bytes(range(n)))
    except ValueError:
        return False


@frozen
class FiniteAlgebra:
    """A total algebra over a signature, given by flat row-major tables.

    ``ops`` pairs each connective with a tuple of length ``len(carrier)**arity``
    (bytes, one byte per entry, in a power of at most 256 elements); the entry
    for arguments (a1,...,am) sits at row-major position a1*n^(m-1) + ... + am.
    ``order`` optionally carries a partial order on carrier indices (needed for
    degree-mode semantics).
    """

    signature: Signature
    carrier: tuple[str, ...]
    ops: tuple[tuple[str, Union[tuple[int, ...], bytes]], ...]
    order: Optional[frozenset[tuple[int, int]]] = None
    name: str = ""

    def __post_init__(self):
        n = len(self.carrier)
        if n == 0:
            raise ValueError("carrier must be nonempty")
        if len(set(self.carrier)) != n:
            raise ValueError("carrier labels must be distinct")
        tables = dict(self.ops)
        if len(tables) != len(self.ops):
            raise ValueError("duplicate operation name")
        for symbol, arity in self.signature.connectives:
            if symbol not in tables:
                raise ValueError(f"missing table for connective {symbol!r}")
            table = tables[symbol]
            # n**arity only once it is known to be at most len(table): arities come from files
            if (expected := _power_over(n, arity, len(table))) or n**arity != len(table):
                raise ValueError(
                    f"table for {symbol!r} has {len(table)} entries, "
                    f"expected {expected or n**arity}"
                )
            if not _within(table, n):
                raise ValueError(f"table for {symbol!r} has out-of-range entries")
        extra = set(tables) - set(self.signature.arities)
        if extra:
            raise ValueError(f"tables for unknown connectives: {sorted(extra)}")
        if (order := self.order) is not None:
            if not all(0 <= x < n for pair in order for x in pair):
                raise ValueError("order has out-of-range entries")
            up = [0] * n  # bit b of up[a] set where a <= b
            for a, b in order:
                up[a] |= 1 << b
            for a in range(n):
                if not up[a] >> a & 1:
                    raise ValueError("order not reflexive")
            for a, b in order:  # b <= c must give a <= c: up[b] within up[a]
                if up[b] >> a & 1 and a != b:
                    raise ValueError("order not antisymmetric")
                if up[b] & ~up[a]:
                    raise ValueError("order not transitive")

    @cached_property
    def size(self) -> int:
        return len(self.carrier)

    @cached_property
    def tables(self) -> dict[str, Union[tuple[int, ...], bytes]]:
        return dict(self.ops)

    @cached_property
    def _lookups(self) -> dict[str, bytes]:
        """Each table of at most 256 entries over at most 256 elements, padded to
        256 bytes for ``bytes.translate``."""
        if self.size > 256:
            return {}
        return {symbol: bytes(table).ljust(256, b"\0")
                for symbol, table in self.ops if len(table) <= 256}

    def op_on_vectors(self, symbol: str, args: Sequence[Vector], width: int) -> Vector:
        """The connective's table applied coordinatewise to argument vectors of
        ``width`` lanes: on bytes, while the table has at most 256 entries, one
        ``bytes.translate`` of the arguments' lane indices (``_lane_indices``)."""
        index = _lane_indices(args, self.size, width)
        if (lookup := self._lookups.get(symbol)) is not None:
            return index.translate(lookup)
        table = self.tables[symbol]
        values = [table[i] for i in index]
        return bytes(values) if self.size <= 256 else tuple(values)

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


# A truth vector is a formula's value at every valuation of a fixed variable
# list, the valuations in lexicographic order of their value tuples (the order
# of oracles.all_valuations). Over at most 256 elements it is bytes, one lane
# (byte) per valuation; past that, a tuple of ints. An algebra's vectors all
# take one form, so no dict keyed by vectors mixes the two.
Vector = Union[bytes, tuple[int, ...]]


def _lane_indices(args: Sequence[Vector], base: int, width: int) -> Union[bytes, list[int]]:
    """Each lane's row-major index of its values in ``args`` (digits in ``base``),
    for no arguments 0. As bytes while the args are and every index is below
    256: by Horner's rule on the vectors read as little-endian ints, whose lanes
    cannot carry then. Else a list, lane by lane."""
    if not args:
        return bytes(width)
    if base ** len(args) <= 256 and isinstance(args[0], bytes):
        index = int.from_bytes(args[0], "little")
        for arg in args[1:]:
            index = index * base + int.from_bytes(arg, "little")
        return index.to_bytes(width, "little") if len(args) > 1 else args[0]
    index = list(args[0])
    for arg in args[1:]:
        index = [i * base + a for i, a in zip(index, arg)]
    return index


def _join(size: int) -> Callable[[Iterable[Vector]], Vector]:
    """How vectors over ``size`` elements are laid end to end, keeping their form."""
    return b"".join if size <= 256 else lambda vectors: tuple(chain.from_iterable(vectors))


@lru_cache(maxsize=None)
def _variable_vectors(size: int, count: int) -> tuple[Vector, ...]:
    """Truth vectors of ``count`` variables over a carrier of ``size``: variable i
    runs through the carrier in blocks of ``size**(count-1-i)`` equal values,
    repeated ``size**i`` times, with no valuation built."""
    join, form = _join(size), bytes if size <= 256 else tuple
    return tuple(join(form((v,)) * size ** (count - 1 - i) for v in range(size)) * size**i
                 for i in range(count))


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
    steps: dict[tuple[str, tuple[int, ...]], int] = {}  # step -> slot: equal ones share it
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
                    step = (node.symbol, tuple(slots[slot_key(a)] for a in node.args))
                    slots[id(node)] = steps.setdefault(step, len(variables) + len(steps))
    return list(steps), [slots[slot_key(f)] for f in formulas]


def _vector_program(
    formulas: Iterable[Formula], variables: Sequence[str]
) -> Callable[[FiniteAlgebra], list[Vector]]:
    """Compile formulas once: running the program on an algebra gives each formula's
    truth vector over ``variables``, bottom-up over their distinct subformulas. A
    vector no output needs is dropped after the last step that reads it."""
    steps, outputs = _program_steps(formulas, variables)
    count = len(variables)
    last_read = {i: j for j, (_, args) in enumerate(steps) for i in args}
    for i in outputs:
        last_read.pop(i, None)
    done: list[list[int]] = [[] for _ in steps]  # the slots each step reads for the last time
    for i, j in last_read.items():
        done[j].append(i)

    def run(algebra: FiniteAlgebra) -> list[Vector]:
        refuse(DEFAULT_BUDGET, "truth vectors", (count + len(steps), "vectors"),
               ((algebra.size, count), "valuations"))  # a memory bound: no caller's budget
        width = algebra.size ** count
        vectors: list[Optional[Vector]] = list(_variable_vectors(algebra.size, count))
        for (symbol, args), dropped in zip(steps, done):
            vectors.append(algebra.op_on_vectors(symbol, [vectors[i] for i in args], width))
            for i in dropped:
                vectors[i] = None
        return [vectors[i] for i in outputs]

    return run


def truth_vectors(
    formulas: Iterable[Formula], variables: Sequence[str], algebra: FiniteAlgebra
) -> list[Vector]:
    """Each formula's truth vector over ``variables``: their program, compiled and run."""
    return _vector_program(formulas, variables)(algebra)


def closure_vectors(
    formulas: Iterable[Formula],
    variables: Sequence[str],
    algebra: FiniteAlgebra,
    depth: int,
    budget: int = DEFAULT_BUDGET,
) -> dict[Vector, Formula]:
    """The distinct truth vectors of ``bounded_closure(formulas, signature,
    depth)``, each with its shortest formula, ties broken by printed text.

    Each layer applies the connectives to the previous layer's
    representatives only. That loses no representative, because replacing
    an argument by a smaller one with the same vector gives a smaller
    formula. A layer that changes nothing would repeat itself, so the
    closure stops there. A layer is computed one first argument at a time,
    in one ``op_on_vectors`` over the vectors of all its partners (the tuples
    of the other arguments) laid end to end, and a candidate's printed
    length, the first's plus its partners', is compared before its text is
    built. ``budget`` caps vector entries computed per layer, the seeds'
    included. The result is ordered by representative.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    signature = algebra.signature
    seeds = [*formulas, *(App(c, ()) for c in signature.constants)]
    valuations = ((algebra.size, len(variables)), "valuations")  # each formula's vector entries
    refuse(budget, "closure seed", (len(seeds), "formulas"), valuations)
    width = algebra.size ** len(variables)
    best: dict[Vector, tuple[int, str, Formula]] = {}  # printed length, text, formula
    for formula, vector in zip(seeds, truth_vectors(seeds, variables, algebra)):
        text = print_formula(formula)
        if vector not in best or (len(text), text) < best[vector][:2]:
            best[vector] = (len(text), text, formula)
    join = _join(algebra.size)
    for _ in range(depth):
        layer = list(best.items())
        count = sum(len(layer) ** a for _, a in signature.connectives if a)
        refuse(budget, "closure layer", (count, "formulas"), valuations)
        changed = False
        for symbol, arity in signature.connectives:
            if arity == 0:
                continue
            partners = list(product(layer, repeat=arity - 1))
            columns = [join([p[j][0] for p in partners]) for j in range(arity - 1)]
            tails = ["".join(f" {text}" for _, (_, text, _) in p) for p in partners]
            for first, (length, text, formula) in layer:
                row = algebra.op_on_vectors(symbol, [first * len(partners), *columns],
                                            len(partners) * width)
                length += len(symbol) + 3  # a candidate's printed length, less its tail's
                for start, partner, tail in zip(range(0, len(row), width), partners, tails):
                    vector = row[start:start + width]
                    held = best.get(vector)
                    if held is not None and length + len(tail) > held[0]:
                        continue
                    candidate = f"({symbol} {text}{tail})"
                    if held is None or (len(candidate), candidate) < held[:2]:
                        best[vector] = (len(candidate), candidate,
                                        App(symbol, (formula, *(f for _, (_, _, f) in partner))))
                        changed = True
        if not changed:
            break
    ranked = sorted(best.items(), key=lambda item: item[1][:2])
    return {vector: formula for vector, (_, _, formula) in ranked}


def _power_over(base: int, exponent: int, limit: int) -> Optional[str]:
    """None if ``base**exponent`` is at most ``limit``, else that count as text: decimal
    while the interpreter prints it, ``base^exponent`` (never computed) past that."""
    if base < 2 or exponent <= limit.bit_length():  # else 2^exponent alone is past the limit
        return None if base**exponent <= limit else str(base**exponent)
    if exponent >= (sys.get_int_max_str_digits() - 1) / math.log10(base):
        return f"{base}^{exponent}"
    return str(base**exponent)


def refuse(limit: int, stage: str, *factors: tuple[Union[int, tuple[int, int]], str]) -> None:
    """The one budget refusal: ``{stage}: {count} {unit} x ... exceed the limit of {limit}``,
    raised when the counts' product exceeds ``limit``, with `` = {total}`` after two or more
    counts that all print in decimal. A count is an int or a ``(base, exponent)`` power,
    printed by ``_power_over`` and never computed past the limit; a zero count refuses nothing."""
    powers = [count if isinstance(count, tuple) else (count, 1) for count, _ in factors]
    if any(base == 0 < exponent for base, exponent in powers):
        return
    past = [_power_over(base, exponent, limit) for base, exponent in powers]  # None: within it
    if not any(past) and math.prod(base**exponent for base, exponent in powers) <= limit:
        return
    texts = [text or str(base**exponent) for text, (base, exponent) in zip(past, powers)]
    message = " x ".join(f"{text} {unit}" for text, (_, unit) in zip(texts, factors))
    if len(texts) > 1 and all(map(str.isdigit, texts)):
        with suppress(ValueError):  # a total past the interpreter's digit limit goes unprinted
            message += f" = {math.prod(map(int, texts))}"
    raise BudgetExceededError(f"{stage}: {message} exceed the limit of {limit}")


def _power_size(size: int, n: int) -> int:
    if n < 1:
        raise ValueError("power must be >= 1")
    refuse(MAX_POWER_SIZE, "product carrier", ((size, n), "elements"))
    return size**n


def _next_power_table(
    table: Union[bytes, Sequence[int]], base: Sequence[int], size: int, width: int, arity: int
) -> Union[bytes, list[int]]:
    """An operation's table on the power of ``size * width`` elements, from its
    ``table`` on the power of ``width`` elements and its ``base`` table, the new
    coordinate most significant: (d, x) ranks d·width + x. Holding the arguments
    before the last, the last argument's block for one base element d is the old
    table's row over the last x, shifted by the base value on the d's times width.
    A bytes table shifts a row by ``bytes.translate``, so its values must stay
    below 256; any other table is shifted entry by entry into a list."""
    lanes = isinstance(table, bytes)
    if arity == 0:
        value = base[0] * width + table[0]
        return bytes([value]) if lanes else [value]
    rows = [table[i:i + width] for i in range(0, len(table), width)]
    if lanes:  # one translate table per shift, values past the row left at 0
        shifts = [bytes(range(v * width, (v + 1) * width)).ljust(256, b"\0") for v in range(size)]
        shifted = [[row.translate(shift) for shift in shifts] for row in rows]
    else:
        shifted = [[[x + v * width for x in row] for v in range(size)] for row in rows]
    # each tuple of the arguments before the last, in row-major order, as the rank of
    # its base coordinates among base tuples and of its old coordinates among old ones
    prefixes = [(0, 0)]
    for _ in range(arity - 1):
        prefixes = [(b * size + d, r * width + x) for b, r in prefixes
                    for d in range(size) for x in range(width)]
    blocks = [shifted[r][base[b * size + d]] for b, r in prefixes for d in range(size)]
    return b"".join(blocks) if lanes else list(chain.from_iterable(blocks))


def product_algebra(algebra: FiniteAlgebra, n: int) -> FiniteAlgebra:
    """Direct power with coordinatewise operations and no order.

    Element i of the product is the tuple of base indices given by the
    row-major rank i (first coordinate most significant); constants are
    constant tuples. Each table is built one coordinate at a time, each new
    coordinate the most significant one (see ``_next_power_table``), so every
    block of a new table is a shifted row of the last one. While the power has
    at most 256 elements, a table is built and kept as bytes, one byte per entry.
    """
    _power_size(algebra.size, n)
    size = algebra.size
    # a label with a comma or quote is quoted, so that no two tuples' labels coincide
    labels = [repr(c) if {",", "'", '"'} & set(c) else c for c in algebra.carrier]
    carrier = tuple("(" + ",".join(t) + ")" for t in product(labels, repeat=n))
    lanes = size**n <= 256
    ops = []
    for symbol, arity in algebra.signature.connectives:
        base = algebra.tables[symbol]
        table = bytes(base) if lanes else base
        for width in (size**m for m in range(1, n)):  # table is on the width-element power
            table = _next_power_table(table, base, size, width, arity)
        ops.append((symbol, table if lanes else tuple(table)))
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


def element_coordinates(base_size: int, count: int, rank: int) -> tuple[int, ...]:
    """The ``count`` coordinates of the element at ``rank``: the inverse of
    product_element_index, first coordinate most significant."""
    return tuple(rank // base_size ** (count - 1 - i) % base_size for i in range(count))


def is_homomorphism(
    mapping: Sequence[int], source: FiniteAlgebra, target: FiniteAlgebra
) -> tuple[bool, Optional[tuple[str, tuple[int, ...]]]]:
    """Check the homomorphism equation for every connective and argument tuple.

    Returns (True, None) or (False, (symbol, argument_tuple)) with the first
    violation in signature order / row-major argument order. Each connective's
    source table is mapped through ``mapping`` in one step and compared with the
    target side, one row per first argument. A row's later arguments, mapped,
    are read once per connective as lane indices into a row of the target's
    table (the partner vector), and the row for a first argument is the
    partner vector looked up in the target's row for that argument's image:
    one ``bytes.translate`` while a target row has at most 256 entries. While
    the target has at most 256 elements, both sides are bytes and compared
    whole, the rows joined. Past that, they are lists, compared row by row. The
    first differing entry gives the witness.
    """
    if source.signature != target.signature:
        raise ValueError("source and target must share a signature")
    if len(mapping) != source.size:
        raise ValueError("mapping must be total on the source carrier")
    if not _within(mapping, target.size):
        raise ValueError("mapping has out-of-range values")
    n, size = source.size, target.size
    form = bytes if size <= 256 else list  # of the mapped tables and the target's rows
    image_of = bytes(mapping).ljust(256, b"\0") if form is bytes and n <= 256 else None
    for symbol, arity in source.signature.connectives:
        width = n ** max(arity - 1, 0)
        table = source.tables[symbol]
        if image_of is not None:
            mapped = bytes(table).translate(image_of)
        else:
            mapped = form(map(mapping.__getitem__, table))
        later = [form(map(mapping.__getitem__, column))
                 for column in _variable_vectors(n, max(arity - 1, 0))]
        partner = _lane_indices(later, size, width)  # into a row of the target's table
        span = size ** max(arity - 1, 0)
        rows = target.tables[symbol]
        heads = mapping if arity else (0,)  # each row's first argument, mapped; a constant: one row
        images = {}  # target side of a row, by its first argument's image
        for head in dict.fromkeys(heads):
            row = rows[head * span:(head + 1) * span]
            if form is bytes and isinstance(partner, bytes):
                images[head] = partner.translate(bytes(row).ljust(256, b"\0"))
            else:
                images[head] = form(map(row.__getitem__, partner))
        if form is bytes:  # the whole table at once, its rows joined
            blocks = [(0, mapped, b"".join(map(images.__getitem__, heads)))]
        else:  # row by row, so no second table is built
            blocks = ((first * width, mapped[first * width:(first + 1) * width], images[head])
                      for first, head in enumerate(heads))
        for start, block, image in blocks:
            if block != image:
                offset = next(i for i, (a, b) in enumerate(zip(block, image)) if a != b)
                return False, (symbol, element_coordinates(n, arity, start + offset))
    return True, None


@frozen
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


@frozen
class DecisionCriterion:
    """A total map from voter-value tuples into the value algebra.

    ``values`` is indexed by the row-major rank of the voter tuple (voter 0
    most significant), matching the product-algebra carrier order.
    """

    algebra: FiniteAlgebra
    electorate: int
    values: tuple[int, ...]

    def __post_init__(self):
        size, n, count = self.algebra.size, self.electorate, len(self.values)
        if n < 1:
            raise ValueError(f"criterion electorate must be >= 1, got {n}")
        if _power_over(size, n, count) or count != size**n:  # no size**n past count
            raise ValueError(f"criterion table needs {size}^{n} entries, got {count}")
        if any(not (0 <= v < self.algebra.size) for v in self.values):
            raise ValueError("criterion values outside the carrier")

    def __call__(self, coords: Sequence[int]) -> int:
        return self.values[product_element_index(self.algebra.size, coords)]

    def homomorphism_violation(self) -> Optional[tuple[str, tuple[int, ...]]]:
        """The first failure of the homomorphism equation from the voter-power
        algebra to the value algebra (see is_homomorphism), or None. The power
        is refused unbuilt past the caps of the homomorphism search."""
        refuse_power_past_the_caps(self.algebra, self.electorate)
        power = shared_power(self.algebra, self.electorate)
        return is_homomorphism(self.values, power, self.algebra)[1]


def _lex_comparisons(perm: Sequence[int], slots: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The slots where ``t`` and ``t∘perm`` may differ, in order, each as ``(p, perm[p])``,
    and the depth at which each comparison is decided (its later slot), ending in
    ``slots`` (never). A slot whose image comes before it and maps back to it repeats
    a comparison already found equal, so it is left out. The identity compares nothing."""
    pairs = [(p, q) for p, q in enumerate(perm) if q > p or (q < p and perm[q] != p)]
    return pairs, [max(pair) for pair in pairs] + [slots]


def _close_under(
    tables: Iterable[tuple[int, ...]], symmetries: Sequence[Sequence[int]], stage: str
) -> list[tuple[int, ...]]:
    """``tables`` closed under ``t -> t∘perm`` (``t[perm[i]]`` at slot i) for each of
    the permutations (none the identity), without repeats, in lexicographic order;
    refused, naming ``stage``, before it keeps more than ``MAX_CONSTRAINTS`` entries."""
    seen = dict.fromkeys(tables)
    queue = list(seen)
    images = [itemgetter(*perm) for perm in symmetries]
    for table in queue:  # grows as new images turn up
        for image in images:
            permuted = image(table)
            if permuted not in seen:
                refuse(MAX_CONSTRAINTS, stage, (len(queue) + 1, "tables"), (len(table), "entries"))
                seen[permuted] = None
                queue.append(permuted)
    return sorted(seen)


def search_tables(
    slots: int,
    size: int,
    constraints: Iterable[tuple],
    budget: int,
    stage: str = "table search",
    symmetries: Iterable[Sequence[int]] = (),
) -> list[tuple[int, ...]]:
    """Every table t over ``range(size)`` with ``slots`` entries such that
    ``t[result] == table[row-major index of (t[a] for a in args)]`` for each
    constraint ``(table, args, result)``, in lexicographic order.

    Depth-first with an explicit stack, branching on the slots in index order;
    each constraint is checked once its last slot is assigned, a run on one
    ``args`` object sharing one index. That last slot is found once per run of
    constraints sharing one ``args`` object, too: ``args``'s largest slot, or
    the constraint's ``result`` if greater. The constraint is kept in that slot's
    bucket, flat: as three consecutive entries of the bucket's list, with no tuple
    of its own. Entering a node (giving a slot a value)
    charges one work unit plus one per constraint whose last slot it is; past
    ``budget`` the search stops with a ``BudgetExceededError`` naming ``stage``.
    It stops the same way before the tables it keeps (found, and their images
    under ``symmetries``) would hold more than ``MAX_CONSTRAINTS`` entries.

    ``symmetries`` are slot permutations that map solutions to solutions: with
    t, ``t∘perm`` (``t[perm[i]]`` at slot i) is one. The search then keeps lex-leaders
    only: a node is pruned, after its charge, as soon as the assigned slots make t
    greater than ``t∘perm`` for some permutation, and the tables found are closed
    under the permutations at the end. The least table of each orbit is a
    lex-leader, so the list is the one the plain search finds.
    """
    by_last: list[list] = [[] for _ in range(slots)]  # three entries per constraint
    shared, top = None, -1  # the args of the run being bucketed, and its largest slot
    for constraint in constraints:
        _, args, result = constraint
        if args is not shared:
            shared, top = args, -1
            for a in args:
                if a > top:
                    top = a
        by_last[result if result > top else top].extend(constraint)
    cost = [1 + len(bucket) // 3 for bucket in by_last]
    units = 0
    perms = [tuple(perm) for perm in symmetries]
    if any(sorted(perm) != list(range(slots)) for perm in perms):
        raise ValueError("a symmetry must be a permutation of the table's slots")
    perms = [perm for perm in perms if perm != tuple(range(slots))]
    comparisons = [_lex_comparisons(perm, slots) for perm in perms]
    # fronts[k][g]: the first comparison of t with t∘perms[g] not yet decided equal, once
    # slots below k are assigned; len(pairs) once t is known to be the lesser
    fronts = [[0] * len(perms) for _ in range(slots + 1)]

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
            refuse(budget, stage, (units, "work units"))
        leader = True  # t <= t∘perm on the slots assigned, for every permutation
        before, after = fronts[k], fronts[k + 1]
        for g, (pairs, decided) in enumerate(comparisons):
            j = before[g]
            while decided[j] <= k:
                p, q = pairs[j]
                if t[p] != t[q]:
                    leader, j = t[p] < t[q], len(pairs)
                    break
                j += 1
            if not leader:
                break
            after[g] = j
        if not leader:
            continue
        shared = None  # the args whose index was worked out last, at this node
        constraint = iter(by_last[k])
        for table, args, result in zip(constraint, constraint, constraint):
            if args is not shared:
                shared, index = args, 0
                for a in args:
                    index = index * size + t[a]
            if t[result] != table[index]:
                break
        else:
            if k + 1 == slots:
                refuse(MAX_CONSTRAINTS, stage, (len(found) + 1, "tables"), (slots, "entries"))
                found.append(tuple(t))
            else:
                k += 1
    return _close_under(found, perms, stage) if perms else found


def _commutative(table: Union[bytes, Sequence[int]], size: int, arity: int) -> bool:
    """Whether a connective's table on ``size`` elements is binary and gives the
    arguments (a, b) and (b, a) one value: row a equals column a, for every a.
    A bytes table compares its slices as bytes, faster than a tuple's."""
    return arity == 2 and all(table[a::size] == table[a * size:(a + 1) * size]
                              for a in range(size))


def enumerate_homomorphisms(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    budget: int = DEFAULT_BUDGET,
    symmetries: Iterable[Sequence[int]] = (),
) -> list[AlgebraHomomorphism]:
    """All homomorphisms source -> target, in lexicographic table order: the table
    search over the source operations' equations, argument tuple by argument tuple.
    A binary connective commutative in both algebras has the same equation at (a, b)
    and (b, a) (one result slot, one target entry), so only a <= b is handed on.
    ``symmetries`` are automorphisms of ``source`` (as tables of its elements' images),
    which map homomorphisms to homomorphisms; the search keeps one table per orbit
    and expands the orbits, and every table found is re-checked."""
    if source.signature != target.signature:
        raise ValueError("source and target must share a signature")
    n = source.size
    with paused_collector():  # the argument rows are many tuples that make no cycle
        # (arity, commutative in both) -> the (target, source) tables of its connectives
        groups: dict[tuple[int, bool], list[tuple]] = {}
        for symbol, arity in source.signature.connectives:
            commutative = (_commutative(target.tables[symbol], target.size, arity)
                           and _commutative(source.tables[symbol], n, arity))
            groups.setdefault((arity, commutative), []).append(
                (target.tables[symbol], source.tables[symbol]))
        runs = []  # each argument tuple's equations together, one per connective of its group
        for (arity, commutative), pairs in groups.items():
            if commutative:
                rows = list(combinations_with_replacement(range(n), 2))
                upper = [slice(a * n + a, (a + 1) * n) for a in range(n)]  # row a from column a
                pairs = [(image, chain.from_iterable(map(table.__getitem__, upper)))
                         for image, table in pairs]  # each a <= b once, streamed
            else:
                rows = list(product(range(n), repeat=arity))
            runs.append(chain.from_iterable(zip(*(zip(repeat(image), rows, values)
                                                  for image, values in pairs))))
        found = search_tables(n, target.size, chain.from_iterable(runs), budget,
                              stage="homomorphism search", symmetries=symmetries)
    return [AlgebraHomomorphism(source, target, mapping) for mapping in found]


def refuse_power_past_the_caps(algebra: FiniteAlgebra, n: int) -> None:
    """Refuse algebra^n unbuilt when it is too large, or has more homomorphism
    equations than ``MAX_CONSTRAINTS``: those ``enumerate_homomorphisms`` hands the
    search, one per unordered argument pair of a commutative binary connective (a
    connective of the power is commutative exactly when the base's is)."""
    power = _power_size(algebra.size, n)
    equations = sum(
        power * (power + 1) // 2 if _commutative(algebra.tables[symbol], algebra.size, arity)
        else power**arity for symbol, arity in algebra.signature.connectives)
    refuse(MAX_CONSTRAINTS, f"homomorphism search of {algebra.name or 'algebra'}^{n}",
           (equations, "equations"))


def _coordinate_swaps(size: int, n: int) -> list[list[int]]:
    """For each i < n-1, the automorphism of a size-element algebra's n-th power that
    swaps coordinates i and i+1, on ranks: with c and d those coordinates of rank r
    and w the weight of coordinate i+1, r moves by (d - c)·(size - 1)·w."""
    swaps = []
    for i in range(n - 1):
        w = size ** (n - 2 - i)
        swaps.append([r + (r // w % size - r // (w * size) % size) * (size - 1) * w
                      for r in range(size**n)])
    return swaps


def power_homomorphisms(
    algebra: FiniteAlgebra, n: int, budget: int = DEFAULT_BUDGET
) -> list[AlgebraHomomorphism]:
    """All homomorphisms algebra^n -> algebra, refused unbuilt past the caps, searched
    up to the coordinate swaps of algebra^n."""
    refuse_power_past_the_caps(algebra, n)
    return enumerate_homomorphisms(shared_power(algebra, n), algebra, budget,
                                   symmetries=_coordinate_swaps(algebra.size, n))


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


def _fraction_label(numerator: int, denominator: int) -> str:
    """The fraction in lowest terms, written as str(Fraction) writes it."""
    common = math.gcd(numerator, denominator)
    numerator, denominator = numerator // common, denominator // common
    return f"{numerator}/{denominator}" if denominator > 1 else str(numerator)


def builtin_mv_chain(k: int) -> FiniteAlgebra:
    """The k-element Łukasiewicz chain on {0, 1/(k-1), ..., 1}.

    not x = 1-x, x oplus y = min(1, x+y), x odot y = max(0, x+y-1),
    x impl y = min(1, 1-x+y); the tables compute these on the indices
    0..k-1 of the elements, scaled by k-1.
    """
    if k < 2:
        raise ValueError("chain needs at least 2 elements")
    refuse(MAX_POWER_SIZE, "builtin chain", ((k, 2), "table entries"))  # per binary table
    top, values = k - 1, range(k)
    return FiniteAlgebra(
        signature=MV_SIGNATURE,
        carrier=tuple(_fraction_label(i, top) for i in values),
        ops=(
            ("not", tuple(top - a for a in values)),
            ("oplus", tuple(min(top, a + b) for a in values for b in values)),
            ("odot", tuple(max(0, a + b - top) for a in values for b in values)),
            ("impl", tuple(min(top, top - a + b) for a in values for b in values)),
            ("0", (0,)),
            ("1", (top,)),
        ),
        order=frozenset((i, j) for i in range(k) for j in range(k) if i <= j),
        name=f"lukasiewicz{k}",
    )
