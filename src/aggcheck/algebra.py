"""Finite algebras as operation tables, with products and homomorphisms.

Carrier elements are indices 0..n-1; labels are presentation-only (rational
labels for many-valued chains, subset labels for powerset algebras), so all
computation is exact integer table lookup.
"""

from __future__ import annotations

import gc
import math
import struct
import sys
from contextlib import contextmanager, suppress
from functools import cached_property, lru_cache
from itertools import chain, combinations_with_replacement, compress, cycle, islice, product
from operator import itemgetter
from typing import Callable, Collection, Iterable, Mapping, Optional, Sequence, Union

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


def _within(table: Collection[int], n: int) -> bool:
    """Whether every entry of the table is in range(n): for n <= 256, by packing it
    into bytes (entries 0..255 only) and deleting every byte below n."""
    if n > 256:
        return min(table, default=0) >= 0 and max(table, default=0) < n
    try:
        return not bytes(table).translate(None, bytes(range(n)))
    except ValueError:
        return False


def _gather(table, keys) -> tuple:
    """``table[key]`` for each key, in order, at C speed (an ``itemgetter`` of
    one key returns the bare value, not a 1-tuple)."""
    return itemgetter(*keys)(table) if len(keys) > 1 else tuple(map(table.__getitem__, keys))


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
            if not _within(list(chain.from_iterable(order)), n):
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
        ``bytes.translate`` of the arguments' lane indices (``_lane_indices``), else
        one ``_gather`` of the table at them."""
        index = _lane_indices(args, self.size, width)
        if (lookup := self._lookups.get(symbol)) is not None:
            return index.translate(lookup)
        values = _gather(self.tables[symbol], index)
        return bytes(values) if self.size <= 256 else values

    def op(self, symbol: str, args: Sequence[int]) -> int:
        return self.tables[symbol][product_element_index(self.size, args)]

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


def truth_vectors(
    formulas: Iterable[Formula], variables: Sequence[str], algebra: FiniteAlgebra
) -> list[Vector]:
    """Each formula's truth vector over ``variables``, bottom-up over their distinct
    subformulas (``_program_steps``). A vector no output needs is dropped after the
    last step that reads it."""
    steps, outputs = _program_steps(formulas, variables)
    count = len(variables)
    refuse(DEFAULT_BUDGET, "truth vectors", (count + len(steps), "vectors"),
           ((algebra.size, count), "valuations"))  # a memory bound: no caller's budget
    last_read = {i: j for j, (_, args) in enumerate(steps) for i in args}
    for i in outputs:
        last_read.pop(i, None)
    done: list[list[int]] = [[] for _ in steps]  # the slots each step reads for the last time
    for i, j in last_read.items():
        done[j].append(i)
    width = algebra.size ** count
    vectors: list[Optional[Vector]] = list(_variable_vectors(algebra.size, count))
    for (symbol, args), dropped in zip(steps, done):
        vectors.append(algebra.op_on_vectors(symbol, [vectors[i] for i in args], width))
        for i in dropped:
            vectors[i] = None
    return [vectors[i] for i in outputs]


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
    source table is mapped through ``mapping`` in one step and compared whole with
    the target side, built one row per first argument: the later arguments'
    columns, mapped, with the first argument's image in every lane, through
    ``target.op_on_vectors``, once per distinct image. Both sides take the
    target's vector form, bytes up to 256 elements and tuples past that. The
    first differing entry gives the witness.
    """
    if source.signature != target.signature:
        raise ValueError("source and target must share a signature")
    if len(mapping) != source.size:
        raise ValueError("mapping must be total on the source carrier")
    if not _within(mapping, target.size):
        raise ValueError("mapping has out-of-range values")
    n, size = source.size, target.size
    form, join = (bytes if size <= 256 else tuple), _join(size)
    image_of = bytes(mapping).ljust(256, b"\0") if form is bytes and n <= 256 else None

    def image(keys: Union[bytes, Sequence[int]]) -> Vector:  # the keys' images, in the form
        return bytes(keys).translate(image_of) if image_of else form(_gather(mapping, keys))

    for symbol, arity in source.signature.connectives:
        width = n ** max(arity - 1, 0)
        mapped = image(source.tables[symbol])
        later = [image(column) for column in _variable_vectors(n, max(arity - 1, 0))]
        heads = mapping if arity else (0,)  # each row's first argument, mapped; a constant: one row
        rows = {head: target.op_on_vectors(symbol, [form((head,)) * width, *later][:arity], width)
                for head in dict.fromkeys(heads)}  # a constant's row has no arguments
        expected = join(map(rows.__getitem__, heads))
        if mapped != expected:
            offset = next(i for i, (a, b) in enumerate(zip(mapped, expected)) if a != b)
            return False, (symbol, element_coordinates(n, arity, offset))
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
        if not _within(self.values, size):
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


# an algebra's De Morgan pairs (u, f, g), definitions (u, f, g), monoids f and
# distributive pairs (f, g)
Identities = tuple[Sequence[tuple[str, str, str]], Sequence[tuple[str, str, str]],
                   Sequence[str], Sequence[tuple[str, str]]]


def _identities(algebra: FiniteAlgebra, n: int) -> Identities:
    """The identities of ``algebra`` that ``enumerate_homomorphisms`` reads from its
    ``n``-th power, as its ``identities``: each decided from its definition, by ``op``
    at every argument tuple.
      - The De Morgan pairs: each connective f with arguments that is not an involution,
        as ``(u, f, g)`` with the first unary involution u (u(u x) = x) and connective g
        in signature order for which f(x̄) = u(g(u x̄)). A constant has one equation, so
        pairing it would save one check per node at one slot.
      - The definitions: each binary f, as ``(u, f, g)``, with the first unary u and
        binary g before f in signature order for which f(x, y) = g(u x, y).
      - The monoids, from n = 2 on (a monoid's rule needs two coordinates): each binary
        f with f(0, y) = y, f(x, y) = f(y, x) and f(f(x, y), z) = f(x, f(y, z)).
      - The distributive pairs: each binary commutative f that is neither a monoid nor
        a definition's f, as ``(f, g)`` with the first monoid g that is no definition's
        f for which f(x, g(y, z)) = g(f(x, y), f(x, z))."""
    op, connectives = algebra.op, algebra.signature.connectives

    def holds(identity: Callable[..., bool], arity: int) -> bool:
        return all(identity(*xs) for xs in product(range(algebra.size), repeat=arity))

    def commutes(f: str) -> bool:
        return holds(lambda x, y: op(f, [x, y]) == op(f, [y, x]), 2)

    unary = [u for u, arity in connectives if arity == 1]
    involutions = [u for u in unary if holds(lambda x: op(u, [op(u, [x])]) == x, 1)]
    pairs, definitions = [], []
    for position, (f, arity) in enumerate(connectives):
        duals = ((u, f, g) for u in (() if f in involutions or not arity else involutions)
                 for g, a in connectives if a == arity and holds(
                     lambda *xs: op(f, xs) == op(u, [op(g, [op(u, [x]) for x in xs])]), arity))
        defined = ((u, f, g) for u in (unary if arity == 2 else ())
                   for g, a in connectives[:position] if a == 2
                   and holds(lambda x, y: op(f, [x, y]) == op(g, [op(u, [x]), y]), 2))
        pairs += islice(duals, 1)  # the first (u, g) that holds, if any
        definitions += islice(defined, 1)
    monoids = tuple(f for f, arity in connectives if n > 1 and arity == 2
                    and holds(lambda y: op(f, [0, y]) == y, 1) and commutes(f)
                    and holds(lambda x, y, z: op(f, [op(f, [x, y]), z])
                              == op(f, [x, op(f, [y, z])]), 3))
    defined_fs = [f for _, f, _ in definitions]
    distributive = []
    for f, arity in connectives:
        if monoids and arity == 2 and f not in monoids and f not in defined_fs and commutes(f):
            distributive += islice(((f, g) for g in monoids if g not in defined_fs and holds(
                lambda x, y, z: op(f, [x, op(g, [y, z])])
                == op(g, [op(f, [x, y]), op(f, [x, z])]), 3)), 1)
    return tuple(pairs), tuple(definitions), monoids, tuple(distributive)


def _lanes(entries: Union[bytes, Sequence[int]]) -> bytes:
    """Entries as the bytes of little-endian 16-bit lanes, one entry a lane: bytes spread
    out with zeros, ints packed by ``struct``."""
    if isinstance(entries, bytes):
        lanes = bytearray(2 * len(entries))
        lanes[::2] = entries
        return bytes(lanes)
    return struct.pack(f"<{len(entries)}H", *entries)


def _lane_max(a: int, b: int, flags: int, bits: int) -> int:
    """Lane by lane, the larger of a and b, whose lanes of ``bits + 1`` bits hold values
    below ``2**bits``; ``flags`` has the top bit of each lane set. In ``(a | flags) - b``
    no lane borrows from the next, and the top bit stays set exactly where a >= b."""
    at_least = ((a | flags) - b) & flags
    return b ^ ((a ^ b) & ((at_least >> bits) * ((1 << bits) - 1)))


def _last_coordinate_split(base: int, n: int) -> tuple[list[int], bytes]:
    """For each element r of the power of ``n`` elements over ``base`` elements, ranked
    as ``product_algebra`` ranks them: r with its last nonzero coordinate set to 0, and
    1 where r has at least two nonzero coordinates, else 0. By rank arithmetic, one
    coordinate at a time: with r = q·base + d (d its last coordinate), that element is
    q·base if d is nonzero, else q's times base."""
    rest, nonzero = [0], [0]  # the element of no coordinates; nonzero ones counted up to 2
    while len(rest) < n:
        rest = [x for q, v in enumerate(rest) for x in (v * base, *[q * base] * (base - 1))]
        nonzero = [x for c in nonzero for x in (c, *[min(c + 1, 2)] * (base - 1))]
    if len(rest) != n:
        raise ValueError("monoids need the source to be a direct power of the target")
    return rest, bytes(c >> 1 for c in nonzero)


def _handed_equations(
    source: FiniteAlgebra,
    base: int,
    identities: Identities,
    symbols: Sequence[str],
    arity: int,
    upper: Optional[list[slice]],
) -> Optional[bytearray]:
    """For a group of connectives ``symbols`` of ``arity``, one byte per equation in the
    order the search is handed them, argument tuple by argument tuple (given ``upper``,
    the slices of a binary table's rows from the diagonal on: a <= b only) and one per
    connective at each: 0 where the equation is implied, else 1; None, and every
    equation handed, when no identity's f is in the group or the source has more than
    2^15 elements (no power has: ``MAX_POWER_SIZE`` is below). ``identities`` are the
    pairs, definitions, monoids and distributive pairs of ``enumerate_homomorphisms``;
    the source's elements split by coordinates over ``base`` elements for a monoid or a
    distributive pair. Each equation of f at x̄ has the last slot max(x̄, f(x̄)), and it
    is implied where
      - f is a dual pair's (u, f, g) and its dual, g's equation at u x̄, has the
        strictly earlier last slot max(u x̄, u f(x̄));
      - f is a definition's (u, f, g) and u x <= max(x, y, f(x, y)), for x̄ = (x, y);
      - f is a monoid, x̄ = (a, b) has a <= b, each with two or more nonzero
        coordinates, and f(v, a) <= max(b, f(a, b)), its last slot, v being b with its
        last nonzero coordinate set to 0;
      - f is a distributive pair's (f, g), x̄ = (a, b) has a <= b, b has two or more
        nonzero coordinates, and f(a, e) and f(a, v) are <= max(b, f(a, b)), e being
        b's last nonzero coordinate alone (b - v, by rank).

    Each rule is a few passes over 16-bit lanes of one int per vector, the top bit of each a
    flag. The largest of x̄ is worked out once, and the largest of u x̄ once per u."""
    dualities, definitions, monoids, distributive = identities
    paired = [(symbols.index(f), u) for u, f, _ in dualities if f in symbols]
    defined = [(symbols.index(f), u) for u, f, _ in definitions if f in symbols and arity == 2]
    monoid = [symbols.index(f) for f in monoids if f in symbols and upper is not None]
    distributes = [symbols.index(f) for f, _ in distributive
                   if f in symbols and upper is not None]
    n = source.size
    if not (paired or defined or monoid or distributes) or n > 2**15:
        return None
    bits, form = 15, bytes if n <= 256 else tuple
    rows = n * (n + 1) // 2 if upper else n**arity
    flags = int.from_bytes((1 << bits).to_bytes(2, "little") * rows, "little")

    def lanes(entries: Union[bytes, Sequence[int]]) -> int:
        return int.from_bytes(_lanes(entries), "little")

    def at_least(a: int, b: int) -> int:
        """The flag of each lane where a >= b."""
        return ((a | flags) - b) & flags

    def columns(values: Sequence[int]) -> list[int]:
        """Each argument's column: at each argument tuple x̄, ``values`` at x̄'s entry."""
        cells = _lanes(form(values))
        if upper:
            columns = [b"".join(cells[2 * a:2 * a + 2] * (n - a) for a in range(n)),
                       b"".join(cells[2 * a:] for a in range(n))]
        else:
            columns = [b"".join(cells[2 * c:2 * c + 2] * n ** (arity - 1 - i)
                                for c in range(n)) * n**i for i in range(arity)]
        return [int.from_bytes(column, "little") for column in columns]

    def row_at(table: Union[bytes, Sequence[int]], points: Union[bytes, Sequence[int]]) -> int:
        """At each a <= b, row a of the table at b's point: f(a, points[b])."""
        rows_at = [table[a * n:(a + 1) * n] for a in range(n)]
        return lanes(b"".join(points[a:].translate(row.ljust(256, b"\0"))
                              for a, row in enumerate(rows_at)) if form is bytes else
                     tuple(chain.from_iterable(_gather(row, points[a:])
                                               for a, row in enumerate(rows_at))))

    def largest(columns: Iterable[int]) -> int:
        """At each argument tuple x̄, the largest of the columns' entries."""
        last = 0
        for column in columns:
            last = _lane_max(last, column, flags, bits)
        return last

    of_arguments = largest(columns(range(n)))
    of_images = {u: largest(columns(source.tables[u]))
                 for u in dict.fromkeys(u for _, u in paired)}
    firsts = {u: columns(source.tables[u])[0] for u in dict.fromkeys(u for _, u in defined)}
    if monoid or distributes:  # b = g(e, v): v is b's rest and e its last coordinate
        rest, many = _last_coordinate_split(base, n)
        rest, alone = form(rest), form(b - v for b, v in enumerate(rest))
        many = columns(many)  # 1 where a, or b, has two or more nonzero coordinates
        many_b, many_both = many[1] << bits, (many[0] & many[1]) << bits
    mask = bytearray(b"\1") * (rows * len(symbols))
    for j, symbol in enumerate(symbols):
        table = form(source.tables[symbol])
        results = _join(n)(_gather(table, upper)) if upper else table
        own = _lane_max(lanes(results), of_arguments, flags, bits)
        handed = flags  # the flag of each lane whose equation is handed
        for u in (u for i, u in paired if i == j):
            dual = _lane_max(lanes(source.op_on_vectors(u, [results], rows)), of_images[u],
                             flags, bits)
            handed &= at_least(dual, own)
        for u in (u for i, u in defined if i == j):
            handed &= flags ^ at_least(own, firsts[u])
        if j in monoid:  # f(v, a), which is f(a, v)
            handed &= flags ^ (many_both & at_least(own, row_at(table, rest)))
        if j in distributes:  # f(a, e) and f(a, v)
            handed &= flags ^ (many_b & at_least(own, row_at(table, alone))
                               & at_least(own, row_at(table, rest)))
        if handed != flags:
            mask[j::len(symbols)] = (handed >> bits).to_bytes(2 * rows, "little")[::2]
    return mask


def _rows_handing_some(selected: bytearray, k: int) -> tuple[bytes, bytes]:
    """For a mask of ``k`` bytes per argument row (``_handed_equations``), 1 for each row
    with a handed equation, else 0, and the mask without the rows that hand none. By int
    arithmetic on the whole mask: a row's first byte ORs in its later ones, and a row
    that hands none has 2 added to each of its bytes, which are then deleted."""
    length = len(selected)
    mask = int.from_bytes(selected, "little")
    spread = mask
    for i in range(1, k):
        spread |= mask >> 8 * i
    some = spread.to_bytes(length, "little")[::k]
    each = bytearray(length)  # some, each byte k times
    for i in range(k):
        each[i::k] = some
    marked = mask + 2 * (int.from_bytes(b"\1" * length, "little") - int.from_bytes(each, "little"))
    return some, marked.to_bytes(length, "little").translate(None, b"\2\3")


def enumerate_homomorphisms(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    budget: int = DEFAULT_BUDGET,
    symmetries: Iterable[Sequence[int]] = (),
    identities: Identities = ((), (), (), ()),
) -> list[AlgebraHomomorphism]:
    """All homomorphisms source -> target, in lexicographic table order: the table
    search over the source operations' equations, argument tuple by argument tuple.
    A binary connective commutative in both algebras has the same equation at (a, b)
    and (b, a) (one result slot, one target entry), so only a <= b is handed on.
    ``symmetries`` are automorphisms of ``source`` (as tables of its elements' images),
    which map homomorphisms to homomorphisms; the search keeps one table per orbit
    and expands the orbits, and every table found is re-checked.

    Four kinds of identity, each true in both algebras, leave out equations they
    imply. An equation is left out only where each one it follows from has a last
    slot (its largest slot) no later than its own, and each of those is handed or left
    out in turn, along a chain that ends: at a strictly earlier last slot (a pair's
    dual), an earlier connective (a definition's g), or fewer nonzero coordinates or
    an argument with one (a monoid's, and a distributive f's own equations). A
    distributive f's other edge goes to g's equations, and g's own rules never return
    to f except through a pair's strictly earlier slot: g is a monoid, whose rule stays
    at g, and no definition's f. So all an equation follows from is checked by the time
    it would have been, and the search enters the same nodes. Each group's mask
    (``_handed_equations``) is worked out before its argument rows are built; no
    triple is built for a left-out equation, and no tuple for a row that hands none.

    ``identities`` are the four kinds, as ``_identities`` finds them on the target
    (``power_homomorphisms`` passes them):
      - De Morgan pairs ``(u, f, g)``: u is a unary involution, f(x̄) = u(g(u x̄)), and
        no pair's f is any pair's u. f's equation at x̄ follows from g's at u x̄ (its
        dual) and u's at each argument and at g(u x̄).
      - Definitions ``(u, f, g)`` with f(x, y) = g(u x, y), u unary and g binary and
        before f in signature order. f's equation at (x, y) follows from u's at x and
        g's at (u x, y).
      - Monoids: binary connectives commutative and associative with unit 0; the source
        must then be a direct power of the target, ranked as ``product_algebra`` ranks
        it. With e the last nonzero coordinate of b alone and v the rest of b,
        b = f(e, v), so f's equation at a <= b follows from its equations at (v, a),
        (e, f(v, a)) and (e, v).
      - Distributive pairs ``(f, g)``: f is commutative and no monoid, g is a monoid,
        f(x, g(y, z)) = g(f(x, y), f(x, z)), and neither is a definition's f. As
        b = g(e, v), f(a, b) = g(f(a, e), f(a, v)), so f's equation at a <= b follows
        from g's at (e, v) and at (f(a, e), f(a, v)), and f's at (a, e) and (a, v)."""
    if source.signature != target.signature:
        raise ValueError("source and target must share a signature")
    n = source.size
    # (arity, commutative in both) -> its connectives
    groups: dict[tuple[int, bool], list[str]] = {}
    for symbol, arity in source.signature.connectives:
        commutative = (_commutative(target.tables[symbol], target.size, arity)
                       and _commutative(source.tables[symbol], n, arity))
        groups.setdefault((arity, commutative), []).append(symbol)
    upper = [slice(a * n + a, (a + 1) * n) for a in range(n)]  # row a from column a
    with paused_collector():  # the argument rows are many tuples that make no cycle
        runs = []  # each argument tuple's equations together, one per connective of its group
        for (arity, commutative), symbols in groups.items():
            selected = _handed_equations(source, target.size, identities, symbols, arity,
                                         upper if commutative else None)
            if commutative:
                rows = combinations_with_replacement(range(n), 2)
                values = [chain.from_iterable(_gather(source.tables[symbol], upper))
                          for symbol in symbols]  # each a <= b once
            else:
                rows = product(range(n), repeat=arity)
                values = [source.tables[symbol] for symbol in symbols]
            if selected is not None:  # no tuple is built for a row that hands nothing
                some, selected = _rows_handing_some(selected, len(symbols))
                rows, values = compress(rows, some), [compress(v, some) for v in values]
            rows = list(rows)
            # one stream each of the equations' target tables, argument tuples and results
            streams = (cycle([target.tables[symbol] for symbol in symbols]),
                       chain.from_iterable(zip(*[rows] * len(symbols))),
                       chain.from_iterable(zip(*values)))
            if selected is not None:
                streams = tuple(compress(stream, selected) for stream in streams)
            runs.append(zip(*streams))
        found = search_tables(n, target.size, chain.from_iterable(runs), budget,
                              stage="homomorphism search", symmetries=symmetries)
    return [AlgebraHomomorphism(source, target, mapping) for mapping in found]


def refuse_power_past_the_caps(algebra: FiniteAlgebra, n: int) -> None:
    """Refuse algebra^n unbuilt when it is too large, or has more homomorphism
    equations than ``MAX_CONSTRAINTS``: those ``enumerate_homomorphisms`` streams
    before any identity leaves one out (an upper bound on those it hands the search),
    one per unordered argument pair of a commutative binary connective (a connective
    of the power is commutative exactly when the base's is)."""
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
    up to the coordinate swaps of algebra^n, with the algebra's identities
    (``_identities``): an identity of the algebra holds in each of its direct powers."""
    refuse_power_past_the_caps(algebra, n)
    return enumerate_homomorphisms(shared_power(algebra, n), algebra, budget,
                                   symmetries=_coordinate_swaps(algebra.size, n),
                                   identities=_identities(algebra, n))


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
