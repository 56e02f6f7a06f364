import math
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from aggcheck.algebra import (
    AlgebraHomomorphism,
    FiniteAlgebra,
    builtin_boolean2,
    builtin_mv_chain,
    element_coordinates,
    enumerate_homomorphisms,
    evaluate,
    is_homomorphism,
    product_algebra,
    product_element_index,
    refuse,
    truth_vectors,
)
from aggcheck.errors import BudgetExceededError, EvaluationError
from aggcheck.fileio import load_matrix
from aggcheck.modal import KripkeFrame, bao_from_frame
from aggcheck.syntax import Signature, parse_formula
from builders import builtin_distributive_lattice

# Łukasiewicz 3-chain tables written out by hand from the defining clauses
# (indices 0 -> 0, 1 -> 1/2, 2 -> 1), used as an independent oracle.
L3_NOT = (2, 1, 0)
L3_OPLUS = (0, 1, 2, 1, 2, 2, 2, 2, 2)
L3_ODOT = (0, 0, 0, 0, 0, 1, 0, 1, 2)
L3_IMPL = (2, 2, 2, 1, 2, 2, 0, 1, 2)


class TestBuiltins:
    def test_boolean2_tables(self):
        b = builtin_boolean2()
        assert b.op("not", [0]) == 1
        assert b.op("or", [0, 1]) == 1
        assert b.constant("bot") == 0
        assert b.constant("top") == 1

    def test_mv3_matches_hand_tables(self):
        l3 = builtin_mv_chain(3)
        assert l3.tables["not"] == L3_NOT
        assert l3.tables["oplus"] == L3_OPLUS
        assert l3.tables["odot"] == L3_ODOT
        assert l3.tables["impl"] == L3_IMPL
        assert l3.carrier == ("0", "1/2", "1")

    @pytest.mark.parametrize("k", range(2, 12))
    def test_mv_chain_matches_the_rational_definition(self, k):
        # reference: the defining clauses in exact rationals on {0, 1/(k-1), ..., 1}
        values = [Fraction(i, k - 1) for i in range(k)]
        index = {v: i for i, v in enumerate(values)}
        one = Fraction(1)
        clauses = {
            "oplus": lambda a, b: min(one, a + b),
            "odot": lambda a, b: max(Fraction(0), a + b - 1),
            "impl": lambda a, b: min(one, one - a + b),
        }
        chain = builtin_mv_chain(k)
        assert chain.carrier == tuple(str(v) for v in values)
        assert chain.tables["not"] == tuple(index[one - a] for a in values)
        for symbol, clause in clauses.items():
            assert chain.tables[symbol] == tuple(
                index[clause(a, b)] for a in values for b in values
            ), symbol

    @pytest.mark.parametrize("k", range(2, 13))
    def test_mv_chain_labels_are_the_fractions_in_lowest_terms(self, k):
        assert load_matrix(f"mv{k}").algebra.carrier == tuple(
            str(Fraction(i, k - 1)) for i in range(k))

    def test_mv3_half_odot_half_is_zero(self):
        l3 = builtin_mv_chain(3)
        assert l3.op("odot", [1, 1]) == 0

    def test_mv_chain_too_small(self):
        with pytest.raises(ValueError):
            builtin_mv_chain(1)

    def test_diamond_lattice_accepted(self):
        # 2x2 boolean lattice: 0 < a, b < 1, a and b incomparable
        lat = builtin_distributive_lattice(
            ["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)]
        )
        assert lat.op("and", [1, 2]) == 0
        assert lat.op("or", [1, 2]) == 3
        assert lat.constant("bot") == 0
        assert lat.constant("top") == 3

    def test_m3_rejected_not_distributive(self):
        # three incomparable midpoints: a lattice, but not distributive
        with pytest.raises(ValueError, match="distributive"):
            builtin_distributive_lattice(
                ["0", "a", "b", "c", "1"],
                [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
            )

    def test_unbounded_poset_rejected(self):
        with pytest.raises(ValueError):
            builtin_distributive_lattice(["a", "b"], [])


@pytest.mark.parametrize("size", [1, 2, 255, 256, 257, 300])
def test_table_entries_must_lie_in_the_carrier(size):
    # up to 256 elements the check packs each table into bytes; past that it scans
    signature = Signature((("u", 1),))
    carrier = tuple(map(str, range(size)))
    for top in (size - 1, 0):
        FiniteAlgebra(signature, carrier, (("u", (top,) * size),))
    for bad in (-1, size, 255, 256, 10**6):
        if 0 <= bad < size:
            continue
        with pytest.raises(ValueError, match="table for 'u' has out-of-range entries"):
            FiniteAlgebra(signature, carrier, (("u", (0,) * (size - 1) + (bad,)),))


def triple_loop_order_error(order, n):
    """The message of the first order law broken, by the pair-and-element scan the
    up-set masks replace: reflexivity first, then pair by pair in the relation's
    iteration order, antisymmetry before transitivity; None for a partial order."""
    for a in range(n):
        if (a, a) not in order:
            return "order not reflexive"
    for a, b in order:
        if (b, a) in order and a != b:
            return "order not antisymmetric"
        for c in range(n):
            if (b, c) in order and (a, c) not in order:
                return "order not transitive"
    return None


@st.composite
def relations(draw):
    n = draw(st.integers(1, 5))
    pairs = list(product(range(n), repeat=2))
    if draw(st.booleans()):  # a preorder's chance is slim among arbitrary relations
        base = draw(st.sets(st.sampled_from(pairs)))
        rank = [draw(st.integers(0, n - 1)) for _ in range(n)]
        base |= {(a, b) for a, b in pairs if rank[a] < rank[b] or a == b}
    else:
        base = draw(st.sets(st.sampled_from(pairs)))
    return n, frozenset(base)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(relations())
def test_order_is_accepted_exactly_when_partial_with_the_scans_message(relation):
    n, order = relation
    is_partial = (all((a, a) in order for a in range(n))
                  and not any((b, a) in order for a, b in order if a != b)
                  and all((a, d) in order for a, b in order for c, d in order if b == c))
    expected = triple_loop_order_error(order, n)
    assert (expected is None) == is_partial
    carrier = tuple(map(str, range(n)))
    if expected is None:
        assert FiniteAlgebra(Signature(()), carrier, (), order).order is order
    else:
        with pytest.raises(ValueError) as rejected:
            FiniteAlgebra(Signature(()), carrier, (), order)
        assert str(rejected.value) == expected


class TestEvaluate:
    def test_boolean_or(self, boolean2):
        f = parse_formula("(or x1 x2)", boolean2.signature)
        assert evaluate(f, {"x1": 1, "x2": 0}, boolean2) == 1

    def test_boolean_not(self, boolean2):
        f = parse_formula("(not x1)", boolean2.signature)
        assert evaluate(f, {"x1": 1}, boolean2) == 0

    def test_mv_half_oplus_half_is_one(self, luk3):
        f = parse_formula("(oplus x1 x1)", luk3.signature)
        assert evaluate(f, {"x1": 1}, luk3) == 2

    def test_unbound_variable(self, boolean2):
        f = parse_formula("(or x1 x2)", boolean2.signature)
        with pytest.raises(EvaluationError):
            evaluate(f, {"x1": 1}, boolean2)

    def test_truth_vector(self, boolean2):
        f = parse_formula("(or x1 (not x1))", boolean2.signature)
        assert [tuple(v) for v in truth_vectors([f], ["x1"], boolean2)] == [(1, 1)]


class TestProduct:
    def test_power_one_isomorphic(self, boolean2):
        p = product_algebra(boolean2, 1)
        assert p.size == 2
        assert tuple(p.tables["or"]) == boolean2.tables["or"]

    def test_coordinatewise_join(self, boolean2):
        p = product_algebra(boolean2, 2)
        e10 = product_element_index(2, (1, 0))
        e01 = product_element_index(2, (0, 1))
        e11 = product_element_index(2, (1, 1))
        assert p.op("or", [e10, e01]) == e11

    def test_element_coordinates_invert_the_rank(self):
        for base in range(1, 5):
            for count in range(5):
                tuples = [element_coordinates(base, count, r) for r in range(base**count)]
                assert tuples == list(product(range(base), repeat=count))  # carrier order
                for rank, coords in enumerate(tuples):
                    assert product_element_index(base, coords) == rank

    def test_constants_are_constant_tuples(self, boolean2):
        p = product_algebra(boolean2, 3)
        assert p.constant("top") == product_element_index(2, (1, 1, 1))
        assert p.constant("bot") == 0

    def test_projections_are_homomorphisms(self, boolean2, luk3):
        diamond = builtin_distributive_lattice(
            ["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)]
        )
        point_bao = bao_from_frame(KripkeFrame(1, frozenset({(0, 0)})))
        for base in (boolean2, luk3, diamond, point_bao):
            for n in (1, 2, 3):
                if base.size**n > 64:
                    continue
                p = product_algebra(base, n)
                for voter in range(n):
                    mapping = tuple(
                        coords[voter]
                        for coords in product(range(base.size), repeat=n)
                    )
                    ok, witness = is_homomorphism(mapping, p, base)
                    assert ok, witness


@st.composite
def algebras(draw):
    """A random algebra on 1-3 elements with connectives of arity 0-3."""
    size = draw(st.integers(1, 3))
    arities = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    tables = [
        tuple(draw(st.lists(st.integers(0, size - 1), min_size=size**a, max_size=size**a)))
        for a in arities
    ]
    return FiniteAlgebra(
        signature=Signature(tuple((f"c{i}", a) for i, a in enumerate(arities))),
        carrier=tuple("abc"[:size]),
        ops=tuple((f"c{i}", table) for i, table in enumerate(tables)),
    )


def power_by_definition(algebra, n):
    """The power's tables entry by entry: apply the base table to each
    coordinate of the argument tuples, then rank the result row-major."""
    elements = list(product(range(algebra.size), repeat=n))
    rank = {coords: i for i, coords in enumerate(elements)}
    return {
        symbol: tuple(
            rank[tuple(
                algebra.op(symbol, [elements[a][j] for a in args]) for j in range(n)
            )]
            for args in product(range(len(elements)), repeat=arity)
        )
        for symbol, arity in algebra.signature.connectives
    }


def entries(tables):
    """Each table's entries as a tuple, whether the table is bytes or a tuple."""
    return {symbol: tuple(table) for symbol, table in tables.items()}


def first_violation(mapping, source, target):
    """Brute-force scan in signature order and row-major argument order."""
    for symbol, arity in source.signature.connectives:
        for args in product(range(source.size), repeat=arity):
            lhs = mapping[source.op(symbol, args)]
            if lhs != target.op(symbol, [mapping[a] for a in args]):
                return False, (symbol, args)
    return True, None


@settings(max_examples=80, deadline=None)
@given(algebras(), st.integers(1, 3))
def test_power_tables_equal_their_definition(algebra, n):
    power = product_algebra(algebra, n)
    assert entries(power.tables) == power_by_definition(algebra, n)
    assert power.carrier == tuple(
        "(" + ",".join(coords) + ")" for coords in product(algebra.carrier, repeat=n)
    )


def test_power_labels_stay_distinct_when_base_labels_hold_commas_or_quotes():
    # joined plainly, ("a", "a,a") and ("a,a", "a") would both read "(a,a,a)"
    base = FiniteAlgebra(Signature((("c0", 1),)), ("a", "a,a", "'a'"), (("c0", (0, 1, 2)),))
    power = product_algebra(base, 2)
    assert power.carrier[:4] == ("(a,a)", "(a,'a,a')", "(a,\"'a'\")", "('a,a',a)")
    assert len(set(power.carrier)) == 9


@settings(max_examples=80, deadline=None)
@given(algebras(), st.integers(1, 3), st.data())
def test_is_homomorphism_reports_the_first_violation(algebra, n, data):
    power = product_algebra(algebra, n)
    voter = data.draw(st.integers(0, n - 1))
    projection = [coords[voter] for coords in product(range(algebra.size), repeat=n)]
    near_miss = list(projection)
    changed = data.draw(st.integers(0, power.size - 1))
    near_miss[changed] = data.draw(st.integers(0, algebra.size - 1))
    random_map = data.draw(
        st.lists(st.integers(0, algebra.size - 1), min_size=power.size, max_size=power.size)
    )
    for mapping in (projection, near_miss, random_map):
        expected = first_violation(mapping, power, algebra)
        assert is_homomorphism(tuple(mapping), power, algebra) == expected


def _seven_element_algebra():
    """A fixed random algebra on 7 elements with a constant, a unary and a binary
    connective: its cube has 343 elements, past one byte per element."""
    rng = random.Random(7)
    arities = {"c": 0, "u": 1, "b": 2}
    return FiniteAlgebra(
        signature=Signature(tuple(arities.items())),
        carrier=tuple("0123456"),
        ops=tuple((s, tuple(rng.randrange(7) for _ in range(7**a))) for s, a in arities.items()),
    )


# the power's two row forms: bytes up to 256 elements (mv4^4 has exactly 256), lists past it
ROW_FORMS = {"lists at 7^3": (_seven_element_algebra(), 3), "bytes at 4^4": (builtin_mv_chain(4), 4)}


@pytest.mark.parametrize("form", sorted(ROW_FORMS))
def test_power_tables_equal_their_definition_in_both_row_forms(form):
    algebra, n = ROW_FORMS[form]
    assert entries(product_algebra(algebra, n).tables) == power_by_definition(algebra, n)


@pytest.mark.parametrize("form, kind", [("bytes at 4^4", bytes), ("lists at 7^3", tuple)])
def test_a_power_keeps_bytes_tables_up_to_256_elements_and_tuples_past_them(form, kind):
    algebra, n = ROW_FORMS[form]
    power = product_algebra(algebra, n)
    assert {type(table) for table in power.tables.values()} == {kind}


@pytest.mark.parametrize("form", sorted(ROW_FORMS))
def test_is_homomorphism_reports_the_first_violation_in_both_row_forms(form):
    algebra, n = ROW_FORMS[form]
    power = product_algebra(algebra, n)
    rng = random.Random(form)
    projection = [coords[-1] for coords in product(range(algebra.size), repeat=n)]
    near_miss = list(projection)
    changed = rng.randrange(power.size)
    near_miss[changed] = (near_miss[changed] + 1) % algebra.size
    random_map = [rng.randrange(algebra.size) for _ in range(power.size)]
    for mapping in (projection, near_miss, random_map):
        expected = first_violation(mapping, power, algebra)
        assert is_homomorphism(tuple(mapping), power, algebra) == expected
    assert first_violation(projection, power, algebra) == (True, None)


def test_is_homomorphism_into_a_target_past_256_elements():
    algebra = _seven_element_algebra()
    power = product_algebra(algebra, 3)
    diagonal = [product_element_index(7, (d,) * 3) for d in range(7)]
    near_miss = list(diagonal)
    near_miss[4] = product_element_index(7, (4, 4, 5))
    for mapping in (diagonal, near_miss):
        assert is_homomorphism(mapping, algebra, power) == first_violation(mapping, algebra, power)
    assert is_homomorphism(diagonal, algebra, power) == (True, None)


class TestHomomorphisms:
    def test_identity(self, boolean2):
        ok, witness = is_homomorphism((0, 1), boolean2, boolean2)
        assert ok and witness is None

    def test_majority_fails_with_witness(self, boolean2):
        p = product_algebra(boolean2, 3)
        maj = tuple(
            int(sum(coords) >= 2) for coords in product((0, 1), repeat=3)
        )
        ok, witness = is_homomorphism(maj, p, boolean2)
        assert not ok
        symbol, args = witness
        # re-check the reported violation directly against the tables
        lhs = maj[p.op(symbol, args)]
        rhs = boolean2.op(symbol, [maj[a] for a in args])
        assert lhs != rhs

    def test_checked_constructor(self, boolean2):
        with pytest.raises(ValueError):
            AlgebraHomomorphism(boolean2, boolean2, (1, 0))  # swaps bot/top

    def test_enumerate_boolean_cube(self, boolean2):
        p = product_algebra(boolean2, 3)
        homs = enumerate_homomorphisms(p, boolean2)
        assert len(homs) == 3
        projections = {
            tuple(coords[v] for coords in product((0, 1), repeat=3))
            for v in range(3)
        }
        assert {h.mapping for h in homs} == projections

    def test_enumerate_matches_brute_filter(self, boolean2):
        # oracle: filter every map through the checker, no pruning
        p = product_algebra(boolean2, 2)
        brute = {
            m
            for m in product((0, 1), repeat=4)
            if is_homomorphism(m, p, boolean2)[0]
        }
        fast = {h.mapping for h in enumerate_homomorphisms(p, boolean2)}
        assert fast == brute

    def test_enumerate_identity_only_for_power_one(self, boolean2):
        p = product_algebra(boolean2, 1)
        homs = enumerate_homomorphisms(p, boolean2)
        assert [h.mapping for h in homs] == [(0, 1)]

    def test_enumerate_lexicographic_order(self, boolean2):
        p = product_algebra(boolean2, 3)
        tables = [h.mapping for h in enumerate_homomorphisms(p, boolean2)]
        assert tables == sorted(tables)

    def test_mv_projections_enumerated(self, luk3):
        p = product_algebra(luk3, 2)
        homs = enumerate_homomorphisms(p, luk3)
        projections = {
            tuple(coords[v] for coords in product(range(3), repeat=2))
            for v in range(2)
        }
        assert projections <= {h.mapping for h in homs}

    def test_budget(self, boolean2):
        p = product_algebra(boolean2, 3)
        with pytest.raises(BudgetExceededError):
            enumerate_homomorphisms(p, boolean2, budget=10)


HALVING_SIGNATURE = Signature((("f", 1), ("g", 2), ("h", 2)))


def binary_algebra(f, g, h):
    """An algebra over one unary and two binary connectives, on as many elements as ``f`` has."""
    return FiniteAlgebra(HALVING_SIGNATURE, tuple("abc"[:len(f)]),
                         (("f", tuple(f)), ("g", tuple(g)), ("h", tuple(h))))


@st.composite
def binary_tables(draw, size):
    """A binary table drawn commutative, or made not commutative at (0, 1) and (1, 0)."""
    cells = draw(st.lists(st.integers(0, size - 1), min_size=size**2, max_size=size**2))
    if draw(st.booleans()):
        return [cells[min(a, b) * size + max(a, b)] for a in range(size) for b in range(size)]
    if cells[1] == cells[size]:
        cells[1] = (cells[size] + 1) % size
    return cells


@st.composite
def binary_algebras(draw):
    size = draw(st.integers(2, 3))
    f = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    return binary_algebra(f, draw(binary_tables(size)), draw(binary_tables(size)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(binary_algebras(), binary_algebras())
@example(binary_algebra([0, 0], [0, 1, 1, 1], [0, 1, 1, 0]),  # g commutative in the source only
         binary_algebra([0, 0], [0, 1, 0, 1], [0, 1, 1, 0]))
@example(binary_algebra([0, 1], [1, 1, 0, 1], [1, 0, 1, 1]),  # g commutative in the target only
         binary_algebra([0, 1], [1, 1, 1, 1], [1, 0, 1, 1]))
def test_homomorphisms_equal_a_filter_of_every_map(source, target):
    """Every map that meets each equation at every argument tuple, commutative or not."""
    brute = []
    for mapping in product(range(target.size), repeat=source.size):
        holds = True
        for symbol, arity in source.signature.connectives:
            table, image = source.tables[symbol], target.tables[symbol]
            for args in product(range(source.size), repeat=arity):
                index = image_index = 0
                for a in args:
                    index = index * source.size + a
                    image_index = image_index * target.size + mapping[a]
                if mapping[table[index]] != image[image_index]:
                    holds = False
        if holds:
            brute.append(mapping)
    assert [h.mapping for h in enumerate_homomorphisms(source, target)] == brute


@st.composite
def one_cell_apart(draw):
    """A source and target that differ only in whether ``g`` commutes: both share
    ``f``, ``h`` and a commutative ``g``, then one side gets a new value at one
    (b, a) with a < b. The identity map meets every equation but that one."""
    size = draw(st.integers(2, 3))
    f = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    cells = draw(st.lists(st.integers(0, size - 1), min_size=size**2, max_size=size**2))
    g = [cells[min(a, b) * size + max(a, b)] for a in range(size) for b in range(size)]
    h = draw(binary_tables(size))
    a = draw(st.integers(0, size - 2))
    b = draw(st.integers(a + 1, size - 1))
    apart = list(g)
    apart[b * size + a] = draw(st.integers(0, size - 1).filter(lambda v: v != g[a * size + b]))
    pair = [binary_algebra(f, g, h), binary_algebra(f, apart, h)]
    return pair if draw(st.booleans()) else pair[::-1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(one_cell_apart())
def test_an_equation_is_dropped_only_where_both_tables_commute(algebras):
    """The (b, a) equation of a connective commutative on one side only is kept."""
    source, target = algebras
    brute = [mapping for mapping in product(range(target.size), repeat=source.size)
             if is_homomorphism(mapping, source, target)[0]]
    assert tuple(range(source.size)) not in brute
    assert [h.mapping for h in enumerate_homomorphisms(source, target)] == brute


counts = st.one_of(st.integers(0, 40), st.tuples(st.integers(0, 9), st.integers(0, 4)))


class TestRefuse:
    """The one budget refusal, against the product of its counts computed outright."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(counts, min_size=1, max_size=3), st.integers(0, 3000))
    def test_refuses_exactly_past_the_limit_in_the_one_form(self, raw, limit):
        values = [c if isinstance(c, int) else c[0] ** c[1] for c in raw]
        factors = [(count, f"unit{i}") for i, count in enumerate(raw)]
        if math.prod(values) <= limit or 0 in values:
            assert refuse(limit, "stage", *factors) is None
            return
        with pytest.raises(BudgetExceededError) as refused:
            refuse(limit, "stage", *factors)
        total = f" = {math.prod(values)}" if len(values) > 1 else ""
        assert str(refused.value) == (
            "stage: " + " x ".join(f"{v} unit{i}" for i, v in enumerate(values))
            + f"{total} exceed the limit of {limit}"
        )

    def test_a_zero_count_refuses_nothing(self):
        assert refuse(-1, "stage", (0, "a"), ((2, 10**12), "b")) is None
        assert refuse(5, "stage", (7, "a"), ((0, 3), "b")) is None

    def test_a_power_past_the_digit_limit_is_never_computed(self):
        # 2^(10^12) would take 125 GB; its text comes from base and exponent alone
        with pytest.raises(BudgetExceededError) as refused:
            refuse(10, "stage", (3, "a"), ((2, 10**12), "b"))
        assert str(refused.value) == "stage: 3 a x 2^1000000000000 b exceed the limit of 10"

    def test_a_total_past_the_digit_limit_goes_unprinted(self):
        digits = sys.get_int_max_str_digits()  # 10^(digits - 2) prints, 1000 times it does not
        with pytest.raises(BudgetExceededError) as refused:
            refuse(10, "stage", (1000, "a"), ((10, digits - 2), "b"))
        assert str(refused.value) == (
            f"stage: 1000 a x 1{'0' * (digits - 2)} b exceed the limit of 10"
        )


class TestLatticeLaws:
    def lattice_laws_hold(self, algebra):
        n = algebra.size
        for a in range(n):
            for b in range(n):
                assert algebra.op("and", [a, b]) == algebra.op("and", [b, a])
                assert algebra.op("or", [a, b]) == algebra.op("or", [b, a])
                assert algebra.op("and", [a, algebra.op("or", [a, b])]) == a
                assert algebra.op("or", [a, algebra.op("and", [a, b])]) == a
                for c in range(n):
                    assert algebra.op(
                        "and", [a, algebra.op("and", [b, c])]
                    ) == algebra.op("and", [algebra.op("and", [a, b]), c])
                    assert algebra.op(
                        "or", [a, algebra.op("or", [b, c])]
                    ) == algebra.op("or", [algebra.op("or", [a, b]), c])

    def test_boolean2(self, boolean2):
        self.lattice_laws_hold(boolean2)

    def test_frame_algebras(self):
        from aggcheck.oracles import reflexive_frames

        for n in (1, 2):
            for frame in reflexive_frames(n):
                self.lattice_laws_hold(bao_from_frame(frame))
        self.lattice_laws_hold(
            bao_from_frame(
                KripkeFrame(3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}))
            )
        )
