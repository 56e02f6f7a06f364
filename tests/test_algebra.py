from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck.algebra import (
    AlgebraHomomorphism,
    FiniteAlgebra,
    builtin_boolean2,
    builtin_distributive_lattice,
    builtin_mv_chain,
    enumerate_homomorphisms,
    evaluate,
    is_homomorphism,
    product_algebra,
    product_element_index,
    truth_vector,
)
from aggcheck.errors import BudgetExceededError, EvaluationError
from aggcheck.modal import KripkeFrame, bao_from_frame
from aggcheck.syntax import Signature, parse_formula

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
        assert truth_vector(f, ["x1"], boolean2) == (1, 1)


class TestProduct:
    def test_power_one_isomorphic(self, boolean2):
        p = product_algebra(boolean2, 1)
        assert p.size == 2
        assert p.tables["or"] == boolean2.tables["or"]

    def test_coordinatewise_join(self, boolean2):
        p = product_algebra(boolean2, 2)
        e10 = product_element_index(2, (1, 0))
        e01 = product_element_index(2, (0, 1))
        e11 = product_element_index(2, (1, 1))
        assert p.op("or", [e10, e01]) == e11

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
    assert power.tables == power_by_definition(algebra, n)
    assert power.carrier == tuple(
        "(" + ",".join(coords) + ")" for coords in product(algebra.carrier, repeat=n)
    )


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
        from aggcheck.modal import reflexive_frames

        for n in (1, 2):
            for frame in reflexive_frames(n):
                self.lattice_laws_hold(bao_from_frame(frame))
        self.lattice_laws_hold(
            bao_from_frame(
                KripkeFrame(3, frozenset({(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}))
            )
        )
