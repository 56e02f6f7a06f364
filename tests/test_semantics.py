from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck.algebra import FiniteAlgebra, builtin_mv_chain, closure_vectors
from aggcheck.semantics import Matrix, check_selfextensionality, entails, interderivable
from aggcheck.syntax import Var, bounded_closure, parse_formula


def f(text, matrix):
    return parse_formula(text, matrix.algebra.signature)


class TestMatrix:
    def test_filter_needs_designated(self, boolean2):
        with pytest.raises(ValueError):
            Matrix(boolean2, frozenset())

    def test_degree_needs_order(self, boolean2):
        bare = boolean2.__class__(
            signature=boolean2.signature,
            carrier=boolean2.carrier,
            ops=boolean2.ops,
            order=None,
        )
        with pytest.raises(ValueError, match="order"):
            Matrix(bare)


class TestEntails:
    def test_modus_ponens_via_or(self, classical):
        # x1, not x1 or x2 |- x2
        premises = [f("x1", classical), f("(or (not x1) x2)", classical)]
        assert entails(classical, premises, f("x2", classical))

    def test_no_magic(self, classical):
        assert not entails(classical, [f("x1", classical)], f("x2", classical))

    def test_luk_filter_contraction(self, luk3_filter):
        # only valuation with designated premise is x1 -> 1, and 1 (.) 1 = 1
        assert entails(
            luk3_filter, [f("x1", luk3_filter)], f("(odot x1 x1)", luk3_filter)
        )
        assert entails(
            luk3_filter, [f("(odot x1 x1)", luk3_filter)], f("x1", luk3_filter)
        )

    def test_luk_degree_contraction_fails(self, luk3_degree):
        # at x1 = 1/2: 1/2 <= v(x1) but 1/2 is not <= v(x1 (.) x1) = 0
        assert not entails(
            luk3_degree, [f("x1", luk3_degree)], f("(odot x1 x1)", luk3_degree)
        )
        assert entails(
            luk3_degree, [f("(odot x1 x1)", luk3_degree)], f("x1", luk3_degree)
        )

    def test_empty_premises_are_theorems(self, classical):
        assert entails(classical, [], f("(or x1 (not x1))", classical))
        assert not entails(classical, [], f("x1", classical))


class TestInterderivable:
    def test_double_negation(self, classical):
        assert interderivable(classical, f("x1", classical), f("(not (not x1))", classical))

    def test_luk_filter_square(self, luk3_filter):
        assert interderivable(
            luk3_filter, f("x1", luk3_filter), f("(odot x1 x1)", luk3_filter)
        )

    def test_luk_degree_square_fails(self, luk3_degree):
        assert not interderivable(
            luk3_degree, f("x1", luk3_degree), f("(odot x1 x1)", luk3_degree)
        )

    def test_equivalence_relation_on_fragment(self, classical):
        fragment = sorted(
            bounded_closure({Var("x1"), Var("x2")}, classical.algebra.signature, 1),
            key=str,
        )[:12]
        equiv = {
            (a_i, b_i)
            for a_i, a in enumerate(fragment)
            for b_i, b in enumerate(fragment)
            if interderivable(classical, a, b)
        }
        for i in range(len(fragment)):
            assert (i, i) in equiv
        for a, b in equiv:
            assert (b, a) in equiv
        for a, b in equiv:
            for c in range(len(fragment)):
                if (b, c) in equiv:
                    assert (a, c) in equiv


class TestSelfextensionality:
    def test_classical_no_counterexample(self, classical):
        ok, witness = check_selfextensionality(classical, ["x1", "x2"], 2)
        assert ok and witness is None

    def test_classical_three_variables(self, classical):
        ok, _ = check_selfextensionality(classical, ["x1", "x2", "x3"], 2)
        assert ok

    def test_luk_filter_counterexample(self, luk3_filter):
        ok, witness = check_selfextensionality(luk3_filter, ["x1"], 2)
        assert not ok
        # the emitted witness is genuinely a violation
        for left, right in zip(witness.left_args, witness.right_args):
            assert interderivable(luk3_filter, left, right)
        assert not interderivable(
            luk3_filter, witness.left_result, witness.right_result
        )

    def test_luk_filter_canonical_pair(self, luk3_filter):
        # the textbook violation: x ~ x (.) x, but their negations differ
        x = f("x1", luk3_filter)
        xx = f("(odot x1 x1)", luk3_filter)
        assert interderivable(luk3_filter, x, xx)
        assert not interderivable(
            luk3_filter, f("(not x1)", luk3_filter), f("(not (odot x1 x1))", luk3_filter)
        )

    def test_luk_degree_no_counterexample(self, luk3_degree):
        ok, witness = check_selfextensionality(luk3_degree, ["x1"], 2)
        assert ok and witness is None

    @pytest.mark.parametrize("variables, depth", [(["x1"], 1), (["x1"], 2), (["x1", "x2"], 1)])
    def test_unreduced_classical_matrix_passes(self, variables, depth):
        # Ł2 x Ł3 with the filter {1} x Ł3: a formula holds iff its Ł2 coordinate
        # is 1, so the logic is classical, yet interderivable formulas may differ
        # in the Ł3 coordinate and the holding classes are not singletons
        left, right = builtin_mv_chain(2), builtin_mv_chain(3)
        pairs = list(product(range(left.size), range(right.size)))
        ops = tuple(
            (symbol, tuple(left.op(symbol, [a for a, _ in args]) * right.size
                           + right.op(symbol, [b for _, b in args])
                           for args in product(pairs, repeat=arity)))
            for symbol, arity in left.signature.connectives)
        algebra = FiniteAlgebra(left.signature, tuple(f"{a}{b}" for a, b in pairs), ops)
        matrix = Matrix(algebra, frozenset({3, 4, 5}))
        vectors = closure_vectors(map(Var, variables), variables, algebra, depth)
        classes = Counter(tuple(v in matrix.designated for v in vector) for vector in vectors)
        assert max(classes.values()) >= 2
        assert check_selfextensionality(matrix, variables, depth) == (True, None)


@st.composite
def small_formula_sets(draw):
    texts = ["x1", "x2", "(or x1 x2)", "(not x1)", "(and x1 x2)", "(not (or x1 x2))"]
    chosen = draw(st.lists(st.sampled_from(texts), min_size=0, max_size=3))
    conclusion = draw(st.sampled_from(texts))
    return chosen, conclusion


class TestEntailsProperties:
    @given(small_formula_sets())
    @settings(max_examples=60, deadline=None)
    def test_reflexive_and_monotone(self, data):
        from aggcheck.algebra import builtin_boolean2

        matrix = Matrix(builtin_boolean2(), frozenset({1}))
        texts, conclusion_text = data
        premises = [f(t, matrix) for t in texts]
        conclusion = f(conclusion_text, matrix)
        if conclusion in premises:
            assert entails(matrix, premises, conclusion)
        if entails(matrix, premises, conclusion):
            assert entails(matrix, premises + [f("x2", matrix)], conclusion)
