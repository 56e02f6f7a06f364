import pytest
from hypothesis import given, settings, strategies as st

from aggcheck.algebra import evaluate
from aggcheck.errors import BudgetExceededError
from aggcheck.semantics import (
    BoundedConsequence,
    Matrix,
    check_closure_laws,
    check_selfextensionality,
    entails,
    generate_sfilter,
    interderivable,
)
from aggcheck.syntax import Var, bounded_closure, parse_formula


def f(text, matrix):
    return parse_formula(text, matrix.algebra.signature)


class TestMatrix:
    def test_filter_needs_designated(self, boolean2):
        with pytest.raises(ValueError):
            Matrix(boolean2, frozenset(), "filter")

    def test_degree_needs_order(self, boolean2):
        bare = boolean2.__class__(
            signature=boolean2.signature,
            carrier=boolean2.carrier,
            ops=boolean2.ops,
            order=None,
        )
        with pytest.raises(ValueError, match="order"):
            Matrix(bare, None, "degree")


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


class TestClosureLaws:
    def test_classical_small_fragment(self, classical):
        bc = BoundedConsequence(
            classical, (f("x1", classical), f("(not x1)", classical)), 0
        )
        report = check_closure_laws(bc)
        assert report.all_hold, report.violations

    def test_empty_fragment_base(self, classical):
        # depth 0 still brings in the constants; laws hold vacuously-or-not
        bc = BoundedConsequence(classical, (), 0)
        assert check_closure_laws(bc).all_hold

    def test_luk_degree_fragment(self, luk3_degree):
        bc = BoundedConsequence(
            luk3_degree, (f("x1", luk3_degree), f("(oplus x1 x1)", luk3_degree)), 0
        )
        report = check_closure_laws(bc)
        assert report.all_hold, report.violations

    def test_oversized_fragment_rejected(self, classical):
        bc = BoundedConsequence(classical, (f("x1", classical), f("x2", classical)), 2)
        with pytest.raises(BudgetExceededError):
            _ = bc.fragment

    def test_closure_against_direct_entailment(self, classical):
        # oracle: closure membership must coincide with one-by-one entails calls
        base = (
            f("x1", classical),
            f("x2", classical),
            f("(or x1 x2)", classical),
            f("(not x1)", classical),
        )
        bc = BoundedConsequence(classical, base, 0)
        frag = bc.fragment
        for mask in (0, 1, 3, 7):
            premises = [frag[i] for i in range(len(frag)) if mask >> i & 1]
            cmask = bc.closure_mask(mask)
            for i, conclusion in enumerate(frag):
                assert bool(cmask >> i & 1) == entails(classical, premises, conclusion)

    def test_relation_is_reflexive_and_monotone(self, classical):
        bc = BoundedConsequence(
            classical, (f("x1", classical), f("(not x1)", classical)), 0
        )
        relation = bc.relation
        frag = set(bc.fragment)
        for premises, conclusion in relation:
            assert conclusion in frag
        for phi in frag:
            assert (frozenset({phi}), phi) in relation
        # monotone: anything entailed by a set is entailed by its supersets
        for premises, conclusion in relation:
            for extra in frag:
                assert (premises | {extra}, conclusion) in relation


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


class TestSFilter:
    def test_designated_set_is_closed(self, classical):
        fragment = bounded_closure(
            {Var("x1"), Var("x2")}, classical.algebra.signature, 1
        )
        out = generate_sfilter(classical, classical.algebra, {1}, fragment)
        assert out.elements == frozenset({1})

    def test_zero_seed_explodes(self, classical):
        fragment = bounded_closure(
            {Var("x1"), Var("x2")}, classical.algebra.signature, 1
        )
        out = generate_sfilter(classical, classical.algebra, {0}, fragment)
        assert out.elements == frozenset({0, 1})

    def test_luk_designated_seed(self, luk3_filter):
        fragment = bounded_closure({Var("x1")}, luk3_filter.algebra.signature, 1)
        out = generate_sfilter(luk3_filter, luk3_filter.algebra, {2}, fragment)
        assert out.elements == frozenset({2})

    def test_result_is_fixpoint(self, luk3_filter):
        fragment = bounded_closure({Var("x1")}, luk3_filter.algebra.signature, 1)
        out = generate_sfilter(luk3_filter, luk3_filter.algebra, {1}, fragment)
        again = generate_sfilter(
            luk3_filter, luk3_filter.algebra, out.elements, fragment
        )
        assert again.elements == out.elements

    @pytest.mark.parametrize("logic", ["classical", "luk3_filter"])
    def test_equals_the_least_fixpoint_of_entails(self, logic, request):
        matrix = request.getfixturevalue(logic)
        algebra = matrix.algebra
        fragment = bounded_closure({Var("x1")}, algebra.signature, 1)
        for seed in range(1 << algebra.size):
            current = {a for a in range(algebra.size) if seed >> a & 1}
            expected = set(current)
            while True:  # add each valuation's value of what the formulas valued in the set entail
                added = set()
                for a in range(algebra.size):
                    values = {phi: evaluate(phi, {"x1": a}, algebra) for phi in fragment}
                    premises = [phi for phi in fragment if values[phi] in expected]
                    added |= {values[phi] for phi in fragment if entails(matrix, premises, phi)}
                if added <= expected:
                    break
                expected |= added
            assert generate_sfilter(matrix, algebra, current, fragment).elements == expected

    def test_provenance_mentions_fragment(self, classical):
        out = generate_sfilter(classical, classical.algebra, {1}, [Var("x1")])
        assert "fragment" in out.provenance


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

        matrix = Matrix(builtin_boolean2(), frozenset({1}), "filter")
        texts, conclusion_text = data
        premises = [f(t, matrix) for t in texts]
        conclusion = f(conclusion_text, matrix)
        if conclusion in premises:
            assert entails(matrix, premises, conclusion)
        if entails(matrix, premises, conclusion):
            assert entails(matrix, premises + [f("x2", matrix)], conclusion)
