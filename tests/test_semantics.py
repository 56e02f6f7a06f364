from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck import semantics
from aggcheck.algebra import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    builtin_mv_chain,
    closure_vectors,
    refuse,
)
from aggcheck.errors import BudgetExceededError
from aggcheck.fileio import load_matrix, matrix_from_obj
from aggcheck.oracles import entails, interderivable
from aggcheck.semantics import CongruenceWitness, Matrix, check_selfextensionality
from aggcheck.syntax import App, Signature, Var, bounded_closure, parse_formula
from builders import builtin_distributive_lattice
from test_golden import DOUBLED_BOOLEAN, _diamond_matrix


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


@st.composite
def small_matrices(draw):
    """A random filter matrix on 2-4 elements with a unary and a binary connective,
    and maybe a constant and a ternary one; one or two variables; depth 1 or 2."""
    size = draw(st.integers(2, 4))
    connectives = [("u", 1), ("b", 2)]
    connectives += draw(st.sampled_from([[], [("c", 0)]]))
    connectives += draw(st.sampled_from([[], [("t", 3)]]))
    ops = tuple(
        (symbol, tuple(draw(st.lists(st.integers(0, size - 1),
                                     min_size=size**arity, max_size=size**arity))))
        for symbol, arity in connectives)
    algebra = FiniteAlgebra(Signature(tuple(connectives)), tuple(map(str, range(size))), ops)
    designated = draw(st.frozensets(st.integers(0, size - 1), min_size=1))
    variables = draw(st.sampled_from([["x1"], ["x1", "x2"]]))
    return Matrix(algebra, designated), variables, draw(st.integers(1, 2))


@st.composite
def chain_products(draw):
    """A degree-mode matrix on the product of two chains, a distributive lattice."""
    elements = list(product(range(draw(st.integers(1, 3))), range(draw(st.integers(2, 3)))))
    algebra = builtin_distributive_lattice(
        [f"{i}{j}" for i, j in elements],
        [(x, y) for x, (i, j) in enumerate(elements) for y, (k, m) in enumerate(elements)
         if i <= k and j <= m])
    return Matrix(algebra)


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
    def test_unreduced_classical_matrix_passes(self, variables, depth, monkeypatch):
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

        # each class's first member is compared with each later one, at every
        # position and every tuple of other arguments: one result per comparison,
        # and the first member's once per class, position and other arguments
        answer, calls = loop_applications(matrix, variables, depth, monkeypatch)
        assert answer == (True, None)
        per_pair = sum(arity * len(vectors) ** (arity - 1)
                       for _, arity in algebra.signature.connectives if arity)
        shared = sum(count > 1 for count in classes.values())
        assert calls == (len(vectors) - len(classes) + shared) * per_pair

    def test_a_first_members_result_is_computed_once(self, monkeypatch):
        # 12 of the 14 classes have a later member: 35,992 later-member results and
        # 12 x (1 + 2*102 + 2*102) = 4,908 first-member ones, against 71,984 when
        # the first member's result was computed again for every later member
        matrix = matrix_from_obj(DOUBLED_BOOLEAN)
        assert loop_applications(matrix, ["x1", "x2"], 2, monkeypatch) == ((True, None), 40_900)

    def test_first_witness_can_pair_the_first_member_with_the_third(self):
        # constants a, b, c hold alike, u(a) and u(b) hold alike but u(c) does
        # not: (a, b) passes, so the first witness is (a, c), ahead of (b, c)
        signature = Signature((("u", 1), ("a", 0), ("b", 0), ("c", 0)))
        algebra = FiniteAlgebra(signature, ("0", "1", "2", "3"),
                                (("u", (0, 1, 1, 0)), ("a", (1,)), ("b", (2,)), ("c", (3,))))
        matrix = Matrix(algebra, frozenset({1, 2, 3}))
        expected = (False, CongruenceWitness("u", (App("a", ()),), (App("c", ()),)))
        assert all_pairs_selfextensionality(matrix, ["x1"], 1) == expected
        assert check_selfextensionality(matrix, ["x1"], 1) == expected

    @given(small_matrices())
    @settings(max_examples=100, deadline=None)
    def test_first_member_comparison_matches_all_pairs(self, drawn):
        matrix, variables, depth = drawn
        budget = 20_000
        try:
            expected = all_pairs_selfextensionality(matrix, variables, depth, budget)
        except BudgetExceededError:
            expected = None
        try:
            actual = check_selfextensionality(matrix, variables, depth, budget)
        except BudgetExceededError:
            assert expected is None  # it charges no more than all pairs
        else:
            assert expected is None or actual == expected

    @pytest.mark.parametrize("logic", ["boolean2", "boolean2-degree", "mv3-degree"])
    def test_injective_holding_builds_no_closure(self, logic):
        assert closures_built(load_matrix(logic), ["x1", "x2", "x3"], 50) == ((True, None), 0)

    @pytest.mark.parametrize("matrix", [load_matrix("mv3"), matrix_from_obj(_diamond_matrix()),
                                        matrix_from_obj(DOUBLED_BOOLEAN)],
                             ids=["mv3", "diamond", "doubled-boolean"])
    def test_repeated_holding_builds_the_closure(self, matrix):
        assert closures_built(matrix, ["x1"], 1)[1] == 1

    @pytest.mark.parametrize("logic, variables, depth", [("boolean2", 2, 2),
                                                         ("boolean2-degree", 2, 1),
                                                         ("mv3-degree", 1, 2)])
    def test_injective_holding_tells_closure_vectors_apart(self, logic, variables, depth):
        matrix = load_matrix(logic)
        assert no_two_interderivable(matrix, [f"x{i + 1}" for i in range(variables)], depth)

    @given(chain_products())
    @settings(max_examples=20, deadline=None)
    def test_drawn_degree_lattice_builds_no_closure(self, matrix):
        assert closures_built(matrix, ["x1", "x2"], 50) == ((True, None), 0)
        assert no_two_interderivable(matrix, ["x1"], 1)


def loop_applications(matrix, variables, depth, monkeypatch):
    """``check_selfextensionality``'s answer, and the connective applications its
    congruence loop makes once the closure is built."""
    calls = []

    def closure_then_count(*args, **kwargs):
        closure = closure_vectors(*args, **kwargs)
        calls.append(0)
        return closure

    def counted(self, *args):
        if calls:
            calls[0] += 1
        return op_on_vectors(self, *args)

    op_on_vectors = FiniteAlgebra.op_on_vectors
    monkeypatch.setattr(semantics, "closure_vectors", closure_then_count)
    monkeypatch.setattr(FiniteAlgebra, "op_on_vectors", counted)
    answer = check_selfextensionality(matrix, variables, depth)
    return answer, calls[0]


def closures_built(matrix, variables, depth):
    """``check_selfextensionality``'s answer, and how many closures it built."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(None)
        return closure_vectors(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(semantics, "closure_vectors", spy)
        answer = check_selfextensionality(matrix, variables, depth)
    return answer, len(calls)


def no_two_interderivable(matrix, variables, depth):
    """Brute force: no two formulas with distinct closure vectors are interderivable."""
    formulas = closure_vectors(map(Var, variables), variables, matrix.algebra, depth).values()
    return not any(interderivable(matrix, left, right)
                   for left, right in combinations(formulas, 2))


def all_pairs_selfextensionality(matrix, variables, depth, budget=DEFAULT_BUDGET):
    """The reference: ``check_selfextensionality`` comparing every pair of a class."""
    algebra = matrix.algebra
    names = sorted(variables)
    n_valuations = algebra.size ** len(names)
    rep = closure_vectors(map(Var, variables), names, algebra, depth, budget=budget)
    vectors = list(rep)
    classes = {}
    for vec in vectors:
        classes.setdefault(matrix.pattern(vec), []).append(vec)
    pairs = [pair for members in classes.values() for pair in combinations(members, 2)]
    for symbol, arity in algebra.signature.connectives:
        if arity == 0:
            continue
        refuse(budget, f"congruence check of {symbol!r}", (len(pairs), "vector pairs"),
               (arity, "positions"), ((len(vectors), arity - 1), "other arguments"))
        for u, w in pairs:
            for position in range(arity):
                for others in product(vectors, repeat=arity - 1):
                    args_u = others[:position] + (u,) + others[position:]
                    args_w = others[:position] + (w,) + others[position:]
                    res_u = algebra.op_on_vectors(symbol, args_u, n_valuations)
                    res_w = algebra.op_on_vectors(symbol, args_w, n_valuations)
                    if matrix.pattern(res_u) != matrix.pattern(res_w):
                        return False, CongruenceWitness(
                            symbol, tuple(rep[a] for a in args_u), tuple(rep[a] for a in args_w))
    return True, None


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
