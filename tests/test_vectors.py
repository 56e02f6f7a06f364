"""The truth-vector layer against brute force over bounded_closure and evaluate."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck.algebra import (
    all_valuations,
    builtin_boolean2,
    builtin_distributive_lattice,
    builtin_mv_chain,
    closure_vectors,
    evaluate,
    truth_vectors,
)
from aggcheck.errors import BudgetExceededError, EvaluationError
from aggcheck.modal import (
    bao_from_frame,
    is_consistent,
    material_implication,
    reflexive_frames,
    subjunctive_implication,
)
from aggcheck.syntax import App, Var, bounded_closure, print_formula, variables_of

ALGEBRAS = {
    "boolean2": builtin_boolean2(),
    "mv3": builtin_mv_chain(3),
    "diamond": builtin_distributive_lattice(
        ["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)]
    ),
}

ORDERS = {
    "text": lambda text: text,
    "length-then-text": lambda text: (len(text), text),
}


def formulas(algebra, names, max_leaves):
    sig = algebra.signature
    leaves = st.sampled_from(
        [Var(n) for n in names] + [App(c, ()) for c in sig.constants]
    )

    def extend(children):
        return st.one_of([
            st.tuples(*[children] * arity).map(lambda args, s=symbol: App(s, args))
            for symbol, arity in sig.connectives
            if arity
        ])

    return st.recursive(leaves, extend, max_leaves=max_leaves)


@st.composite
def closure_inputs(draw):
    algebra = ALGEBRAS[draw(st.sampled_from(sorted(ALGEBRAS)))]
    names = [f"x{i + 1}" for i in range(draw(st.integers(1, 2)))]
    seeds = draw(st.lists(formulas(algebra, names, 3), min_size=1, max_size=2))
    # the deepest closure up to depth 2 whose brute-force size stays small
    depth, size = 0, len(set(seeds)) + len(algebra.signature.constants)
    while depth < 2:
        size += sum(size**a for _, a in algebra.signature.connectives if a)
        if size > 4000:
            break
        depth += 1
    depth = draw(st.integers(0, depth))
    variables = sorted({v for f in seeds for v in variables_of(f)})
    return algebra, variables, seeds, depth


def brute_vector(formula, variables, algebra):
    return tuple(evaluate(formula, v, algebra) for v in all_valuations(variables, algebra))


@settings(max_examples=60, deadline=None)
@given(closure_inputs(), st.sampled_from(sorted(ORDERS)))
def test_closure_representatives_match_brute_force(inputs, order):
    algebra, variables, seeds, depth = inputs
    key = ORDERS[order]
    expected = {}
    for f in sorted(
        bounded_closure(seeds, algebra.signature, depth),
        key=lambda f: key(print_formula(f)),
    ):
        expected.setdefault(brute_vector(f, variables, algebra), f)
    layer = closure_vectors(seeds, variables, algebra, depth, key=key)
    assert list(layer.items()) == list(expected.items())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_truth_vectors_match_evaluate(data):
    algebra = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    names = ["x1", "x2", "x3"][: data.draw(st.integers(0, 3))]
    fs = data.draw(st.lists(formulas(algebra, names or ["x1"], 12), max_size=4))
    fs = [f for f in fs if set(variables_of(f)) <= set(names)]
    assert truth_vectors(fs, names, algebra) == [
        brute_vector(f, names, algebra) for f in fs
    ]


def test_unbound_variable():
    with pytest.raises(EvaluationError):
        truth_vectors([Var("y")], ["x"], builtin_boolean2())


def test_deep_formula_needs_no_recursion():
    f = Var("x")
    for _ in range(5000):
        f = App("not", (f,))
    assert truth_vectors([f], ["x"], builtin_boolean2()) == [(0, 1)]


def test_closure_budget_counts_one_layer():
    b = builtin_boolean2()
    seeds = [Var("x1"), Var("x2")]
    closure_vectors(seeds, ["x1", "x2"], b, 1, budget=4 * (4 + 2 * 16))
    with pytest.raises(BudgetExceededError):
        closure_vectors(seeds, ["x1", "x2"], b, 1, budget=4 * (4 + 2 * 16) - 1)


def brute_consistency(formulas, max_worlds):
    """The search is_consistent replaces: frames, valuations, worlds in order."""
    names = sorted({v for f in formulas for v in variables_of(f)})
    for n in range(1, max_worlds + 1):
        for frame in reflexive_frames(n):
            algebra = bao_from_frame(frame)
            for values in product(range(algebra.size), repeat=len(names)):
                valuation = dict(zip(names, values))
                truths = [evaluate(f, valuation, algebra) for f in formulas]
                for world in range(n):
                    if all(t >> world & 1 for t in truths):
                        return frame, valuation, world
    return None


@pytest.mark.parametrize("texts", [
    [],
    ["p"],
    ["(box p)", "(not p)"],
    ["(not (box (or (not p) q)))", "p", "q"],
    ["(box (or (not p) q))", "p", "(not q)"],
    ["(not (box p))", "(not (box (not p)))", "(box (or p q))"],
])
def test_consistency_witness_matches_brute_force(texts):
    from aggcheck.modal import MODAL_SIGNATURE
    from aggcheck.syntax import parse_formula

    assert_consistency_matches([parse_formula(t, MODAL_SIGNATURE) for t in texts], 3)


def assert_consistency_matches(fs, max_worlds):
    ok, witness = is_consistent(fs, max_worlds)
    expected = brute_consistency(fs, max_worlds)
    assert ok == (expected is not None)
    if ok:
        assert (witness.frame, witness.valuation, witness.world) == expected


def subjunctive_condition_sets():
    """The twelve formula sets check_subjunctive_conditions decides."""
    p, q = Var("p"), Var("q")
    np_, nq = App("not", (p,)), App("not", (q,))
    subj = subjunctive_implication(p, q)
    heads = [subj, App("not", (subj,)), App("not", (material_implication(p, q),))]
    return [[head, *side] for head in heads for side in [(p, q), (p, nq), (np_, q), (np_, nq)]]


@pytest.mark.parametrize("fs", subjunctive_condition_sets(), ids=lambda fs: " ".join(
    print_formula(f) for f in fs))
def test_subjunctive_condition_witnesses_match_brute_force(fs):
    assert_consistency_matches(fs, 3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_drawn_modal_formulas_match_brute_force(data):
    frame_algebra = bao_from_frame(reflexive_frames(1)[0])  # for its signature
    fs = data.draw(st.lists(formulas(frame_algebra, ["p", "q"], 5), min_size=1, max_size=3))
    assert_consistency_matches(fs, data.draw(st.integers(1, 2)))
