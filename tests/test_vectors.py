"""The truth-vector layer against brute force over bounded_closure and evaluate."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck import algebra
from aggcheck.algebra import (
    _program_steps,
    builtin_boolean2,
    builtin_mv_chain,
    closure_vectors,
    evaluate,
    truth_vectors,
)
from aggcheck.errors import BudgetExceededError, EvaluationError
from aggcheck.modal import (
    bao_from_frame,
    material_implication,
    subjunctive_implication,
)
from aggcheck.oracles import all_valuations, is_consistent, reflexive_frames
from aggcheck.syntax import (App, Var, bounded_closure, parse_formula, print_formula,
                             variables_of)
from builders import builtin_distributive_lattice

ALGEBRAS = {
    "boolean2": builtin_boolean2(),
    "mv3": builtin_mv_chain(3),
    "diamond": builtin_distributive_lattice(
        ["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)]
    ),
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


def tuples(vectors):
    """The vectors as tuples of ints, the form brute_vector gives."""
    return [tuple(vector) for vector in vectors]


def shortlex(formula):
    """Shortest first, then by printed text: the order of closure representatives."""
    text = print_formula(formula)
    return len(text), text


@settings(max_examples=60, deadline=None)
@given(closure_inputs())
def test_closure_representatives_match_brute_force(inputs):
    algebra, variables, seeds, depth = inputs
    expected = {}
    for f in sorted(bounded_closure(seeds, algebra.signature, depth), key=shortlex):
        expected.setdefault(brute_vector(f, variables, algebra), f)
    layer = closure_vectors(seeds, variables, algebra, depth)
    assert [(tuple(v), f) for v, f in layer.items()] == list(expected.items())


@settings(max_examples=60, deadline=None)
@given(closure_inputs())
def test_deeper_closures_never_lengthen_and_stay_at_a_fixpoint(inputs):
    algebra, variables, seeds, _ = inputs
    closures = []
    for depth in range(7):
        try:
            closures.append(closure_vectors(seeds, variables, algebra, depth, budget=20_000))
        except BudgetExceededError:
            break
    for shallow, deep in zip(closures, closures[1:]):
        assert all(len(print_formula(deep[v])) <= len(print_formula(f))
                   for v, f in shallow.items())
    fixed = next((i for i in range(1, len(closures)) if closures[i] == closures[i - 1]), None)
    if fixed is not None:
        assert len(closures) == 7  # no later depth is refused
        assert all(closure == closures[fixed] for closure in closures[fixed:])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_truth_vectors_match_evaluate(data):
    algebra = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    names = ["x1", "x2", "x3"][: data.draw(st.integers(0, 3))]
    fs = data.draw(st.lists(formulas(algebra, names or ["x1"], 12), max_size=4))
    fs = [f for f in fs if set(variables_of(f)) <= set(names)]
    assert tuples(truth_vectors(fs, names, algebra)) == [
        brute_vector(f, names, algebra) for f in fs
    ]


def test_one_formula_list_runs_on_algebra_after_algebra():
    # each run must take its width and variable vectors from the algebra it is given;
    # mv3 shares no connective with the others, so it runs the variables alone, and
    # the formulas with lattice connectives and constants run on the rest
    frame_algebra = bao_from_frame(reflexive_frames(3)[5])
    runs = [(["x2", "x1", "x2"], ["boolean2", "mv3", "diamond", "frame"]),
            (["(or x1 top)", "(and x2 (or x1 bot))", "bot", "x2"],
             ["boolean2", "diamond", "frame"])]
    for texts, names in runs:
        fs = [parse_formula(text, frame_algebra.signature) for text in texts]
        for name in names:
            target = ALGEBRAS.get(name, frame_algebra)
            vectors = truth_vectors(fs, ["x1", "x2"], target)
            assert tuples(vectors) == [brute_vector(f, ["x1", "x2"], target) for f in fs]


def compound_subformulas(formulas):
    """The distinct compound subformulas, by brute force: a set of formulas."""
    seen, stack = set(), list(formulas)
    while stack:
        formula = stack.pop()
        if isinstance(formula, App) and formula not in seen:
            seen.add(formula)
            stack.extend(formula.args)
    return seen


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_program_has_one_step_per_distinct_compound_subformula(data):
    algebra = ALGEBRAS[data.draw(st.sampled_from(sorted(ALGEBRAS)))]
    names = ["x1", "x2"]
    fs = data.draw(st.lists(formulas(algebra, names, 12), max_size=4))
    # parsed from text, equal subformulas are separate objects
    for drawn in (fs, [parse_formula(print_formula(f), algebra.signature) for f in fs]):
        steps, outputs = _program_steps(drawn, names)
        assert len(steps) == len(set(steps)) == len(compound_subformulas(drawn))
        assert all(a < len(names) + i for i, (_, args) in enumerate(steps) for a in args)
        assert [outputs[fs.index(f)] for f in fs] == outputs  # equal formulas share a slot


def test_equal_subformulas_built_apart_are_evaluated_once(monkeypatch):
    applied = []
    op_on_vectors = algebra.FiniteAlgebra.op_on_vectors

    def spy(self, symbol, args, width):
        applied.append(symbol)
        return op_on_vectors(self, symbol, args, width)

    monkeypatch.setattr(algebra.FiniteAlgebra, "op_on_vectors", spy)
    b, names = builtin_boolean2(), ["x1", "x2"]
    f = parse_formula("(and (or x1 x2) (not (or x1 x2)))", b.signature)
    assert tuples(truth_vectors([f], names, b)) == [brute_vector(f, names, b)]
    assert applied == ["or", "not", "and"]


def chain_formula(names, symbol="or"):
    """(symbol ... (symbol x1 x2) ... xk) over the given variables."""
    formula = Var(names[0])
    for name in names[1:]:
        formula = App(symbol, (formula, Var(name)))
    return formula


@pytest.fixture
def live_vectors(monkeypatch):
    """How many computed vectors were alive as each connective was applied."""
    live, counts = set(), []

    class Tracked(bytes):
        def __del__(self):
            live.discard(id(self))

    op_on_vectors = algebra.FiniteAlgebra.op_on_vectors

    def spy(self, symbol, args, width):
        counts.append(len(live))
        vector = Tracked(op_on_vectors(self, symbol, args, width))
        live.add(id(vector))
        return vector

    monkeypatch.setattr(algebra.FiniteAlgebra, "op_on_vectors", spy)
    return counts


def test_intermediate_vectors_are_dropped_after_their_last_read(live_vectors):
    names = [f"x{i}" for i in range(1, 9)]
    f = chain_formula(names)
    assert tuples(truth_vectors([f], names, builtin_boolean2())) == [
        brute_vector(f, names, builtin_boolean2())]
    # each link reads only the one before it, the one vector still alive
    assert live_vectors == [0] + [1] * 6


def test_a_formula_given_twice_gets_its_vector_twice():
    b = builtin_boolean2()
    names = ["x1", "x2", "x3"]
    f, g = chain_formula(names), chain_formula(names, "and")
    assert tuples(truth_vectors([f, g, f], names, b)) == [
        brute_vector(h, names, b) for h in (f, g, f)]
    assert tuples(truth_vectors([App("not", (f,)), f, f], names, b))[1:] == [
        brute_vector(f, names, b)] * 2


def test_an_output_read_by_a_later_step_keeps_its_vector():
    b = builtin_boolean2()
    names = ["x1", "x2", "x3"]
    sub = chain_formula(names[:2])
    f = App("and", (App("not", (sub,)), App("or", (sub, Var("x3")))))
    for outputs in ([sub, f], [f, sub], [sub, f, sub]):
        assert tuples(truth_vectors(outputs, names, b)) == [
            brute_vector(h, names, b) for h in outputs]


def test_unbound_variable():
    with pytest.raises(EvaluationError):
        truth_vectors([Var("y")], ["x"], builtin_boolean2())


def test_deep_formula_needs_no_recursion():
    f = Var("x")
    for _ in range(5000):
        f = App("not", (f,))
    assert tuples(truth_vectors([f], ["x"], builtin_boolean2())) == [(0, 1)]


def test_closure_stops_at_its_fixpoint(monkeypatch):
    applied = []
    op_on_vectors = algebra.FiniteAlgebra.op_on_vectors

    def spy(self, symbol, args, width):
        applied.append(symbol)
        return op_on_vectors(self, symbol, args, width)

    monkeypatch.setattr(algebra.FiniteAlgebra, "op_on_vectors", spy)
    counts = []
    for depth in (3, 12):
        applied.clear()
        closure_vectors([Var("x1")], ["x1"], builtin_boolean2(), depth)
        counts.append(len(applied))
    assert counts[0] == counts[1] > 0


def test_closure_budget_counts_one_layer():
    b = builtin_boolean2()
    seeds = [Var("x1"), Var("x2")]
    closure_vectors(seeds, ["x1", "x2"], b, 1, budget=4 * (4 + 2 * 16))
    with pytest.raises(BudgetExceededError):
        closure_vectors(seeds, ["x1", "x2"], b, 1, budget=4 * (4 + 2 * 16) - 1)


def test_closure_charges_the_seeds_before_any_vector(monkeypatch):
    # the library route to the seed charge, which check-selfext refuses from its counts
    def forbidden(*args):
        raise AssertionError("a seed vector was computed")

    monkeypatch.setattr(algebra, "_variable_vectors", forbidden)
    seeds = [Var("x1"), Var("x2")]  # and the constants bot and top, 4 valuations each
    with pytest.raises(BudgetExceededError) as refused:
        closure_vectors(seeds, ["x1", "x2"], builtin_boolean2(), 0, budget=15)
    assert str(refused.value) == (
        "closure seed: 4 formulas x 4 valuations = 16 exceed the limit of 15"
    )


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
