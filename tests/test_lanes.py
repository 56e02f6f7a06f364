"""Byte-lane truth vectors against brute force: random algebras on 2-7 elements
whose tables fall on both sides of 256 entries (a ternary table on 7 elements
has 343 entries, a binary one of lukasiewicz17 289), and a carrier of 257
elements, where vectors stay tuples."""

import json

from hypothesis import given, settings, strategies as st

from aggcheck.algebra import (
    FiniteAlgebra,
    builtin_mv_chain,
    closure_vectors,
    evaluate,
    is_homomorphism,
    product_algebra,
    truth_vectors,
)
from aggcheck.cli import main
from aggcheck.fileio import dump_json, load_matrix
from aggcheck.oracles import all_valuations
from aggcheck.semantics import Matrix
from aggcheck.syntax import App, Signature, Var, bounded_closure, print_formula, variables_of
from test_algebra import first_violation
from test_vectors import formulas

MV17 = builtin_mv_chain(17)


@st.composite
def random_algebras(draw, signature=None):
    """An algebra on 2-7 elements with a unary, a binary and a ternary connective,
    maybe a constant; or one with the given signature."""
    if signature is None:
        signature = Signature((("u", 1), ("b", 2), ("t", 3),
                               *draw(st.sampled_from([(), (("c", 0),)]))))
    size = draw(st.integers(2, 7))
    ops = tuple((symbol, tuple(draw(st.lists(st.integers(0, size - 1), min_size=size**arity,
                                             max_size=size**arity))))
                for symbol, arity in signature.connectives)
    return FiniteAlgebra(signature, tuple(map(str, range(size))), ops)


def lane_algebras():
    """A random algebra, or lukasiewicz17, whose binary tables have 289 entries."""
    return st.one_of(random_algebras(), st.just(MV17))


def brute_vector(formula, variables, algebra):
    return tuple(evaluate(formula, valuation, algebra)
                 for valuation in all_valuations(variables, algebra))


@settings(max_examples=80, deadline=None)
@given(lane_algebras(), st.data())
def test_truth_vectors_are_bytes_that_match_evaluate(algebra, data):
    names = ["x1", "x2"][: data.draw(st.integers(0, 2))]
    fs = data.draw(st.lists(formulas(algebra, names or ["x1"], 8), max_size=4))
    fs = [f for f in fs if set(variables_of(f)) <= set(names)]
    vectors = truth_vectors(fs, names, algebra)
    assert all(type(vector) is bytes for vector in vectors)
    assert [tuple(vector) for vector in vectors] == [brute_vector(f, names, algebra) for f in fs]


@st.composite
def closure_inputs(draw):
    algebra = draw(lane_algebras())
    names = ["x1", "x2"][: draw(st.integers(1, 2))]
    seeds = draw(st.lists(st.sampled_from([Var(n) for n in names]), min_size=1, max_size=2,
                          unique=True))
    # the deepest closure up to depth 2 whose brute-force size stays small
    depth, size = 0, len(seeds) + len(algebra.signature.constants)
    while depth < 2:
        size += sum(size**a for _, a in algebra.signature.connectives if a)
        if size > 3000:
            break
        depth += 1
    return algebra, names, seeds, draw(st.integers(0, depth))


@settings(max_examples=60, deadline=None)
@given(closure_inputs())
def test_closure_representatives_and_their_ties_match_brute_force(inputs):
    algebra, names, seeds, depth = inputs
    expected = {}  # the least formula of each vector, shortest first, ties by printed text
    for f in sorted(bounded_closure(seeds, algebra.signature, depth),
                    key=lambda f: (len(print_formula(f)), print_formula(f))):
        expected.setdefault(brute_vector(f, names, algebra), f)
    closure = closure_vectors(seeds, names, algebra, depth)
    assert [(tuple(v), f) for v, f in closure.items()] == list(expected.items())


@settings(max_examples=60, deadline=None)
@given(lane_algebras(), st.data())
def test_a_pattern_is_what_holding_records_at_each_valuation(algebra, data):
    if data.draw(st.booleans()) and algebra.order is not None:
        matrix = Matrix(algebra)  # degree mode: holding records the value itself
    else:
        designated = data.draw(st.frozensets(st.integers(0, algebra.size - 1), min_size=1))
        matrix = Matrix(algebra, designated)
    names = ["x1", "x2"]
    fs = data.draw(st.lists(formulas(algebra, names, 6), min_size=1, max_size=3))
    for f, vector in zip(fs, truth_vectors(fs, names, algebra)):
        pattern = matrix.pattern(vector)
        assert type(pattern) is bytes
        assert tuple(pattern) == tuple(
            int(evaluate(f, valuation, algebra) in matrix.designated)
            if matrix.designated is not None else evaluate(f, valuation, algebra)
            for valuation in all_valuations(names, algebra))


@st.composite
def mappings(draw):
    """A source, a target of its signature and a map between their carriers: a
    random map between two random algebras (with maybe a 4-ary connective, whose
    target rows have 343 entries on 7 elements), the identity or a projection of
    the square, each maybe changed at one element."""
    signature = Signature((*draw(st.sampled_from([(), (("c", 0),), (("q", 4),)])),
                           ("u", 1), ("b", 2), ("t", 3)))
    source = draw(random_algebras(signature))
    kind = draw(st.sampled_from(["random", "identity", "projection"]))
    if kind == "random":
        target = draw(random_algebras(signature))
        mapping = draw(st.lists(st.integers(0, target.size - 1), min_size=source.size,
                                max_size=source.size))
    elif kind == "identity" or signature.max_arity > 3:
        target, mapping = source, list(range(source.size))
    else:
        target, source = source, product_algebra(source, 2)
        mapping = [rank % target.size for rank in range(source.size)]
    if draw(st.booleans()):
        mapping[draw(st.integers(0, source.size - 1))] = draw(st.integers(0, target.size - 1))
    return source, target, tuple(mapping)


@settings(max_examples=80, deadline=None)
@given(mappings())
def test_is_homomorphism_gives_the_first_violation_of_every_argument_tuple(drawn):
    source, target, mapping = drawn
    assert is_homomorphism(mapping, source, target) == first_violation(mapping, source, target)


def test_is_homomorphism_of_lukasiewicz17_at_every_entry():
    identity = tuple(range(17))
    assert is_homomorphism(identity, MV17, MV17) == (True, None)
    flipped = (1, *identity[1:])
    assert is_homomorphism(flipped, MV17, MV17) == first_violation(flipped, MV17, MV17)


# one unary successor on 257 elements: past one byte per value, vectors are tuples
SUCCESSOR_257 = {
    "algebra": {
        "name": "successor257",
        "signature": {"connectives": [{"name": "s", "arity": 1}]},
        "carrier": [str(v) for v in range(257)],
        "ops": {"s": [(v + 1) % 257 for v in range(257)]},
    },
    "designated": [0],
}


def test_a_carrier_past_256_elements_keeps_tuple_vectors(tmp_path):
    logic, agenda = tmp_path / "successor257.json", tmp_path / "x1.json"
    dump_json(SUCCESSOR_257, logic)
    dump_json({"formulas": ["x1"]}, agenda)
    out = tmp_path / "agenda_report.json"
    assert main(["check-agenda", "--logic", str(logic), "--agenda", str(agenda),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    algebra = load_matrix(str(logic)).algebra
    values = brute_vector(Var("x1"), ["x1"], algebra)
    assert len(set(values)) == 257  # x1 takes every value: strictly contingent
    assert report["strictly_contingent"] == ["x1"]
    assert report["equivalent_variable"] == {"x1": "x1"}
    assert (report["pseudo_rich"], report["pseudo_rich_witnesses"]) == (1, [["x1", "x1"]])
    (vector,) = truth_vectors([Var("x1")], ["x1"], algebra)
    assert type(vector) is tuple and vector == values

    out = tmp_path / "selfext_report.json"
    assert main(["check-selfext", "--logic", str(logic), "--variables", "1", "--depth", "2",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    # by evaluate: the closure's formulas hold alike only where their values are equal,
    # so no argument swap can break the congruence property
    closure = bounded_closure([Var("x1")], algebra.signature, 2)
    assert closure == {Var("x1"), App("s", (Var("x1"),)), App("s", (App("s", (Var("x1"),)),))}
    by_pattern = {}
    for f in closure:
        values = brute_vector(f, ["x1"], algebra)
        by_pattern.setdefault(tuple(v == 0 for v in values), set()).add(values)
    assert all(len(vectors) == 1 for vectors in by_pattern.values())
    assert (report["selfextensional"], report["pass"]) == (True, True)
