from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck import agenda as agenda_layer
from aggcheck.agenda import (
    _fresh_variable,
    agenda_over,
    equivalent_variable,
    is_strictly_contingent,
    pseudo_richness,
    strictly_contingent_formulas,
)
from aggcheck.algebra import (
    FiniteAlgebra,
    builtin_boolean2,
    builtin_mv_chain,
    evaluate,
    product_algebra,
)
from aggcheck.oracles import all_valuations, interderivable
from aggcheck.semantics import Matrix
from aggcheck.syntax import App, Signature, Var, formula_sort_key, parse_formula, variables_of
from builders import builtin_distributive_lattice
from test_vectors import formulas

_B2, _MV3 = builtin_boolean2(), builtin_mv_chain(3)
_DIAMOND = builtin_distributive_lattice(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
_POINT = FiniteAlgebra(_B2.signature, ("0",), tuple((s, (0,)) for s, _ in _B2.signature.connectives),
                       order=frozenset({(0, 0)}))

# (matrix, the agenda's truth-value algebra, or None for the matrix's own)
LOGICS = {
    "boolean2": (Matrix(_B2, frozenset({1})), None),
    "boolean2-degree": (Matrix(_B2), None),
    "boolean2-all-designated": (Matrix(_B2, frozenset({0, 1})), None),
    "boolean2-values-in-b4": (Matrix(_B2, frozenset({1})), product_algebra(_B2, 2)),
    "mv3": (Matrix(_MV3, frozenset({2})), None),
    "mv3-degree": (Matrix(_MV3), None),
    "mv3-all-designated": (Matrix(_MV3, frozenset({0, 1, 2})), None),
    "diamond-degree": (Matrix(_DIAMOND), None),
    "diamond-filter": (Matrix(_DIAMOND, frozenset({1, 3})), None),
    "point-degree": (Matrix(_POINT), None),
}


def f(text, matrix):
    return parse_formula(text, matrix.algebra.signature)


class TestEquivalentVariable:
    def test_variable_is_itself(self, bool_agenda, classical):
        assert equivalent_variable(f("x1", classical), bool_agenda) == "x1"

    def test_double_negation(self, classical):
        ag = agenda_over([f("(not (not x1))", classical)], classical)
        assert equivalent_variable(f("(not (not x1))", classical), ag) == "x1"

    def test_tautology_has_none(self, classical):
        ag = agenda_over([f("(or x1 (not x1))", classical)], classical)
        assert equivalent_variable(f("(or x1 (not x1))", classical), ag) is None

    def test_constant_has_none(self, classical):
        ag = agenda_over([f("top", classical)], classical)
        assert equivalent_variable(f("top", classical), ag) is None

    def test_constant_is_a_fresh_variable_when_every_value_holds(self, boolean2):
        everything = Matrix(boolean2, frozenset({0, 1}))
        ag = agenda_over([f("bot", everything)], everything)
        assert equivalent_variable(f("bot", everything), ag) == "x_fresh"

    def test_the_fresh_variable_steps_past_a_constant_of_its_name(self):
        algebra = FiniteAlgebra(Signature((("x_fresh", 0),)), ("0", "1"), (("x_fresh", (0,)),))
        everything = Matrix(algebra, frozenset({0, 1}))
        constant = App("x_fresh")
        assert equivalent_variable(constant, agenda_over([constant], everything)) == "x_fresh1"

    @pytest.mark.parametrize("logic", sorted(LOGICS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_first_interderivable_candidate(self, logic, data):
        # the brute-force oracle: own variables in order, then the fresh one
        matrix, algebra = LOGICS[logic]
        formula = data.draw(formulas(matrix.algebra, ["x1", "x2", "x3"], 6))  # constants too
        agenda = agenda_over([formula], matrix, algebra)
        own = variables_of(formula)
        candidates = [*own, _fresh_variable(agenda)]  # own names are x1..x3
        expected = next(
            (name for name in candidates if interderivable(matrix, formula, Var(name))), None)
        assert equivalent_variable(formula, agenda) == expected


class TestPseudoRichness:
    def test_two_variables(self, classical):
        ag = agenda_over(
            [f(t, classical) for t in ("x1", "x2", "(or x1 x2)")], classical
        )
        level, witnesses = pseudo_richness(ag)
        assert level == 2
        assert {equivalent_variable(w, ag) for w, _ in witnesses} == {"x1", "x2"}

    def test_disguised_variable(self, classical):
        ag = agenda_over(
            [f("x1", classical), f("(not (not x2))", classical)], classical
        )
        level, witnesses = pseudo_richness(ag)
        assert level == 2
        assert (f("(not (not x2))", classical), "x2") in witnesses

    def test_same_variable_twice_is_level_one(self, classical):
        ag = agenda_over(
            [f("x1", classical), f("(or x1 x1)", classical)], classical
        )
        level, witnesses = pseudo_richness(ag)
        assert level == 1
        assert [var for _, var in witnesses] == ["x1"]

    def test_luk_square_not_a_variable(self, luk3_filter):
        ag = agenda_over(
            [f("x1", luk3_filter), f("(odot x1 x1)", luk3_filter)], luk3_filter
        )
        # x1 (.) x1 is interderivable with x1 itself, so both witness the
        # same variable: level stays 1 in filter mode too
        level, _ = pseudo_richness(ag)
        assert level == 1

    def test_every_value_holding_alike_matches_every_formula(self, boolean2):
        # each formula holds as every variable does: (or x1 x2) takes x1, so top
        # and x1 take fresh names and the level is the agenda's size
        everything = Matrix(boolean2, frozenset({0, 1}))
        ag = agenda_over([f(t, everything) for t in ("x1", "top", "(or x1 x2)")], everything)
        assert pseudo_richness(ag) == (3, (
            (f("(or x1 x2)", everything), "x1"), (f("top", everything), "x_fresh"),
            (f("x1", everything), "x_fresh1")))

    def test_a_fresh_variable_is_no_agenda_variable(self, boolean2):
        everything = Matrix(boolean2, frozenset({0, 1}))
        ag = agenda_over([f(t, everything) for t in ("x_fresh", "top")], everything)
        assert pseudo_richness(ag) == (2, (
            (f("top", everything), "x_fresh1"), (f("x_fresh", everything), "x_fresh")))
        assert equivalent_variable(f("top", everything), ag) == "x_fresh1"

    @pytest.mark.parametrize("logic", sorted(LOGICS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_level_is_the_largest_matching_by_brute_force(self, logic, data):
        # the oracle: every way to match formulas to distinct variables, their own
        # or fresh ones, each interderivable with its formula
        matrix, algebra = LOGICS[logic]
        drawn = data.draw(st.lists(formulas(matrix.algebra, ["x1", "x2"], 4), max_size=4))
        agenda = agenda_over(dict.fromkeys(drawn), matrix, algebra)
        fresh = [f"y{i}" for i in range(len(agenda))]  # drawn formulas hold x1, x2 only
        options = [[None, *(name for name in (*variables_of(g), *fresh)
                            if interderivable(matrix, g, Var(name)))] for g in agenda.formulas]

        def matched(choice):
            names = [name for name in choice if name]
            return len(names) if len(names) == len(set(names)) else 0

        level, witnesses = pseudo_richness(agenda)
        assert level == max(map(matched, product(*options))) == len(witnesses)
        assert len({name for _, name in witnesses}) == level
        assert all(interderivable(matrix, g, Var(name)) for g, name in witnesses)


class TestStrictlyContingent:
    def test_variable(self, boolean2, luk3):
        for algebra in (boolean2, luk3):
            x = parse_formula("x1", algebra.signature)
            assert is_strictly_contingent(x, algebra)

    def test_tautology_not(self, classical, boolean2):
        assert not is_strictly_contingent(f("(or x1 (not x1))", classical), boolean2)

    def test_luk_square_misses_half(self, luk3):
        # image of x (.) x over the chain is {0, 1}: 1/2 is never attained
        sq = parse_formula("(odot x1 x1)", luk3.signature)
        assert not is_strictly_contingent(sq, luk3)

    def test_join_is_contingent(self, classical, boolean2):
        assert is_strictly_contingent(f("(or x1 x2)", classical), boolean2)

    def test_agenda_report(self, or_agenda):
        names = {str(x) for x in strictly_contingent_formulas(or_agenda)}
        assert len(names) == 3  # all three formulas hit both truth values

    @pytest.mark.parametrize("logic", sorted(LOGICS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_agenda_report_matches_brute_force(self, logic, data):
        # the matrix's own algebra reads the images counted with the equivalent
        # variables; "boolean2-values-in-b4" evaluates in another algebra
        matrix, algebra = LOGICS[logic]
        drawn = data.draw(st.lists(formulas(matrix.algebra, ["x1", "x2"], 5), max_size=3))
        agenda = agenda_over(dict.fromkeys(drawn), matrix, algebra)
        values = agenda.algebra
        expected = tuple(
            f for f in sorted(agenda.formulas, key=formula_sort_key)
            if len({evaluate(f, v, values) for v in all_valuations(variables_of(f), values)})
            == values.size)
        assert strictly_contingent_formulas(agenda) == expected

    def test_a_foreign_value_algebra_evaluates_each_formula_once_per_algebra(self, monkeypatch):
        matrix, values = LOGICS["boolean2-values-in-b4"]
        ag = agenda_over([f(t, matrix) for t in ("x1", "x2", "(or x1 x2)", "(not x1)")],
                         matrix, values)
        calls = []

        def spy(original):
            def counting(formulas, variables, algebra):
                calls.append((formulas[0], algebra.size))
                return original(formulas, variables, algebra)
            return counting

        monkeypatch.setattr(agenda_layer, "truth_vectors", spy(agenda_layer.truth_vectors))
        for _ in range(2):
            assert pseudo_richness(ag)[0] == 2
            assert strictly_contingent_formulas(ag) == tuple(
                sorted(ag.formulas, key=formula_sort_key))
        assert Counter(calls) == Counter((g, size) for g in ag.formulas for size in (2, 4))


class TestPseudoRichImpliesContingent:
    def test_generated_agendas(self, classical, luk3_degree):
        cases = [
            (classical, ["x1"]),
            (classical, ["(not (not x1))", "(or x1 x1)"]),
            (classical, ["x1", "x2", "(and x1 x2)"]),
            (luk3_degree, ["x1", "(oplus x1 x2)"]),
            (luk3_degree, ["(not (not x2))"]),
        ]
        for matrix, texts in cases:
            ag = agenda_over([f(t, matrix) for t in texts], matrix)
            level, _ = pseudo_richness(ag)
            if level >= 1:
                assert strictly_contingent_formulas(ag), texts
