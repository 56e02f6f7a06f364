import pytest
from hypothesis import given, settings, strategies as st

from aggcheck.errors import FormulaSyntaxError
from aggcheck.syntax import (
    MAX_FORMULA_DEPTH,
    App,
    Signature,
    Var,
    bounded_closure,
    parse_formula,
    print_formula,
)

BOOL_SIG = Signature((("not", 1), ("or", 2), ("and", 2), ("bot", 0), ("top", 0)))


def formulas(sig=BOOL_SIG, max_vars=3):
    """Hypothesis strategy for random formulas over a signature."""
    variables = st.builds(Var, st.sampled_from([f"x{i+1}" for i in range(max_vars)]))
    constants = st.builds(
        lambda s: App(s, ()), st.sampled_from([n for n, a in sig.connectives if a == 0])
    ) if sig.constants else variables

    def extend(children):
        apps = []
        for name, arity in sig.connectives:
            if arity > 0:
                apps.append(
                    st.builds(
                        lambda args, name=name: App(name, tuple(args)),
                        st.lists(children, min_size=arity, max_size=arity),
                    )
                )
        return st.one_of(apps)

    return st.recursive(st.one_of(variables, constants), extend, max_leaves=10)


class TestSignature:
    def test_duplicate_symbol_rejected(self):
        with pytest.raises(ValueError):
            Signature((("or", 2), ("or", 1)))

    def test_max_arity(self):
        assert BOOL_SIG.max_arity == 2
        assert Signature((("c", 0),)).max_arity == 0

    def test_constants(self):
        assert BOOL_SIG.constants == ("bot", "top")

    @pytest.mark.parametrize("name", ["(", ")", "n t", "", " not", "not\n", "a(b"])
    def test_a_name_the_parser_cannot_read_back_is_refused(self, name):
        with pytest.raises(ValueError) as refused:
            Signature((("not", 1), (name, 0)))
        assert str(refused.value) == (f"connective name {name!r} must be one formula token: "
                                      "not empty, with no whitespace or parentheses")

    @pytest.mark.parametrize("name", ["->", "<->", "~", "x_1", "oplus", "0", "é"])
    def test_every_one_token_name_reads_back(self, name):
        sig = Signature(((name, 2), ("c", 0)))
        f = parse_formula(f"({name} c x1)", sig)
        assert f == App(name, (App("c", ()), Var("x1")))
        assert parse_formula(print_formula(f), sig) == f


class TestParse:
    def test_nested(self):
        f = parse_formula("(or x1 (not x2))", BOOL_SIG)
        assert f == App("or", (Var("x1"), App("not", (Var("x2"),))))

    def test_variable(self):
        assert parse_formula("x1", BOOL_SIG) == Var("x1")

    def test_arity_mismatch(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(and x1)", BOOL_SIG)

    def test_unknown_symbol(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(xor x1 x2)", BOOL_SIG)

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("(or x1", BOOL_SIG)
        assert err.value.position == len("(or x1")

    def test_constant_both_spellings(self):
        assert parse_formula("(bot)", BOOL_SIG) == App("bot", ())
        assert parse_formula("bot", BOOL_SIG) == App("bot", ())

    def test_bare_connective_with_arity_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("or", BOOL_SIG)

    def test_trailing_input_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("x1 x2", BOOL_SIG)

    def test_nesting_limit(self):
        def nested(depth):
            return "(not " * depth + "x1" + ")" * depth

        assert parse_formula(nested(MAX_FORMULA_DEPTH), BOOL_SIG)
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula(nested(3000), BOOL_SIG)
        assert "nested deeper than" in str(err.value)
        assert err.value.position == len("(not ") * MAX_FORMULA_DEPTH

    @given(formulas())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, f):
        assert parse_formula(print_formula(f), BOOL_SIG) == f


class TestBoundedClosure:
    def test_depth_zero_adds_constants(self):
        out = bounded_closure({Var("x1")}, BOOL_SIG, 0)
        assert out == {Var("x1"), App("bot", ()), App("top", ())}

    def test_negation_depth_one(self):
        sig = Signature((("not", 1),))
        out = bounded_closure({Var("x1")}, sig, 1)
        assert out == {Var("x1"), App("not", (Var("x1"),))}

    def test_disjunction_depth_one(self):
        sig = Signature((("or", 2),))
        x1, x2 = Var("x1"), Var("x2")
        out = bounded_closure({x1, x2}, sig, 1)
        expected = {x1, x2} | {
            App("or", (a, b)) for a in (x1, x2) for b in (x1, x2)
        }
        assert out == expected

    def test_monotone_in_depth(self):
        base = {Var("x1"), Var("x2")}
        previous = bounded_closure(base, BOOL_SIG, 0)
        for depth in (1, 2):
            current = bounded_closure(base, BOOL_SIG, 1 if depth == 1 else 2)
            assert previous <= current
            previous = current

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            bounded_closure(set(), BOOL_SIG, -1)
