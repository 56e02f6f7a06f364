"""Every record class behaves as a frozen value type, and importing the CLI
loads none of the modules that generated record code would need, nor
argparse, which only help and lines that are not plain load.

Each record is built from one example per class, and the classes are those a
scan of the package source finds under ``@frozen``. The expected behaviour is
written out here (a hash is the hash of the tuple of fields, the repr lists
the fields by name) rather than taken from the record module.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from aggcheck.agenda import Agenda
from aggcheck.aggregation import (
    AttitudeFunction,
    CriterionAggregator,
    ExtensionalAggregator,
    Profile,
    RationalityReport,
    SystematicityResult,
)
from aggcheck.algebra import AlgebraHomomorphism, DecisionCriterion, FiniteAlgebra, builtin_boolean2
from aggcheck.census import RankTable
from aggcheck.impossibility import UltrafilterCheck, UltrafilterView
from aggcheck.modal import ConsistencyWitness, KripkeFrame, SubjunctiveReport
from aggcheck.semantics import CongruenceWitness, Matrix
from aggcheck.syntax import App, Signature, Var

SRC = Path(__file__).resolve().parent.parent / "src"

B2 = builtin_boolean2()
CLASSICAL = Matrix(B2, frozenset({1}))
X1, X2 = Var("x1"), Var("x2")
AGENDA = Agenda((X1, App("not", (X1,))), CLASSICAL, B2)
ATTITUDE = AttitudeFunction(AGENDA, (1, 0))
PROFILE = Profile((ATTITUDE,))
DICTATOR = DecisionCriterion(B2, 1, (0, 1))
FRAME = KripkeFrame(1, frozenset({(0, 0)}))

# class -> the field values of one example, in field order
EXAMPLES = {
    Signature: ((("not", 1), ("top", 0)),),
    Var: ("x1",),
    App: ("or", (X1, X2)),
    FiniteAlgebra: (B2.signature, B2.carrier, B2.ops, B2.order, "b2"),
    AlgebraHomomorphism: (B2, B2, (0, 1)),
    DecisionCriterion: (B2, 1, (0, 1)),
    Matrix: (B2, frozenset({1})),
    CongruenceWitness: ("not", (X1,), (X2,)),
    Agenda: ((X1, App("not", (X1,))), CLASSICAL, B2),
    AttitudeFunction: (AGENDA, (1, 0)),
    Profile: ((ATTITUDE,),),
    CriterionAggregator: (DICTATOR, AGENDA),
    ExtensionalAggregator: (AGENDA, 1, ((PROFILE, ATTITUDE),)),
    RationalityReport: (True, False, None, (PROFILE, ATTITUDE)),
    SystematicityResult: (True, "systematic", 1, {(0,): 0, (1,): 1}, None),
    UltrafilterView: (1, frozenset({frozenset({0})})),
    UltrafilterCheck: (True, True, (), None),
    KripkeFrame: (1, frozenset({(0, 0)})),
    ConsistencyWitness: (FRAME, {"x1": 1}, 0),
    SubjunctiveReport: ({"a": True}, {"b": True}, {"b": False}, True, False),
    RankTable: (((0, 1), (1, 0)), ((0, 1), (1, 0)), ((0,), (0,)), 1),
}
CLASSES = list(EXAMPLES)
# records with a dict field cannot be hashed, as with any other dict
UNHASHABLE = {SystematicityResult, ConsistencyWitness, SubjunctiveReport}


def names_of(cls):
    return tuple(cls.__annotations__)


def example(cls):
    return cls(*EXAMPLES[cls])


def fields_of(record):
    return tuple(getattr(record, name) for name in names_of(type(record)))


def frozen_classes_in_source():
    """(module, class name) of each class of the package that ``@frozen`` decorates."""
    found = set()
    for path in sorted((SRC / "aggcheck").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "frozen" for d in node.decorator_list):
                found.add((f"aggcheck.{path.stem}", node.name))
    return found


def test_every_record_class_has_an_example_with_one_value_per_field():
    assert {(cls.__module__, cls.__qualname__) for cls in CLASSES} == frozen_classes_in_source()
    for cls, values in EXAMPLES.items():
        assert len(names_of(cls)) == len(values), cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestEveryRecord:
    def test_positional_and_keyword_construction_set_the_same_fields(self, cls):
        values = EXAMPLES[cls]
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(names_of(cls), values)))
        assert fields_of(by_position) == fields_of(by_keyword) == values
        assert by_position == by_keyword
        assert not by_position != by_keyword

    def test_a_missing_unknown_repeated_or_extra_argument_is_a_type_error(self, cls):
        values = EXAMPLES[cls]
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, unknown_field=1)
        with pytest.raises(TypeError):
            cls(*values, **{names_of(cls)[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values, values[0])

    def test_hash_is_the_hash_of_the_tuple_of_fields(self, cls):
        record = example(cls)
        if cls in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(record) == hash(fields_of(record))

    def test_equal_only_to_a_record_of_its_own_class(self, cls):
        record = example(cls)
        assert record != fields_of(record)
        for other in CLASSES:
            if other is not cls:
                assert record != example(other)
                assert not record == example(other)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        record = example(cls)
        name = names_of(cls)[0]
        for attempt in (lambda: setattr(record, name, None), lambda: delattr(record, name),
                        lambda: setattr(record, "new_attribute", None)):
            with pytest.raises(AttributeError):
                attempt()
        assert fields_of(record) == EXAMPLES[cls]

    def test_record_methods_are_frozens_own(self, cls):
        names = ("__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__")
        assert {name: vars(cls)[name].__module__ for name in names} == dict.fromkeys(
            names, "aggcheck.record")

    def test_repr_names_each_field(self, cls):
        record = example(cls)
        pairs = ", ".join(f"{n}={v!r}" for n, v in zip(names_of(cls), EXAMPLES[cls]))
        assert repr(record) == f"{cls.__name__}({pairs})"


def test_class_attributes_are_the_defaults():
    assert App("top").args == ()
    algebra = FiniteAlgebra(B2.signature, B2.carrier, B2.ops)
    assert algebra.order is None and algebra.name == ""
    assert Matrix(B2).designated is None
    assert Matrix(B2, designated=frozenset({1})) == CLASSICAL


def test_formula_reprs():
    assert repr(X1) == "Var(name='x1')"
    assert repr(App("not", (X1,))) == "App(symbol='not', args=(Var(name='x1'),))"
    assert repr(App("top")) == "App(symbol='top', args=())"


def test_formulas_equal_by_structure_and_hash_as_field_tuples():
    left = App("or", (Var("x1"), App("not", (Var("x2"),))))
    right = App("or", (Var("x1"), App("not", (Var("x2"),))))
    assert left == right and hash(left) == hash(right) == hash(("or", left.args))
    assert left != App("or", (Var("x1"), Var("x2")))
    assert hash(X1) == hash(("x1",))
    assert len({X1, Var("x1"), X2}) == 2


@pytest.mark.parametrize("build, message", [
    (lambda: Signature((("not", 1), ("not", 2))), "duplicate connective symbol 'not'"),
    (lambda: FiniteAlgebra(B2.signature, (), B2.ops), "carrier must be nonempty"),
    (lambda: Matrix(B2, frozenset()), "filter mode needs a nonempty designated set"),
    (lambda: Matrix(FiniteAlgebra(B2.signature, B2.carrier, B2.ops)),
     "degree mode requires an algebra with a lattice order"),
    (lambda: FiniteAlgebra(B2.signature, B2.carrier, B2.ops, B2.order | {(5, 7)}),
     "order has out-of-range entries"),
    (lambda: KripkeFrame(1, frozenset({(0, 1)})), "relation mentions unknown worlds"),
    (lambda: DecisionCriterion(B2, 0, (0,)), "criterion electorate must be >= 1, got 0"),
    (lambda: AttitudeFunction(AGENDA, (1,)), "attitude must be total on the agenda"),
    (lambda: Profile(()), "empty profile"),
    (lambda: Agenda((X1, X1), CLASSICAL, B2), "agenda formulas must be distinct"),
    (lambda: AlgebraHomomorphism(B2, B2, (1, 0)), "not a homomorphism: fails at"),
], ids=lambda case: case if isinstance(case, str) else "")
def test_post_init_checks_the_fields_it_is_given(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value).startswith(message)


def test_cached_properties_are_computed_once():
    algebra = FiniteAlgebra(B2.signature, B2.carrier, B2.ops)
    assert "tables" not in vars(algebra)
    tables = algebra.tables
    assert vars(algebra)["tables"] is tables and algebra.tables is tables
    assert hash(algebra) == hash(fields_of(algebra))  # the cache is no field


ARGUMENT_PARSING = {"argparse", "gettext", "locale"}


def modules_after(*lines):
    """The modules loaded in a fresh ``python -S`` once aggcheck.cli is imported and lines run."""
    code = "\n".join(["import sys", "sys.path.insert(0, sys.argv[1])", "import aggcheck.cli",
                      *lines, "print(sorted(sys.modules))"])
    done = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return set(ast.literal_eval(done.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_no_code_generation_modules():
    assert not modules_after() & {"dataclasses", "inspect", "fractions", *ARGUMENT_PARSING}


@pytest.mark.parametrize("argv", [["enumerate-homs", "--logic", "boolean2", "--electorate", "2"],
                                  ["check-subjunctive", "--frame-bound", "2"]])
def test_a_plain_line_loads_no_argument_parser(argv):
    assert not modules_after(f"assert aggcheck.cli.main({argv!r}) == 0") & ARGUMENT_PARSING


def test_help_still_goes_through_argparse():
    assert "argparse" in modules_after("try:", "    aggcheck.cli.main(['--help'])",
                                       "except SystemExit:", "    pass")
