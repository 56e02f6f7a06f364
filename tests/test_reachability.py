"""Every definition of the package is entered by a command, or kept for a reason.

A child interpreter imports the package, then runs in process the argv of
every golden case and the two lines CI reads through the argparse fallback,
with ``sys.setprofile`` recording each code object entered, at import and by
the commands apart. A definition of ``src/aggcheck/`` (every ``def``, methods
and nested ones included; lambdas and comprehensions are not counted) that
no command enters must be a key of ``KEPT``, and no key of ``KEPT`` may be
entered: a definition a command calls needs no reason. Each entry gives one
reason, and each kind is checked:

* the name the README keeps for library use that the entry is or serves; the
  README's list names exactly these;
* ``ORACLE``: a brute-force definition the tests check the kernels against
  (``test_oracles.ORACLES``);
* ``AT_IMPORT``: entered while the package is imported;
* ``RECORD``: a method ``frozen`` gives every record.

Run as ``python tests/test_reachability.py OUT`` (with ``src`` on the path),
it writes the trace to OUT as JSON; it imports the package only once tracing.
"""

import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "aggcheck"
README = TESTS.parent / "README.md"

# CI's lines that read_plain leaves to argparse.
FALLBACK_ARGVS = (["check-subjunctive", "--frame-bound=2"],
                  ["enumerate-homs", "--logic", "boolean2", "--elec", "2"])

ORACLE, AT_IMPORT, RECORD = "oracle", "run at import", "frozen record method"

# Each definition no command enters, with its one reason: ORACLE, AT_IMPORT,
# RECORD, or else the README library name it is or serves.
KEPT = {
    "agenda.agenda_over": "agenda_over",
    "agenda.equivalent_variable": "equivalent_variable",
    "agenda.is_strictly_contingent": "is_strictly_contingent",
    "aggregation.Profile.__post_init__": "enumerate_rational_profiles",
    "aggregation.Profile.agenda": "ExtensionalAggregator",
    "aggregation.Profile.electorate": "ExtensionalAggregator",
    "aggregation.majority_criterion": "majority_criterion",
    "aggregation.enumerate_rational_attitudes": "enumerate_rational_attitudes",
    "aggregation.enumerate_rational_profiles": "enumerate_rational_profiles",
    "aggregation._rational_profiles": "enumerate_rational_profiles",
    "aggregation.rational_attitude_with_values": "rational_attitude_with_values",
    "aggregation.CriterionAggregator.apply": "CriterionAggregator.apply",
    "aggregation.ExtensionalAggregator.__post_init__": "ExtensionalAggregator",
    "aggregation.ExtensionalAggregator._lookup": "ExtensionalAggregator",
    "aggregation.ExtensionalAggregator.apply": "ExtensionalAggregator",
    "aggregation.RationalityReport.both": "check_rational_universal",
    "aggregation.check_rational_universal": "check_rational_universal",
    "aggregation.check_systematicity": "check_systematicity",
    "algebra.DecisionCriterion.__call__": "CriterionAggregator.apply",
    "algebra.FiniteAlgebra.constant": "FiniteAlgebra.constant",
    "modal.bao_from_frame": "bao_from_frame",
    "modal.KripkeFrame.is_reflexive": "bao_from_frame",
    "modal.small_model_bound": "small_model_bound",
    "oracles.all_valuations": ORACLE,
    "oracles.is_rational_attitude": ORACLE,
    "oracles.entails": ORACLE,
    "oracles.interderivable": ORACLE,
    "oracles.reflexive_frames": ORACLE,
    "oracles.is_consistent": ORACLE,
    "syntax.bounded_closure": ORACLE,
    "cli._option": AT_IMPORT,
    "record.frozen": AT_IMPORT,
    "record.frozen.<locals>.__repr__": RECORD,
    "record.frozen.<locals>.__setattr__": RECORD,
    "record.frozen.<locals>.__delattr__": RECORD,
}


def is_def(code: types.CodeType) -> bool:
    """Whether a code object is a ``def``'s: a function (not a module or class
    body) that is no lambda or comprehension."""
    return bool(code.co_flags & inspect.CO_OPTIMIZED) and not code.co_name.startswith("<")


def definitions(source: str, module: str) -> dict[tuple[int, str], str]:
    """(first line, code name) of each ``def`` in a module's source -> its name,
    ``module.qualname``."""
    found = {}

    def walk(code: types.CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                name = prefix + const.co_name
                if is_def(const):
                    found[const.co_firstlineno, const.co_name] = name
                    walk(const, f"{name}.<locals>.")
                else:  # a class body
                    walk(const, f"{name}.")

    walk(compile(source, module, "exec"), f"{module}.")
    return found


DEFINITIONS = {(path.stem, *key): name for path in sorted(PACKAGE.glob("*.py"))
               for key, name in definitions(path.read_text(encoding="utf-8"), path.stem).items()}


def trace(out: str) -> None:
    """Write, as (module, first line, code name) lists, the package's code
    entered while it is imported and the code the command lines enter after."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def keys() -> list:
        return [(Path(code.co_filename).stem, code.co_firstlineno, code.co_name) for code in seen
                if is_def(code) and Path(code.co_filename).resolve().parent == PACKAGE]

    sys.setprofile(profile)
    for path in sorted(PACKAGE.glob("*.py")):
        importlib.import_module(f"aggcheck.{path.stem}".removesuffix(".__init__"))
    sys.setprofile(None)
    at_import = keys()
    seen.clear()
    from test_golden import CASES, run_case

    sys.setprofile(profile)
    try:
        for argv in [*CASES.values(), *FALLBACK_ARGVS]:
            with tempfile.TemporaryDirectory() as tmp:
                run_case(argv, Path(tmp))
    finally:
        sys.setprofile(None)
    Path(out).write_text(json.dumps({"import": at_import, "commands": keys()}), encoding="utf-8")


@pytest.fixture(scope="module")
def entered(tmp_path_factory) -> dict[str, set[str]]:
    """The names of the definitions entered at import and by the commands."""
    out = tmp_path_factory.mktemp("trace") / "entered.json"
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    subprocess.run([sys.executable, __file__, str(out)], check=True, timeout=120,
                   env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    return {phase: {DEFINITIONS[tuple(key)] for key in keys}
            for phase, keys in json.loads(out.read_text(encoding="utf-8")).items()}


def library_names() -> set[str]:
    """The names the README's "Names kept for library use" list gives: the
    backquoted names of each bullet before its first comma."""
    text = README.read_text(encoding="utf-8")
    bullets = text.split("Names kept for library use.", 1)[1].split("\n\n")[1]
    return {name for bullet in bullets.split("\n* ")
            for name in re.findall(r"`([\w.]+)`", bullet.split(",")[0])}


def test_definitions_name_every_def_and_nothing_else():
    source = ("def f():\n    def g():\n        pass\n    return [x for x in ()]\n"
              "class C:\n    @property\n    def p(self):\n        return lambda: 0\n")
    assert sorted(definitions(source, "m").values()) == ["m.C.p", "m.f", "m.f.<locals>.g"]


def test_every_definition_is_entered_by_a_command_or_kept(entered):
    unreached = set(DEFINITIONS.values()) - entered["commands"]
    assert {"unreached, no reason kept": sorted(unreached - set(KEPT)),
            "kept, yet a command enters it": sorted(set(KEPT) - unreached)} == {
        "unreached, no reason kept": [], "kept, yet a command enters it": []}


def test_the_library_reasons_are_the_readme_names():
    import aggcheck

    kept = {reason for reason in KEPT.values() if reason not in (ORACLE, AT_IMPORT, RECORD)}
    assert kept == library_names()
    for name in kept:  # each a public name of the package
        obj = aggcheck
        for part in name.split("."):
            obj = getattr(obj, part)


def test_the_oracle_reasons_are_the_oracles():
    from test_oracles import ORACLES

    assert {name for name, reason in KEPT.items() if reason == ORACLE} == {
        f"{fn.__module__.removeprefix('aggcheck.')}.{fn.__name__}" for fn in ORACLES.values()}


def test_the_import_reasons_run_at_import(entered):
    assert {name for name, reason in KEPT.items() if reason == AT_IMPORT} <= entered["import"]


def test_the_record_reasons_are_frozen_methods():
    for name, reason in KEPT.items():
        if reason == RECORD:
            assert name.startswith("record.frozen.<locals>.__"), name


if __name__ == "__main__":
    trace(sys.argv[1])
