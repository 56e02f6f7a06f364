"""The brute-force oracles stay apart from every command.

``aggcheck.oracles`` restates the definitions as loops over valuations and
frames, and holds the modal consistency search without its small-model cut
(``is_consistent``); the tests check the kernels against it.
``syntax.bounded_closure`` is one more such oracle, kept in ``syntax`` where
the benchmark harness traces it. No module of the package but ``__init__.py``
imports ``oracles``, and no command calls an oracle: with every binding of
each one patched to raise, one golden case per command still reproduces its
golden bytes.
"""

import ast
import inspect
import json
import sys
from pathlib import Path

import pytest

import aggcheck
from aggcheck import oracles, syntax
from test_golden import CASES, GOLDEN, run_case

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aggcheck"
CORE = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]

ORACLES = {name: fn for name, fn in vars(oracles).items()
           if inspect.isfunction(fn) and fn.__module__ == oracles.__name__}
ORACLES["bounded_closure"] = syntax.bounded_closure

# One golden case per command, each run to a verdict.
COMMAND_CASES = {
    "check-agenda": "check-agenda-all-designated",
    "verify-bijection": "verify-bijection-boolean2-n2-d2",
    "classify-dictators": "classify-dictators-boolean2-majority",
    "check-subjunctive": "check-subjunctive-k5",
    "check-selfext": "check-selfext-boolean2-v3-d2",
    "enumerate-homs": "enumerate-homs-boolean2-n4",
}


def imported_modules(source: str) -> set[str]:
    """Every module an import in a module of the package may bind, named from
    the top (``from . import x`` may bind the module ``aggcheck.x``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["aggcheck" if node.level else "", node.module]))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_the_guard_sees_every_form_of_import():
    for source in ("from .oracles import entails", "from . import oracles",
                   "import aggcheck.oracles", "from aggcheck.oracles import entails",
                   "from aggcheck import oracles"):
        assert "aggcheck.oracles" in imported_modules(source), source
    assert "aggcheck.oracles" not in imported_modules("from .semantics import Matrix")


@pytest.mark.parametrize("path", CORE, ids=lambda p: p.name)
def test_no_core_module_imports_the_oracles(path):
    if path.name != "oracles.py":
        assert "aggcheck.oracles" not in imported_modules(path.read_text())


def test_the_package_reexports_every_oracle():
    assert set(ORACLES) == {"all_valuations", "is_rational_attitude", "entails",
                            "interderivable", "reflexive_frames", "is_consistent",
                            "bounded_closure"}
    assert all(getattr(aggcheck, name) is fn for name, fn in ORACLES.items())


def test_every_command_has_a_case_here():
    assert all(CASES[name][0] == command for command, name in COMMAND_CASES.items())
    assert set(COMMAND_CASES) == {argv[0] for argv in CASES.values()}


@pytest.fixture
def forbidden_oracles(monkeypatch):
    """Every binding of every oracle in a loaded module of the package, patched
    to raise; returns the patched (module, attribute) pairs."""
    def forbidden(name):
        def oracle(*args, **kwargs):
            raise AssertionError(f"a command called the oracle {name}")
        return oracle

    sites = []
    for key, module in list(sys.modules.items()):
        if module is None or key.partition(".")[0] != "aggcheck":
            continue
        for attr, obj in list(vars(module).items()):
            for name, fn in ORACLES.items():
                if obj is fn:
                    monkeypatch.setattr(module, attr, forbidden(name))
                    sites.append((key, attr))
    return sites


def test_every_binding_site_is_patched(forbidden_oracles):
    assert {key for key, attr in forbidden_oracles if attr == "bounded_closure"} == {
        "aggcheck", "aggcheck.syntax", "aggcheck.aggregation", "aggcheck.semantics"}
    assert all(getattr(aggcheck, name) is not fn for name, fn in ORACLES.items())


@pytest.mark.parametrize("command", sorted(COMMAND_CASES))
def test_commands_never_call_an_oracle(command, forbidden_oracles, tmp_path):
    name = COMMAND_CASES[command]
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run_case(CASES[name], tmp_path) == expected
