"""Golden corpus: every CLI command's report, summary and exit code, byte for byte.

Each file in ``tests/golden/`` records one CLI run: its argv, exit code,
stdout, stderr and the exact text of the JSON report (``null`` when the run
writes none). The runs happen in a fresh temporary directory holding the
input files below under fixed relative names, because reports echo the
``--agenda`` and ``--out`` paths.

To regenerate after an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from aggcheck.aggregation import (
    STRONGLY_SYSTEMATIC,
    CriterionAggregator,
    check_systematicity,
    majority_criterion,
    projection_criterion,
)
from aggcheck.cli import main

GOLDEN = Path(__file__).parent / "golden"
REPORT = "report.json"

DIAMOND_CARRIER = ("0", "a", "b", "1")


def _diamond_matrix() -> dict:
    """The four-element Boolean lattice {0, a, b, 1}, designated top."""
    n = len(DIAMOND_CARRIER)
    return {
        "algebra": {
            "signature": {"connectives": [
                {"name": "and", "arity": 2}, {"name": "or", "arity": 2},
                {"name": "bot", "arity": 0}, {"name": "top", "arity": 0},
            ]},
            "carrier": list(DIAMOND_CARRIER),
            "ops": {
                "and": [[a & b for b in range(n)] for a in range(n)],
                "or": [[a | b for b in range(n)] for a in range(n)],
                "bot": [0],
                "top": [n - 1],
            },
            "order": [[a, b] for a in range(n) for b in range(n) if a & ~b == 0],
        },
        "designated": [n - 1],
    }


# {0, a, b} with a and b designated: 0 -> 0, a, b -> 1 is a strict homomorphism
# onto boolean2, so the logic is classical, but the matrix is not reduced
DOUBLED_BOOLEAN = {
    "algebra": {
        "name": "doubled-boolean",
        "signature": {"connectives": [
            {"name": "not", "arity": 1}, {"name": "or", "arity": 2},
            {"name": "and", "arity": 2}, {"name": "bot", "arity": 0},
            {"name": "top", "arity": 0},
        ]},
        "carrier": ["0", "a", "b"],
        "ops": {
            "not": [1, 0, 0],
            "or": [[0, 2, 1], [2, 1, 2], [1, 2, 1]],
            "and": [[0, 0, 0], [0, 1, 2], [0, 2, 1]],
            "bot": [0],
            "top": [1],
        },
    },
    "designated": [1, 2],
}


def _criterion(n: int, value) -> dict:
    tuples = [[i >> (n - 1 - v) & 1 for v in range(n)] for i in range(1 << n)]
    return {"electorate": n, "values": [value(t) for t in tuples]}


INPUTS = {
    "agenda_boolean.json": {"formulas": ["x1", "x2", "(or x1 x2)", "(not x1)"]},
    "agenda_or.json": {"formulas": ["(or x1 x2)"]},
    "agenda_x1.json": {"formulas": ["x1"]},
    "agenda_mv.json": {"formulas": ["x1", "x2", "(oplus x1 x2)"]},
    "agenda_diamond.json": {"formulas": ["x1", "x2", "(or x1 x2)"]},
    "diamond.json": _diamond_matrix(),
    "doubled.json": DOUBLED_BOOLEAN,
    "majority3.json": _criterion(3, lambda t: int(2 * sum(t) > 3)),
    "projection3.json": _criterion(3, lambda t: t[1]),
    "constant2.json": _criterion(2, lambda t: 1),
    "oligarchy3.json": _criterion(3, lambda t: t[0] & t[1]),
}

LOGICS = {"boolean2": "agenda_boolean.json", "mv3": "agenda_mv.json",
          "mv3-degree": "agenda_mv.json", "diamond.json": "agenda_diamond.json"}


def _name(logic: str) -> str:
    return logic.removesuffix(".json")


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for logic, agenda in LOGICS.items():
        name = _name(logic)
        cases[f"check-agenda-{name}"] = [
            "check-agenda", "--logic", logic, "--agenda", agenda]
        for n, depth in ((1, 1), (2, 1), (1, 2)):
            cases[f"verify-bijection-{name}-n{n}-d{depth}"] = [
                "verify-bijection", "--logic", logic, "--agenda", agenda,
                "--electorate", str(n), "--depth", str(depth)]
        cases[f"enumerate-homs-{name}-n1"] = [
            "enumerate-homs", "--logic", logic, "--electorate", "1"]
        cases[f"enumerate-homs-{name}-n2"] = [
            "enumerate-homs", "--logic", logic, "--electorate", "2"]
        cases[f"check-selfext-{name}-v1-d2"] = [
            "check-selfext", "--logic", logic, "--variables", "1", "--depth", "2"]
        cases[f"check-selfext-{name}-v2-d1"] = [
            "check-selfext", "--logic", logic, "--variables", "2", "--depth", "1"]
    for logic in ("mv3", "mv3-degree", "diamond.json"):
        cases[f"classify-dictators-{_name(logic)}"] = [
            "classify-dictators", "--logic", logic, "--criterion", "majority3.json"]
    cases.update({
        "verify-bijection-boolean2-n3-d1": [
            "verify-bijection", "--logic", "boolean2", "--agenda",
            "agenda_boolean.json", "--electorate", "3"],
        "verify-bijection-boolean2-n2-d2": [
            "verify-bijection", "--logic", "boolean2", "--agenda",
            "agenda_boolean.json", "--electorate", "2", "--depth", "2"],
        "verify-bijection-boolean2-budget": [
            "verify-bijection", "--logic", "boolean2", "--agenda",
            "agenda_boolean.json", "--electorate", "3", "--budget", "5"],
        "verify-bijection-boolean2-not-pseudo-rich": [
            "verify-bijection", "--logic", "boolean2", "--agenda", "agenda_or.json",
            "--electorate", "2"],
        "verify-bijection-boolean2-x1-n3": [  # 1-pseudo-rich, below arity 2: a warning
            "verify-bijection", "--logic", "boolean2", "--agenda", "agenda_x1.json",
            "--electorate", "3"],
        "enumerate-homs-boolean2-n4": [
            "enumerate-homs", "--logic", "boolean2", "--electorate", "4"],
        "enumerate-homs-mv3-n3-budget": [
            "enumerate-homs", "--logic", "mv3", "--electorate", "3"],
        "enumerate-homs-boolean2-n3-budget": [
            "enumerate-homs", "--logic", "boolean2", "--electorate", "3", "--budget", "5"],
        "classify-dictators-boolean2-majority": [
            "classify-dictators", "--criterion", "majority3.json"],
        "classify-dictators-boolean2-projection": [
            "classify-dictators", "--logic", "boolean2", "--criterion",
            "projection3.json"],
        "classify-dictators-boolean2-constant": [
            "classify-dictators", "--criterion", "constant2.json"],
        "classify-dictators-boolean2-oligarchy": [
            "classify-dictators", "--criterion", "oligarchy3.json"],
        "check-subjunctive-k1": ["check-subjunctive", "--frame-bound", "1"],
        "check-subjunctive-k2": ["check-subjunctive", "--frame-bound", "2"],
        "check-subjunctive-k3": ["check-subjunctive", "--frame-bound", "3"],
        "check-subjunctive-k4": ["check-subjunctive", "--frame-bound", "4"],
        "check-subjunctive-k5": ["check-subjunctive", "--frame-bound", "5"],
        "check-subjunctive-k6": ["check-subjunctive", "--frame-bound", "6"],
        "check-subjunctive-k1000": ["check-subjunctive", "--frame-bound", "1000"],
        "check-selfext-boolean2-v2-d2": [
            "check-selfext", "--logic", "boolean2", "--variables", "2", "--depth", "2"],
        "check-selfext-boolean2-v3-d2": [
            "check-selfext", "--logic", "boolean2", "--variables", "3", "--depth", "2"],
        "check-selfext-boolean2-degree-v2-d2": [
            "check-selfext", "--logic", "boolean2-degree", "--variables", "2",
            "--depth", "2"],
        "check-selfext-diamond-v2-d2": [
            "check-selfext", "--logic", "diamond.json", "--variables", "2",
            "--depth", "2"],
        "check-selfext-doubled-v2-d2": [
            "check-selfext", "--logic", "doubled.json", "--variables", "2",
            "--depth", "2"],
        "check-agenda-not-an-agenda": [
            "check-agenda", "--logic", "boolean2", "--agenda", "diamond.json"],
    })
    return {name: argv + ["--out", REPORT] for name, argv in cases.items()}


CASES = _cases()


def run_case(argv: list[str], directory: Path) -> dict:
    """Run the CLI in ``directory`` on the input files; return what it printed,
    its exit code and its report text."""
    for name, obj in INPUTS.items():
        (directory / name).write_text(json.dumps(obj), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    report = directory / REPORT
    return {
        "argv": list(argv),
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "report": report.read_text(encoding="utf-8") if report.exists() else None,
    }


def _dump(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def test_corpus_matches_case_list():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    actual = run_case(CASES[name], tmp_path)
    assert actual["argv"] == expected["argv"]
    assert actual["exit"] == expected["exit"]
    assert actual["stdout"] == expected["stdout"]
    assert actual["stderr"] == expected["stderr"]
    assert actual["report"] == expected["report"]


def test_exit_code_agrees_with_pass():
    for path in sorted(GOLDEN.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["exit"] in (0, 1):
            assert record["exit"] == (0 if json.loads(record["report"])["pass"] else 1), path.stem
        else:
            assert record["report"] is None, path.stem


MAJORITY_CONFLICTS = {
    depth: "tuple (0, 1, 0): value 0 from profile 4 at (and (not x1) x2) vs "
           "value 1 from profile 7 at (and (not x1) x2)"
    for depth in (1, 2)
}

# Insertion order of the criterion a passing check returns.
PROJECTION_CRITERION = [
    ((0, 0, 0), 0), ((1, 1, 1), 1), ((0, 0, 1), 0), ((1, 1, 0), 1),
    ((0, 1, 0), 1), ((1, 0, 1), 0), ((0, 1, 1), 1), ((1, 0, 0), 0),
]


@pytest.mark.parametrize("depth", sorted(MAJORITY_CONFLICTS))
def test_majority_strong_systematicity_conflict(classical, bool_agenda, depth):
    """The first conflict of the majority aggregator on the closure."""
    aggregator = CriterionAggregator(majority_criterion(classical.algebra, 3), bool_agenda)
    result = check_systematicity(aggregator, STRONGLY_SYSTEMATIC, depth=depth)
    assert not result.holds
    assert result.conflict == MAJORITY_CONFLICTS[depth]


@pytest.mark.parametrize("depth", [1, 2])
def test_projection_strong_systematicity_criterion(classical, bool_agenda, depth):
    criterion = projection_criterion(classical.algebra, 3, 1)
    result = check_systematicity(
        CriterionAggregator(criterion, bool_agenda), STRONGLY_SYSTEMATIC, depth=depth
    )
    assert result.holds
    assert list(result.criterion.items()) == PROJECTION_CRITERION


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(argv, Path(tmp))
        (GOLDEN / f"{case}.json").write_text(_dump(record), encoding="utf-8")
        print(f"{case}: exit {record['exit']}", file=sys.stderr)
