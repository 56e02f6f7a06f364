"""Seeded faults: ``verify-bijection`` must notice a fault planted in either route.

Each case plants one fault by monkeypatching and runs ``verify-bijection`` at
an electorate of at most 3. A fault in one route must make the two routes
disagree, so the run exits 1 and the report field that route feeds moves:
``homs`` (the homomorphism search), ``aggregators`` (the census) or
``roundtrips`` (the extraction). A fault in machinery both routes share can
move both alike and pass the cross-check, so its case shows instead that a
named brute-force test fails on the faulty function.
"""

import json
from collections import defaultdict
from itertools import count

import pytest

import test_search
from aggcheck import aggregation, algebra
from aggcheck.algebra import FiniteAlgebra, product_algebra
from aggcheck.cli import main

AGENDAS = {"boolean2": ["x1", "x2", "(or x1 x2)", "(not x1)"],
           "mv3": ["x1", "x2", "(oplus x1 x2)"]}


def wrong_power_entry(monkeypatch):
    """B^N with one wrong entry, in the homomorphism route's power only."""
    def power(base, n):
        right = product_algebra(base, n)
        (symbol, table), *rest = right.ops
        wrong = ((table[0] + 1) % right.size, *table[1:])
        return FiniteAlgebra(right.signature, right.carrier, ((symbol, wrong), *rest),
                             name=right.name)

    monkeypatch.setattr(algebra, "shared_power", power)


def census_without_closure(monkeypatch):
    """The census constrains the agenda formulas and constants only (depth 0)."""
    census = aggregation._census_constraints
    monkeypatch.setattr(aggregation, "_census_constraints",
                        lambda agenda, n, depth, budget: census(agenda, n, 0, budget))


def census_accepting_an_irrational_output(monkeypatch):
    """Each census rationality table gives the least irrational output a value."""
    def table(default, *known):
        if not known:  # not a rationality table
            return defaultdict(default)
        rows = dict(known[0])
        rows[next(rank for rank in count() if rank not in rows)] = 0
        return defaultdict(default, rows)

    monkeypatch.setattr(aggregation, "defaultdict", table)


def extraction_off_the_witness(monkeypatch):
    """The extraction reads the last agenda formula other than the witness."""
    witness_attitudes = aggregation.witness_attitudes

    def misread(agenda, via=None):
        witness, attitudes = witness_attitudes(agenda, via)
        return [f for f in agenda.formulas if f != witness][-1], attitudes

    monkeypatch.setattr(aggregation, "witness_attitudes", misread)


def search_stopping_after_one_table(monkeypatch):
    """The shared table search returns its first table only, in both routes."""
    search = algebra.search_tables

    def first(*args, **kwargs):
        return search(*args, **kwargs)[:1]

    for module in (algebra, aggregation, test_search):
        monkeypatch.setattr(module, "search_tables", first)


def verify(logic, n, tmp_path):
    agenda, out = tmp_path / "agenda.json", tmp_path / "report.json"
    agenda.write_text(json.dumps({"formulas": AGENDAS[logic]}))
    code = main(["verify-bijection", "--logic", logic, "--agenda", str(agenda),
                 "--electorate", str(n), "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("plant, logic, n, field", [
    (wrong_power_entry, "boolean2", 2, "homs"),
    (census_without_closure, "mv3", 2, "aggregators"),
    (census_accepting_an_irrational_output, "boolean2", 2, "aggregators"),
    (extraction_off_the_witness, "boolean2", 2, "roundtrips"),
    (search_stopping_after_one_table, "boolean2", 3, None),
])
def test_a_planted_fault_is_caught(plant, logic, n, field, tmp_path, monkeypatch, capsys):
    code, clean = verify(logic, n, tmp_path)
    assert code == 0
    plant(monkeypatch)
    code, faulty = verify(logic, n, tmp_path)
    capsys.readouterr()
    if field is not None:
        assert code == 1 and not faulty["pass"]
        assert faulty[field] != clean[field]
    else:  # both routes find the same first table, so only the brute-force check sees it
        assert code == 0 and faulty["homs"] == faulty["aggregators"] == 1
        with pytest.raises(AssertionError):
            test_search.test_search_equals_a_filter_of_every_table()
