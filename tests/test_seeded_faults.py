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
from aggcheck import aggregation, algebra, census
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
    constraints = census._census_constraints
    monkeypatch.setattr(census, "_census_constraints",
                        lambda agenda, n, depth, budget: constraints(agenda, n, 0, budget))


def census_accepting_an_irrational_output(monkeypatch):
    """Each census rationality table gives the least irrational output a value."""
    def table(default, *known):
        if not known:  # not a rationality table
            return defaultdict(default)
        rows = dict(known[0])
        rows[next(rank for rank in count() if rank not in rows)] = 0
        return defaultdict(default, rows)

    monkeypatch.setattr(census, "defaultdict", table)


def extraction_off_the_witness(monkeypatch):
    """The extraction reads the last agenda formula other than the witness."""
    witness_attitudes = aggregation.witness_attitudes

    def misread(agenda):
        witness, attitudes = witness_attitudes(agenda)
        return [f for f in agenda.formulas if f != witness][-1], attitudes

    monkeypatch.setattr(aggregation, "witness_attitudes", misread)


def search_stopping_after_one_table(monkeypatch):
    """The shared table search returns its first table only, in both routes."""
    search = algebra.search_tables

    def first(*args, **kwargs):
        return search(*args, **kwargs)[:1]

    for module in (algebra, census, test_search):
        monkeypatch.setattr(module, "search_tables", first)


def census_symmetry_negating_every_voter(monkeypatch):
    """The census searches up to negating every voter's value, which permutes
    the voter tuples but comes from no permutation of the voters."""
    def negation(size, n, slot_of):
        perm = [0] * len(slot_of)
        for rank, slot in enumerate(slot_of):
            perm[slot] = slot_of[size**n - 1 - rank]
        return [perm]

    monkeypatch.setattr(census, "_voter_swaps", negation)


def orbit_expansion_skipping_a_generator(monkeypatch):
    """The shared search closes its tables under all but the last symmetry, in both routes."""
    close = algebra._close_under
    monkeypatch.setattr(algebra, "_close_under",
                        lambda tables, perms, stage: close(tables, perms[:-1], stage))


# plants that move both routes alike: the count both then report, and the
# brute-force test that fails on the faulty search
CAUGHT_BY_BRUTE_FORCE = {
    search_stopping_after_one_table: (1, test_search.test_search_equals_a_filter_of_every_table),
    orbit_expansion_skipping_a_generator: (
        2, test_search.test_symmetric_search_equals_the_plain_search_and_a_filter),
}


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
    (census_symmetry_negating_every_voter, "boolean2", 2, "aggregators"),
    (orbit_expansion_skipping_a_generator, "boolean2", 3, None),
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
    else:  # both routes find the same tables, so only a brute-force check sees it
        count, brute_force_test = CAUGHT_BY_BRUTE_FORCE[plant]
        assert code == 0 and faulty["homs"] == faulty["aggregators"] == count
        with pytest.raises(AssertionError):
            brute_force_test()
