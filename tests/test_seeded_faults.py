"""Seeded faults: ``verify-bijection`` must notice a fault planted in either route.

Each case plants one fault by monkeypatching and runs ``verify-bijection`` at
an electorate of at most 3. A fault in one route must make the two routes
disagree, so the run exits 1 and the report field that route feeds moves:
``homs`` (the homomorphism search), ``aggregators`` (the census) or
``roundtrips`` (the extraction). A fault in machinery both routes share can
move both alike and pass the cross-check, so its case shows instead that a
named brute-force test fails on the faulty function. Two last cases hand every
round trip an aggregator that fails its preconditions: majority's, and the
homomorphism's own with one criterion entry flipped, which only the
extraction's per-profile fallback can report.
"""

import json
from collections import defaultdict
from itertools import count, product

import pytest

import test_search
from aggcheck import aggregation, algebra, census, cli
from aggcheck.aggregation import CriterionAggregator, majority_criterion
from aggcheck.algebra import DecisionCriterion, FiniteAlgebra, product_algebra
from aggcheck.cli import main
from aggcheck.fileio import load_matrix

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


def extraction_with_voters_reversed(monkeypatch):
    """The extraction reads the ledger at each voter tuple reversed (on this
    path ``product`` in ``aggregation`` serves that read alone)."""
    monkeypatch.setattr(aggregation, "product", lambda values, repeat: (
        coords[::-1] for coords in product(values, repeat=repeat)))


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
    (extraction_with_voters_reversed, "boolean2", 2, "roundtrips"),
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


def test_a_round_trip_failing_its_preconditions_fails_the_run(tmp_path, monkeypatch, capsys):
    """Each round trip gets majority's aggregator, which is universal but
    aggregates some rational profile irrationally: every extraction falls
    back to the per-profile checks once and refuses at its precondition,
    before it checks systematicity."""
    monkeypatch.setattr(cli, "aggregator_from_criterion", lambda criterion, agenda: (
        CriterionAggregator(majority_criterion(agenda.algebra, criterion.electorate), agenda)))
    called = []
    for name in ("check_rational_universal", "check_systematicity"):
        check = getattr(aggregation, name)
        monkeypatch.setattr(aggregation, name, lambda *args, name=name, check=check: (
            called.append(name) or check(*args)))
    code, report = verify("boolean2", 3, tmp_path)
    capsys.readouterr()
    assert code == 1 and report["roundtrips"] == "fail"
    assert [failure["extracted"] for failure in report["roundtrip_failures"]] == [
        "aggregator is not universal+rational: universal=True rational=False"] * report["homs"]
    assert called == ["check_rational_universal"] * report["homs"] and report["homs"] == 3


def test_a_round_trip_with_one_flipped_criterion_entry_is_caught_by_the_loop(
    tmp_path, monkeypatch, capsys
):
    """Each round trip gets its homomorphism's criterion with the entry at voter
    tuple (0, 1) flipped. The whole-table check of the pass fails on every trip,
    and the per-profile loop it falls back to reports the irrational output."""
    checks = []
    extends_everywhere = aggregation._extends_everywhere
    monkeypatch.setattr(aggregation, "_extends_everywhere",
                        lambda *args: checks.append(extends_everywhere(*args)) or checks[-1])
    code, clean = verify("boolean2", 2, tmp_path)
    assert code == 0 and checks == [True, True]

    def flipped(criterion, agenda):
        values = list(criterion.values)
        values[1] = 1 - values[1]
        return CriterionAggregator(DecisionCriterion(agenda.algebra, 2, tuple(values)), agenda)

    monkeypatch.setattr(cli, "aggregator_from_criterion", flipped)
    checks.clear()
    code, faulty = verify("boolean2", 2, tmp_path)
    capsys.readouterr()
    assert code == 1 and not faulty["pass"] and checks == [False, False]
    assert faulty["roundtrips"] == "fail" and faulty["homs"] == faulty["aggregators"] == 2
    assert faulty["roundtrip_failures"] == [
        {"criterion": table, "extracted": "aggregator is not universal+rational: "
                                          "universal=True rational=False"}
        for table in ([0, 0, 1, 1], [0, 1, 0, 1])]


# boolean2 with a second unary connective k, the constant map to 0: no involution
K_BOOLEAN = {"algebra": {"name": "k-boolean", "signature": {"connectives": [
    {"name": "not", "arity": 1}, {"name": "k", "arity": 1}, {"name": "or", "arity": 2},
    {"name": "and", "arity": 2}, {"name": "bot", "arity": 0}, {"name": "top", "arity": 0}]},
    "carrier": ["0", "1"], "ops": {"not": [1, 0], "k": [0, 0], "or": [[0, 1], [1, 1]],
                                   "and": [[0, 0], [0, 1]], "bot": [0], "top": [1]}},
    "designated": [1]}

PLANTED_PAIRS = {
    # or(x̄) = not(or(not x̄)) fails, but which equations are handed reads only u and f
    "boolean2": (("not", "or", "or"), ("not", "and", "or"), ("not", "bot", "top"),
                 ("not", "top", "bot")),
    # k is no involution: most equations of or and and are left out
    "k-boolean": (("k", "or", "and"), ("k", "and", "or")),
}


@pytest.mark.parametrize("logic", list(PLANTED_PAIRS))
def test_a_planted_pair_never_yields_a_wrong_count(logic, tmp_path, monkeypatch, capsys):
    """A pair whose identity fails can only leave equations out, so the search finds
    every homomorphism and perhaps tables that are none, which each table's re-check
    (``AlgebraHomomorphism``) refuses as an input error. Neither command may exit 0 or
    1 with a count other than the electorate's, the projections."""
    identities = algebra._identities
    monkeypatch.setattr(algebra, "_identities",
                        lambda base, n: (PLANTED_PAIRS[logic], *identities(base, n)[1:]))
    option = logic
    if logic == "k-boolean":
        option = str(tmp_path / "k.json")
        (tmp_path / "k.json").write_text(json.dumps(K_BOOLEAN))
    agenda, out = tmp_path / "agenda.json", tmp_path / "report.json"
    agenda.write_text(json.dumps({"formulas": AGENDAS["boolean2"]}))
    codes = []
    for n in (1, 2, 3):
        for argv, field in ((["enumerate-homs"], "count"),
                            (["verify-bijection", "--agenda", str(agenda)], "homs")):
            out.unlink(missing_ok=True)
            code = main([*argv, "--logic", option, "--electorate", str(n), "--out", str(out)])
            errors = capsys.readouterr().err
            if code in (0, 1):
                assert json.loads(out.read_text())[field] == n
            else:
                assert code == 2 and "not a homomorphism" in errors
            codes.append(code)
    if logic == "k-boolean":  # the plant bites, and the re-check catches it
        assert 2 in codes
    else:
        assert set(codes) == {0}


# the pentagon lattice N5, 0 < a < c < 1 and 0 < b < 1: `or` is a monoid, and `and`
# does not distribute over it, as c ∧ (a ∨ b) = c but (c ∧ a) ∨ (c ∧ b) = a
N5 = {"algebra": {"name": "N5", "signature": {"connectives": [
    {"name": "and", "arity": 2}, {"name": "or", "arity": 2}]}, "carrier": ["0", "a", "b", "c", "1"],
    "ops": {"and": [[0, 0, 0, 0, 0], [0, 1, 0, 1, 1], [0, 0, 2, 0, 2], [0, 1, 0, 3, 3], [0, 1, 2, 3, 4]],
            "or": [[0, 1, 2, 3, 4], [1, 1, 4, 3, 4], [2, 4, 2, 4, 4], [3, 3, 4, 3, 4], [4, 4, 4, 4, 4]]}},
    "designated": [4]}


def test_a_planted_distributive_pair_never_yields_a_wrong_count(tmp_path, monkeypatch, capsys):
    """A distributive pair (and, or) planted on N5, where the law fails, leaves out
    equations that do not follow from the others. ``enumerate-homs`` may then only exit
    0 or 1 with the count it finds without the plant, or 2 on a table's re-check."""
    logic = tmp_path / "n5.json"
    logic.write_text(json.dumps(N5))
    out = tmp_path / "report.json"
    pentagon = load_matrix(str(logic)).algebra
    assert algebra._identities(pentagon, 2)[2:] == (("or",), ())
    handed = sum(map(sum, test_search.handed_to_the_search(pentagon, 2).values()))
    counts = [len(algebra.power_homomorphisms(pentagon, n)) for n in (1, 2, 3)]
    identities = algebra._identities
    monkeypatch.setattr(algebra, "_identities",
                        lambda base, n: (*identities(base, n)[:3], (("and", "or"),)))
    assert sum(map(sum, test_search.handed_to_the_search(pentagon, 2).values())) < handed
    for n, count in zip((1, 2, 3), counts):
        out.unlink(missing_ok=True)
        code = main(["enumerate-homs", "--logic", str(logic), "--electorate", str(n),
                     "--out", str(out)])
        errors = capsys.readouterr().err
        if code in (0, 1):
            assert json.loads(out.read_text())["count"] == count
        else:
            assert code == 2 and "not a homomorphism" in errors


def monoid_rule_without_its_slot_condition(monkeypatch):
    """A monoid's equation at a <= b is left out wherever a and b each have two nonzero
    coordinates: the split gives every element the rest 0, and f(0, a) = a <= b."""
    split = algebra._last_coordinate_split
    monkeypatch.setattr(algebra, "_last_coordinate_split",
                        lambda base, n: ([0] * n, split(base, n)[1]))


def definitions_by_a_later_connective(monkeypatch):
    """A definition f(x, y) = g(u x, y) may take any other g, before f or after it:
    Ł3's oplus is then defined by impl, and impl by oplus."""
    identities = algebra._identities

    def definitions(base, power):
        n, connectives = base.size, base.signature.connectives
        rows = {f: tuple(tuple(base.tables[f][x * n:(x + 1) * n]) for x in range(n))
                for f, arity in connectives if arity == 2}
        later = tuple((u, f, g) for f in rows for u, arity in connectives if arity == 1
                      for g in rows if g != f and rows[f] == tuple(
                          rows[g][base.tables[u][x]] for x in range(n)))
        pairs, _, monoids, distributive = identities(base, power)
        return pairs, later, monoids, distributive

    monkeypatch.setattr(algebra, "_identities", definitions)


# each plant, and the tier-1 tests that fail on it, with their arguments
RULE_FAULTS = {
    monoid_rule_without_its_slot_condition: [
        (test_search.test_z3_hands_the_search_what_the_rules_leave, ())],
    definitions_by_a_later_connective: [
        (test_search.test_the_definitions_and_monoids_are_those_by_definition, ("mv3",)),
        (test_search.test_an_equation_is_left_out_exactly_where_a_rule_implies_it, ("mv3", 2))],
}


@pytest.mark.parametrize("plant", list(RULE_FAULTS), ids=lambda plant: plant.__name__)
def test_a_planted_rule_is_caught(plant, monkeypatch):
    """A rule that leaves out equations it may not. On Z3, Ł3 and Ł4 at N <= 3 the
    other equations still pin every table, so the search enters the same nodes and
    finds the same tables; the tests that check the mask against the rules'
    definitions fail."""
    for test, args in RULE_FAULTS[plant]:
        test(*args)
    plant(monkeypatch)
    for test, args in RULE_FAULTS[plant]:
        with pytest.raises(AssertionError):
            test(*args)
