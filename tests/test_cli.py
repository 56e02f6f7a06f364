import argparse
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from aggcheck import __version__
from aggcheck import agenda as agenda_layer
from aggcheck import algebra, census, cli, oracles, semantics
from aggcheck.aggregation import DecisionCriterion
from aggcheck.cli import main
from aggcheck.fileio import dump_json
from aggcheck.syntax import MAX_FORMULA_DEPTH, print_formula
from test_golden import DOUBLED_BOOLEAN


@pytest.fixture
def bool_agenda_file(tmp_path):
    path = tmp_path / "agenda.json"
    dump_json({"formulas": ["x1", "x2", "(or x1 x2)", "(not x1)"]}, path)
    return str(path)


@pytest.fixture
def or_agenda_file(tmp_path):
    path = tmp_path / "agenda3.json"
    dump_json({"formulas": ["x1", "x2", "(or x1 x2)"]}, path)
    return str(path)


@pytest.fixture
def majority_file(tmp_path):
    path = tmp_path / "majority.json"
    values = [int(((i >> 2 & 1) + (i >> 1 & 1) + (i & 1)) >= 2) for i in range(8)]
    dump_json({"electorate": 3, "values": values}, path)
    return str(path)


class TestCheckAgenda:
    def test_report(self, bool_agenda_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["check-agenda", "--logic", "boolean2", "--agenda", bool_agenda_file,
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["pseudo_rich"] == 2
        assert "(or x1 x2)" in report["strictly_contingent"]
        assert report["equivalent_variable"]["(not x1)"] is None

    def test_empty_agenda(self, tmp_path):
        path = tmp_path / "empty.json"
        dump_json({"formulas": []}, path)
        out = tmp_path / "report.json"
        code = main(
            ["check-agenda", "--logic", "boolean2", "--agenda", str(path),
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["pseudo_rich"] == 0

    def test_luk_square_agenda(self, tmp_path):
        path = tmp_path / "mv.json"
        dump_json({"formulas": ["x1", "(odot x1 x1)"]}, path)
        out = tmp_path / "report.json"
        code = main(
            ["check-agenda", "--logic", "mv3", "--agenda", str(path), "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["pseudo_rich"] == 1

    def test_each_formula_is_matched_to_a_variable_once(self, bool_agenda_file, tmp_path,
                                                        monkeypatch):
        calls = []

        def spy(formula, owner):
            calls.append(print_formula(formula))
            return decide(formula, owner)

        decide = agenda_layer._variable_and_image_size  # each formula's one decision
        monkeypatch.setattr(agenda_layer, "_variable_and_image_size", spy)
        out = tmp_path / "report.json"
        assert main(["check-agenda", "--logic", "boolean2", "--agenda", bool_agenda_file,
                     "--out", str(out)]) == 0
        assert sorted(calls) == ["(not x1)", "(or x1 x2)", "x1", "x2"]
        assert json.loads(out.read_text())["equivalent_variable"] == {
            "(not x1)": None, "(or x1 x2)": None, "x1": "x1", "x2": "x2"}

    @pytest.mark.parametrize("logic", ["boolean2", "mv3-degree"])
    def test_builds_one_truth_vector_program_per_formula(self, logic, tmp_path, monkeypatch):
        # the equivalent variable and strict contingency are read off one vector
        programs = []

        def spy(formulas, variables):
            formulas = list(formulas)
            programs.append([print_formula(f) for f in formulas])
            return program_steps(formulas, variables)

        program_steps = algebra._program_steps
        monkeypatch.setattr(algebra, "_program_steps", spy)
        join, meet = {"boolean2": ("or", "and"), "mv3-degree": ("oplus", "odot")}[logic]
        texts = ["x1", "(not x1)", f"({join} x1 x2)", f"({meet} x2 (not x2))"]
        path = tmp_path / "agenda.json"
        dump_json({"formulas": texts}, path)
        out = tmp_path / "report.json"
        assert main(["check-agenda", "--logic", logic, "--agenda", str(path),
                     "--out", str(out)]) == 0
        assert sorted(program[0] for program in programs) == sorted(texts)
        assert json.loads(out.read_text())["strictly_contingent"] == sorted(texts[:3])

    def test_takes_one_holding_pattern_per_formula(self, tmp_path, monkeypatch):
        # each own variable is compared with the formula's pattern lazily
        patterns = []

        def spy(matrix, vector):
            patterns.append(len(vector))
            return pattern(matrix, vector)

        pattern = semantics.Matrix.pattern
        monkeypatch.setattr(semantics.Matrix, "pattern", spy)
        texts = ["(or x1 x2)", "(and x1 (not x2))", "(or x1 (or x2 x3))", "(not (not x3))"]
        path = tmp_path / "agenda.json"
        dump_json({"formulas": texts}, path)
        out = tmp_path / "report.json"
        assert main(["check-agenda", "--logic", "boolean2", "--agenda", str(path),
                     "--out", str(out)]) == 0
        assert sorted(patterns) == [2, 4, 4, 8]
        assert json.loads(out.read_text())["equivalent_variable"] == {
            "(and x1 (not x2))": None, "(not (not x3))": "x3", "(or x1 (or x2 x3))": None,
            "(or x1 x2)": None}

    @pytest.mark.parametrize("logic", ["boolean2", "boolean2-degree", "mv3", "mv3-degree"])
    def test_never_consults_entailment(self, logic, tmp_path, monkeypatch):
        # interderivability is decided by holding patterns; entails is the oracle only
        def forbidden(*args, **kwargs):
            raise AssertionError("check-agenda called entails")

        entails = oracles.entails
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "aggcheck" and getattr(module, "entails", 0) is entails:
                monkeypatch.setattr(module, "entails", forbidden)
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["x1", "x2", "(not (not x1))"]}, path)
        out = tmp_path / "report.json"
        assert main(["check-agenda", "--logic", logic, "--agenda", str(path),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["equivalent_variable"] == {
            "(not (not x1))": "x1", "x1": "x1", "x2": "x2"}


class TestVerifyBijection:
    @pytest.mark.parametrize("n,homs", [(1, 1), (2, 2), (3, 3)])
    def test_boolean(self, bool_agenda_file, tmp_path, n, homs):
        out = tmp_path / "report.json"
        code = main(
            ["verify-bijection", "--logic", "boolean2", "--agenda", bool_agenda_file,
             "--electorate", str(n), "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["homs"] == homs
        assert report["aggregators"] == homs
        assert report["roundtrips"] == "pass"

    def test_mv(self, tmp_path):
        agenda = tmp_path / "mv_agenda.json"
        dump_json({"formulas": ["x1", "x2", "(oplus x1 x2)"]}, agenda)
        out = tmp_path / "report.json"
        code = main(
            ["verify-bijection", "--logic", "mv3-degree", "--agenda", str(agenda),
             "--electorate", "2", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["homs"] == report["aggregators"]
        assert report["counts_equal"] and report["same_tables"]

    def test_budget_exit_code(self, bool_agenda_file, tmp_path):
        code = main(
            ["verify-bijection", "--logic", "boolean2", "--agenda", bool_agenda_file,
             "--electorate", "3", "--budget", "5"]
        )
        assert code == 3

    def test_closure_is_refused_at_the_given_budget(self, bool_agenda_file, capsys):
        # the search of boolean2^1 fits in 256 units, the first closure layer does not
        assert main(["verify-bijection", "--logic", "boolean2", "--agenda", bool_agenda_file,
                     "--electorate", "1", "--budget", "256"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: closure layer: 78 formulas x 4 valuations = 312 "
            "exceed the limit of 256\n"
        )

    def test_round_trip_gets_the_given_budget(self, bool_agenda_file, monkeypatch):
        seen = []

        def spy(aggregator, depth, budget):
            seen.append(budget)
            return criterion_from_aggregator(aggregator, depth=depth, budget=budget)

        criterion_from_aggregator = cli.criterion_from_aggregator
        monkeypatch.setattr(cli, "criterion_from_aggregator", spy)
        assert main(["verify-bijection", "--logic", "boolean2", "--agenda", bool_agenda_file,
                     "--electorate", "2", "--budget", "5000"]) == 0
        assert seen == [5000, 5000]

    def test_rank_table_is_built_once(self, bool_agenda_file, tmp_path):
        # the census builds the rational-profile rank table; each round trip reuses it
        out = tmp_path / "report.json"
        census._voter_ranks.cache_clear()
        assert main(["verify-bijection", "--logic", "boolean2", "--agenda", bool_agenda_file,
                     "--electorate", "4", "--out", str(out)]) == 0
        homs = json.loads(out.read_text())["homs"]
        info = census._voter_ranks.cache_info()
        assert (homs, info.misses, info.hits) == (4, 1, homs)

    def test_power_is_built_once(self, bool_agenda_file, monkeypatch):
        built = []

        def spy(base, n):
            built.append((base.name, n))
            return product_algebra(base, n)

        product_algebra = algebra.product_algebra
        monkeypatch.setattr(algebra, "product_algebra", spy)
        algebra.shared_power.cache_clear()
        assert main(["verify-bijection", "--logic", "boolean2", "--agenda", bool_agenda_file,
                     "--electorate", "3"]) == 0
        assert built == [("boolean2", 3)]

    def test_untracked_witness_is_an_input_error(self, tmp_path, capsys):
        # (odot x1 x1) is interderivable with x1 under designated {1} but
        # takes other values, so it cannot carry the extraction
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["(odot x1 x1)", "x2"]}, path)
        argv = ["verify-bijection", "--logic", "mv3", "--agenda", str(path),
                "--electorate", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "input error: pseudo-rich witness does not track its variable; "
            "is the matrix a selfextensional presentation?\n"
        )

    def test_round_trip_failure_is_reported(self, bool_agenda_file, tmp_path, monkeypatch):
        def flipped(aggregator, depth, budget):
            criterion = aggregator.criterion
            return DecisionCriterion(criterion.algebra, criterion.electorate,
                                     tuple(1 - v for v in criterion.values))

        monkeypatch.setattr("aggcheck.cli.criterion_from_aggregator", flipped)
        out = tmp_path / "report.json"
        code = main(
            ["verify-bijection", "--logic", "boolean2", "--agenda", bool_agenda_file,
             "--electorate", "1", "--out", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["roundtrips"] == "fail"
        assert report["roundtrip_failures"] == [{"criterion": [0, 1], "extracted": [1, 0]}]
        assert report["same_tables"] and not report["pass"]

    @pytest.fixture
    def searched(self, monkeypatch):
        """The search steps of either route that ran: each fails the command."""
        searched = []

        def spy(name):
            def refused(*args, **kwargs):
                searched.append(name)
                raise AssertionError(f"{name} ran before the refusal")
            return refused

        for module, name in ((algebra, "shared_power"), (algebra, "search_tables"),
                             (census, "search_tables"), (census, "_voter_ranks")):
            monkeypatch.setattr(module, name, spy(name))
        return searched

    @pytest.mark.parametrize("logic, formulas, electorate", [
        ("boolean2", ["x1", "x2", "(or x1 x2)", "(not x1)"], 10),  # census constraints
        ("boolean2", ["x1", "x2", "(or x1 x2)", "(not x1)"], 11),  # homomorphism equations
        ("boolean2", ["x1", "x2", "(or x1 x2)", "(not x1)"], 14),  # power size
        ("mv3-degree", ["x1", "x2", "(oplus x1 x2)"], 6),  # census constraints
    ])
    def test_refusals_come_before_either_route_searches(
        self, logic, formulas, electorate, searched, tmp_path
    ):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": formulas}, path)
        assert main(["verify-bijection", "--logic", logic, "--agenda", str(path),
                     "--electorate", str(electorate)]) == 3
        assert searched == []

    @pytest.mark.parametrize("logic, formulas, electorate, error", [
        ("boolean2", ["(or x1 x2)"], 9, "agenda is not even 1-pseudo-rich"),
        ("mv3", ["(odot x1 x1)", "x2"], 2, "pseudo-rich witness does not track its variable; "
                                           "is the matrix a selfextensional presentation?"),
    ])
    def test_the_round_trip_witness_is_built_before_either_route_searches(
        self, logic, formulas, electorate, error, searched, tmp_path, capsys
    ):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": formulas}, path)
        assert main(["verify-bijection", "--logic", logic, "--agenda", str(path),
                     "--electorate", str(electorate)]) == 2
        assert capsys.readouterr().err == f"input error: {error}\n"
        assert searched == []

    def test_the_census_is_refused_before_its_tables_outgrow_the_cap(self, tmp_path, capsys):
        # x1 alone is 1-pseudo-rich and below arity 2, so 2^(2^5 - 1) criteria
        # qualify at 6 voters: far too many tables to keep, even as lex-leaders
        path = tmp_path / "x1.json"
        dump_json({"formulas": ["x1"]}, path)
        assert main(["verify-bijection", "--logic", "boolean2", "--agenda", str(path),
                     "--electorate", "6"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: census table search: 31251 tables x 64 entries = 2000064 "
            "exceed the limit of 2000000\n")

    def test_byte_stable_reports(self, bool_agenda_file, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["verify-bijection", "--logic", "boolean2", "--agenda",
                bool_agenda_file, "--electorate", "2"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        left = out1.read_bytes().replace(b"r1.json", b"r.json")
        right = out2.read_bytes().replace(b"r2.json", b"r.json")
        assert left == right


class TestClassifyDictators:
    def test_majority(self, majority_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["classify-dictators", "--criterion", majority_file, "--out", str(out)]
        )
        assert code == 0  # the three routes agree (all negative)
        report = json.loads(out.read_text())
        assert report["dictator"] is None
        assert report["ultrafilter"] is False
        assert report["homomorphism"] is False
        assert report["violations"]

    def test_projection(self, tmp_path):
        path = tmp_path / "proj.json"
        dump_json({"electorate": 3, "values": [(i >> 1) & 1 for i in range(8)]}, path)
        out = tmp_path / "report.json"
        code = main(["classify-dictators", "--criterion", str(path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["dictator"] == 1
        assert report["ultrafilter"] is True

    @pytest.mark.parametrize("electorate, values, message", [
        (-1, [0], "criterion electorate must be >= 1, got -1"),
        (0, [0], "criterion electorate must be >= 1, got 0"),
        (100000, [0, 1], "criterion table needs 2^100000 entries, got 2"),
    ])
    def test_electorate_is_checked(self, tmp_path, capsys, electorate, values, message):
        path = tmp_path / "criterion.json"
        dump_json({"electorate": electorate, "values": values}, path)
        assert main(["classify-dictators", "--criterion", str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"


class TestCheckSubjunctive:
    def test_default_bound(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check-subjunctive", "--frame-bound", "2", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["a"] == "pass"
        assert report["b"] == "pass"
        assert report["material_b"] == "fail"
        assert report["bottom_certified"] is True

    def test_bound_one_fails_b(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check-subjunctive", "--frame-bound", "1", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["b"] == "fail"
        assert report["insufficient_bound"] is True

    @pytest.mark.parametrize("bound", ["6", "200"])
    def test_bounds_past_the_frame_cap_give_bound_five_verdicts(self, tmp_path, bound):
        # the searches stop at the small-model bound, so MAX_FRAMES is never reached
        def verdicts(k):
            out = tmp_path / f"k{k}.json"
            assert main(["check-subjunctive", "--frame-bound", k, "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            del report["config"]
            return report

        assert verdicts(bound) == verdicts("5")


class TestCheckSelfext:
    def test_classical_passes(self):
        assert main(["check-selfext", "--logic", "boolean2", "--variables", "3",
                     "--depth", "2"]) == 0

    def test_luk_filter_fails_with_witness(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["check-selfext", "--logic", "mv3", "--variables", "1",
                     "--depth", "2", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["selfextensional"] is False
        assert report["witness"]["connective"]

    def test_luk_degree_passes(self):
        assert main(["check-selfext", "--logic", "mv3-degree", "--variables", "1",
                     "--depth", "2"]) == 0

    def test_congruence_check_charges_pairs_with_each_class_first(self, tmp_path, capsys):
        # 102 vectors in 14 classes give 88 pairs; all pairs of a class were 774,
        # which charged 'or' 157896 units and refused at this budget
        path = tmp_path / "doubled.json"
        dump_json(DOUBLED_BOOLEAN, path)
        argv = ["check-selfext", "--logic", str(path), "--variables", "2", "--depth", "2"]
        assert main([*argv, "--budget", "20000"]) == 0
        capsys.readouterr()
        assert main([*argv, "--budget", "17951"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: congruence check of 'or': 88 vector pairs x 2 positions x "
            "102 other arguments = 17952 exceed the limit of 17951\n"
        )

    def test_closure_is_refused_at_the_given_budget(self, capsys):
        # fits the default budget, and fails with a witness after some 20 s
        assert main(["check-selfext", "--logic", "mv3", "--variables", "2",
                     "--depth", "4", "--budget", "10000000"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: closure layer: 5722864 formulas x 9 valuations = 51505776 "
            "exceed the limit of 10000000\n"
        )

    @pytest.mark.parametrize("logic, variables, depth", [("boolean2", 12, 2),
                                                         ("mv3-degree", 2, 4)])
    def test_injective_holding_passes_past_the_closure_budget(self, logic, variables, depth):
        # holding tells every value apart, so no closure is built
        assert main(["check-selfext", "--logic", logic, "--variables", str(variables),
                     "--depth", str(depth)]) == 0

    def test_seed_layer_is_charged(self, capsys):
        # 16 variables and 2 constants, 2^16 valuations each
        assert main(["check-selfext", "--logic", "boolean2", "--variables", "16",
                     "--depth", "0", "--budget", "1000"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: closure seed: 18 formulas x 65536 valuations = 1179648 "
            "exceed the limit of 1000\n"
        )

    @pytest.mark.parametrize("variables", [100_000, 10_000_000])
    def test_seed_layer_is_refused_before_any_vector(self, monkeypatch, capsys, variables):
        def forbidden(*args):
            raise AssertionError("a variable name or seed vector was built")

        monkeypatch.setattr(algebra, "_variable_vectors", forbidden)
        monkeypatch.setattr(cli, "check_selfextensionality", forbidden)  # takes the names
        assert main(["check-selfext", "--logic", "boolean2", "--variables", str(variables),
                     "--depth", "0"]) == 3
        assert capsys.readouterr().err == (
            f"budget exceeded: closure seed: {variables + 2} formulas x 2^{variables} "
            "valuations exceed the limit of 100000000\n"
        )


class TestEnumerateHoms:
    def test_count(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["enumerate-homs", "--logic", "boolean2", "--electorate", "3",
                     "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["count"] == 3
        assert len(report["tables"]) == 3


def ternary_matrix():
    """Boolean negation, a constant and the ternary majority, designated 1."""
    return {
        "algebra": {
            "signature": {"connectives": [
                {"name": "not", "arity": 1}, {"name": "k", "arity": 0},
                {"name": "maj", "arity": 3},
            ]},
            "carrier": ["0", "1"],
            "ops": {"not": [[1], [0]], "k": [0], "maj": [[0, 0, 0, 1], [0, 1, 1, 1]]},
            "order": [[0, 0], [0, 1], [1, 1]],
        },
        "designated": [1],
    }


MALFORMED_MATRICES = [
    pytest.param(lambda a: a["ops"].update(k=[None]),
                 "table entry of connective 'k' must be an integer, got null", id="null-entry"),
    pytest.param(lambda a: a["ops"].update(maj=[[[0, 0], [0, 1]], [[0, 1], [1, 1]]]),
                 "table entry of connective 'maj' must be an integer, got a list",
                 id="nested-ternary-rows"),
    pytest.param(lambda a: a["ops"].update(maj=[[0, 0, 0, 1], 0, 1, 1, 1]),
                 "table of connective 'maj' mixes rows and entries", id="mixed-rows"),
    pytest.param(lambda a: a["ops"].update(maj=None),
                 "table of connective 'maj' must be a list", id="null-table"),
    pytest.param(lambda a: a["signature"]["connectives"][0].update(arity=None),
                 "arity of connective 'not' must be an integer, got null", id="null-arity"),
    pytest.param(lambda a: a["signature"]["connectives"][2].update(arity=100_000),
                 "table for 'maj' has 8 entries, expected 2^100000", id="arity-past-int-text"),
    pytest.param(lambda a: a["signature"]["connectives"][2].update(arity=2**40),
                 "table for 'maj' has 8 entries, expected 2^1099511627776", id="arity-2^40"),
    pytest.param(lambda a: a["signature"]["connectives"][0].pop("arity"),
                 "arity of connective 'not' must be an integer, got null", id="missing-arity"),
    pytest.param(lambda a: a["signature"]["connectives"][0].update(name=5),
                 "signature connective name must be a string, got 5", id="name-not-a-string"),
    pytest.param(lambda a: a["signature"]["connectives"][0].pop("name"),
                 "signature connective name must be a string, got null", id="missing-name"),
    pytest.param(lambda a: a["signature"]["connectives"][0].update(name="("),
                 "connective name '(' must be one formula token: not empty, with no whitespace "
                 "or parentheses", id="parenthesis-name"),
    pytest.param(lambda a: a["signature"]["connectives"][0].update(name="n t"),
                 "connective name 'n t' must be one formula token: not empty, with no whitespace "
                 "or parentheses", id="two-token-name"),
    pytest.param(lambda a: a["signature"]["connectives"][0].update(name=""),
                 "connective name '' must be one formula token: not empty, with no whitespace "
                 "or parentheses", id="empty-name"),
    pytest.param(lambda a: a["order"].append([None, 1]),
                 "order pair entry must be an integer, got null", id="null-order-entry"),
    pytest.param(lambda a: a["order"].append(5),
                 "order must be a list of [a, b] pairs",
                 id="order-entry-not-a-pair"),
    pytest.param(lambda a: a["order"].append([5, 7]),
                 "order has out-of-range entries", id="order-pair-past-the-carrier"),
    pytest.param(lambda a: a["order"].append([-1, -1]),
                 "order has out-of-range entries", id="negative-order-pair"),
    pytest.param(lambda a: a["signature"]["connectives"][0].update(arity=-1),
                 "negative arity for 'not'", id="negative-arity"),
    pytest.param(lambda a: a["ops"].update({"and": [[0, 0], [0, 1]]}),
                 "tables for unknown connectives: ['and']", id="table-outside-the-signature"),
]


def replaced(*path, value):
    """Malform a matrix object by setting the entry at ``path`` to ``value``."""
    def malform(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return obj
    return malform


MISSHAPEN_MATRICES = [
    pytest.param(lambda obj: [obj], "matrix must be an object, got a list", id="top-level-list"),
    pytest.param(replaced("algebra", "signature", "connectives", value=[5]),
                 "signature connective must be an object, got 5", id="connective-not-an-object"),
    pytest.param(replaced("algebra", "carrier", value=None),
                 "algebra carrier must be a list, got null", id="null-carrier"),
    pytest.param(replaced("algebra", "carrier", value=[None, {"a": 1}]),
                 "carrier label must be a string or an integer, got null", id="null-carrier-label"),
    pytest.param(replaced("algebra", "carrier", value=["0", 1.5]),
                 "carrier label must be a string or an integer, got 1.5", id="float-carrier-label"),
    pytest.param(replaced("algebra", "carrier", value=["0", "0"]),
                 "carrier labels must be distinct", id="duplicate-carrier-labels"),
    pytest.param(replaced("algebra", "carrier", value=["0", 0]),
                 "carrier labels must be distinct", id="label-equal-to-an-integer-label"),
    pytest.param(replaced("algebra", "name", value=None),
                 "algebra name must be a string, got null", id="null-algebra-name"),
    pytest.param(replaced("algebra", "ops", value=[[1, 0], [0], [0, 0, 0, 1]]),
                 "algebra ops must be an object, got a list", id="ops-as-a-list"),
    pytest.param(replaced("designated", value=None),
                 "matrix designated values must be a list, got null", id="null-designated"),
    pytest.param(replaced("designated", value=[True]),
                 "matrix designated value must be an integer, got true", id="designated-true"),
    pytest.param(replaced("designated", value=["2"]),
                 'matrix designated value "2" is not a carrier label (carrier ["0", "1"])',
                 id="designated-unknown-label"),
    pytest.param(replaced("designated", value=[2]),
                 "designated values outside the carrier", id="designated-index-outside"),
    pytest.param(replaced("algebra", "carrier", value=[]),
                 "carrier must be nonempty", id="empty-carrier"),
    pytest.param(replaced("algebra", "order", value=[[0, 1], [1, 1]]),
                 "order not reflexive", id="order-not-reflexive"),
    pytest.param(replaced("algebra", "order", value=[[0, 0], [0, 1], [1, 0], [1, 1]]),
                 "order not antisymmetric", id="order-not-antisymmetric"),
    # two elements cannot break transitivity alone: a three-element chain missing 0 <= 2
    pytest.param(replaced("algebra", value={
        "signature": {"connectives": [{"name": "not", "arity": 1}]},
        "carrier": ["0", "1", "2"],
        "ops": {"not": [2, 1, 0]},
        "order": [[0, 0], [1, 1], [2, 2], [0, 1], [1, 2]],
    }), "order not transitive", id="order-not-transitive"),
    pytest.param(replaced("mode", value="degrees"), 'matrix mode must be "degree", got "degrees"',
                 id="mode-typo"),
    pytest.param(lambda obj: {**obj, "mode": "degree", "designated": [0]},
                 "matrix designated values must be absent in degree mode",
                 id="designated-in-degree-mode"),
]

MISSHAPEN_INPUTS = [
    pytest.param("--agenda", [{"formulas": ["x1"]}], "agenda must be an object, got a list",
                 id="agenda-list"),
    pytest.param("--agenda", {"formulas": None}, "agenda formulas must be a list, got null",
                 id="null-formulas"),
    pytest.param("--agenda", {"formulas": ["x1", 5]}, "agenda formula must be a string, got 5",
                 id="formula-not-a-string"),
    pytest.param("--agenda", {"other": ["x1"]}, "agenda formulas must be a list, got null",
                 id="missing-formulas"),
    pytest.param("--agenda", {"signature_ref": 5, "formulas": ["x1"]},
                 "agenda signature_ref must be a string, got 5", id="signature-ref-not-a-string"),
    pytest.param("--agenda", {"formulas": [""]},
                 'agenda formula "": unexpected end of input (at position 0)',
                 id="empty-formula"),
    pytest.param("--agenda", {"formulas": [")"]},
                 'agenda formula ")": unexpected \')\' (at position 0)',
                 id="formula-closing-paren"),
    pytest.param("--agenda", {"formulas": ["("]},
                 'agenda formula "(": unexpected end of input (at position 1)',
                 id="formula-open-paren"),
    pytest.param("--agenda", {"formulas": ["(("]},
                 'agenda formula "((": expected connective symbol (at position 1)',
                 id="formula-no-connective"),
    pytest.param("--agenda", {"formulas": ["1x"]},
                 'agenda formula "1x": invalid variable name \'1x\' (at position 0)',
                 id="formula-bad-variable"),
    pytest.param("--criterion", [1], "criterion must be an object, got a list",
                 id="criterion-list"),
    pytest.param("--criterion", {"electorate": 1, "values": None},
                 "criterion values must be a list, got null", id="null-criterion-values"),
    pytest.param("--criterion", {"electorate": 1, "values": [0, True]},
                 "criterion value must be an integer, got true", id="criterion-value-true"),
    pytest.param("--criterion", {"electorate": 1, "values": [0, "x"]},
                 'criterion value "x" is not a carrier label (carrier ["0", "1"])',
                 id="criterion-unknown-label"),
    pytest.param("--criterion", {"electorate": 1, "values": [0, 1.0]},
                 "criterion value must be an integer, got 1.0", id="criterion-value-float"),
]


class TestMatrixFiles:
    def test_ternary_connective(self, tmp_path, capsys):
        matrix, agenda = tmp_path / "maj.json", tmp_path / "agenda.json"
        dump_json(ternary_matrix(), matrix)
        dump_json({"formulas": ["x1", "(maj x1 x2 (not x1))"]}, agenda)
        assert main(["check-agenda", "--logic", str(matrix), "--agenda", str(agenda)]) == 0
        assert main(["enumerate-homs", "--logic", str(matrix), "--electorate", "2"]) == 0
        out, err = capsys.readouterr()
        assert out.endswith("homomorphisms B^2 -> B: 2\n")  # the two projections
        assert err == ""

    @pytest.mark.parametrize("malform, message", MALFORMED_MATRICES)
    def test_malformed_matrix_is_an_input_error(self, malform, message, tmp_path, capsys):
        obj = ternary_matrix()
        malform(obj["algebra"])
        matrix, agenda = tmp_path / "bad.json", tmp_path / "agenda.json"
        dump_json(obj, matrix)
        dump_json({"formulas": ["x1"]}, agenda)
        assert main(["check-agenda", "--logic", str(matrix), "--agenda", str(agenda)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("malform, message", MISSHAPEN_MATRICES)
    def test_misshapen_matrix_is_an_input_error(self, malform, message, tmp_path, capsys):
        matrix, agenda = tmp_path / "bad.json", tmp_path / "agenda.json"
        dump_json(malform(ternary_matrix()), matrix)
        dump_json({"formulas": ["x1"]}, agenda)
        assert main(["check-agenda", "--logic", str(matrix), "--agenda", str(agenda)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    @pytest.mark.parametrize("option, obj, message", MISSHAPEN_INPUTS)
    def test_misshapen_agenda_or_criterion_is_an_input_error(
        self, option, obj, message, tmp_path, capsys
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(obj))
        command = "check-agenda" if option == "--agenda" else "classify-dictators"
        assert main([command, "--logic", "boolean2", option, str(path)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_null_criterion_electorate_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "criterion.json"
        dump_json({"electorate": None, "values": [0, 1]}, path)
        assert main(["classify-dictators", "--logic", "boolean2", "--criterion", str(path)]) == 2
        assert capsys.readouterr().err == (
            "input error: criterion electorate must be an integer, got null\n"
        )

    @pytest.mark.parametrize("files, argv, message", [
        pytest.param({"c.json": {"electorate": "LONG", "values": [0, 1]}},
                     ["classify-dictators", "--criterion", "c.json"],
                     "criterion electorate must be an integer{limit}, got 5001 digits",
                     id="criterion-electorate"),
        pytest.param({"c.json": {"electorate": 1, "values": [0, "-LONG"]}},
                     ["classify-dictators", "--criterion", "c.json"],
                     "criterion value must be an integer{limit}, got 5001 digits",
                     id="negative-criterion-value"),
        pytest.param({"a.json": {"formulas": ["x1", "LONG"]}},
                     ["check-agenda", "--logic", "boolean2", "--agenda", "a.json"],
                     "agenda formula must be a string, got 5001 digits", id="agenda-formula"),
        pytest.param({"m.json": "ARITY", "a.json": {"formulas": ["x1"]}},
                     ["check-agenda", "--logic", "m.json", "--agenda", "a.json"],
                     "arity of connective 'not' must be an integer{limit}, got 5001 digits",
                     id="matrix-arity"),
        pytest.param({"s.json": "ARITY", "a.json": {"signature_ref": "s.json", "formulas": ["x1"]}},
                     ["check-agenda", "--logic", "boolean2", "--agenda", "a.json"],
                     "arity of connective 'not' must be an integer{limit}, got 5001 digits",
                     id="signature-ref-arity"),
        pytest.param({"a.json": {"formulas": ["x1"]}},
                     ["check-agenda", "--logic", "mv" + "9" * 5001, "--agenda", "a.json"],
                     "--logic chain size must be an integer{limit}, got 5001 digits",
                     id="logic-chain-size"),
        # a chain size in other than ASCII digits names a file, read as any other
        pytest.param({"mv\u00b2": "ARITY", "a.json": {"formulas": ["x1"]}},
                     ["check-agenda", "--logic", "mv\u00b2", "--agenda", "a.json"],
                     "arity of connective 'not' must be an integer{limit}, got 5001 digits",
                     id="logic-superscript-two"),
        pytest.param({"mv\u0663": "ARITY", "a.json": {"formulas": ["x1"]}},
                     ["check-agenda", "--logic", "mv\u0663", "--agenda", "a.json"],
                     "arity of connective 'not' must be an integer{limit}, got 5001 digits",
                     id="logic-arabic-indic-three"),
    ])
    def test_integer_literal_past_the_digit_limit_names_its_field(
        self, files, argv, message, tmp_path, monkeypatch, capsys
    ):
        # 5001 digits: past the interpreter's default limit of 4300 for int("...")
        long_arity = ternary_matrix()
        long_arity["algebra"]["signature"]["connectives"][0]["arity"] = "LONG"
        for name, obj in files.items():
            if obj == "ARITY":
                obj = long_arity if name != "s.json" else long_arity["algebra"]["signature"]
            text = json.dumps(obj).replace('"LONG"', "9" * 5001)
            (tmp_path / name).write_text(text.replace('"-LONG"', "-" + "9" * 5001))
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        limit = f" of at most {sys.get_int_max_str_digits()} digits"
        assert capsys.readouterr().err == f"input error: {message.format(limit=limit)}\n"

    def test_integer_literal_past_the_digit_limit_is_a_carrier_label(self, tmp_path, capsys):
        obj = ternary_matrix()
        obj["algebra"]["carrier"][1] = "LONG"
        (tmp_path / "m.json").write_text(json.dumps(obj).replace('"LONG"', "9" * 5001))
        dump_json({"formulas": ["x1"]}, tmp_path / "a.json")
        assert main(["check-agenda", "--logic", str(tmp_path / "m.json"),
                     "--agenda", str(tmp_path / "a.json")]) == 0


class TestErrorPaths:
    def test_missing_file(self):
        assert main(["check-agenda", "--logic", "boolean2",
                     "--agenda", "/nonexistent.json"]) == 2

    def test_bad_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        dump_json({"formulas": ["x1"]}, tmp_path / "agenda.json")
        for logic, agenda in ((path, tmp_path / "agenda.json"), ("boolean2", path)):
            assert main(["check-agenda", "--logic", str(logic), "--agenda", str(agenda)]) == 2
            assert capsys.readouterr().err == (
                f"input error: {path}: Expecting property name enclosed in double quotes: "
                "line 1 column 2 (char 1)\n")

    def test_bad_formula(self, tmp_path, capsys):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["x1", "(xor x1 x2)"]}, path)
        assert main(["check-agenda", "--logic", "boolean2",
                     "--agenda", str(path)]) == 2
        assert capsys.readouterr().err == (
            "input error: agenda formula \"(xor x1 x2)\": unknown symbol 'xor' (at position 1)\n")

    def test_unknown_builtin(self, tmp_path):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["x1"]}, path)
        assert main(["check-agenda", "--logic", "nosuch", "--agenda", str(path)]) == 2

    def test_over_deep_formula_is_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["(not " * 3000 + "x1" + ")" * 3000]}, path)
        assert main(["check-agenda", "--logic", "boolean2",
                     "--agenda", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nested deeper than" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1 and len(err.encode()) < 200  # the formula's start only

    @pytest.mark.parametrize("length", [78, 79])
    def test_long_formula_is_named_by_its_start(self, tmp_path, capsys, length):
        # quoted, 78 characters take 80; 79 take 81 and are cut to 60 and a length
        text = "(xor x" + "1" * (length - 7) + ")"
        dump_json({"formulas": [text]}, tmp_path / "agenda.json")
        assert main(["check-agenda", "--logic", "boolean2",
                     "--agenda", str(tmp_path / "agenda.json")]) == 2
        named = json.dumps(text) if length == 78 else f'"{text[:59]}... (79 characters)'
        assert capsys.readouterr().err == (
            f"input error: agenda formula {named}: unknown symbol 'xor' (at position 1)\n")

    def test_deepest_formula_is_checked(self, tmp_path):
        path = tmp_path / "agenda.json"
        deep = "(not " * MAX_FORMULA_DEPTH + "x1" + ")" * MAX_FORMULA_DEPTH
        dump_json({"formulas": [deep, "x2"]}, path)
        assert main(["verify-bijection", "--logic", "boolean2", "--agenda",
                     str(path), "--electorate", "2"]) == 0

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch, capsys):
        def crash(bound):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr("aggcheck.cli.check_subjunctive_conditions", crash)
        assert main(["check-subjunctive"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError('boom\\nsecond line')\n"
        assert captured.out == ""

    def test_key_error_is_an_internal_error(self, monkeypatch, capsys):
        # no input path raises KeyError, so one is a bug, not a malformed file
        def crash(bound):
            raise KeyError("x")

        monkeypatch.setattr("aggcheck.cli.check_subjunctive_conditions", crash)
        assert main(["check-subjunctive"]) == 4
        assert capsys.readouterr().err == "internal error: KeyError('x')\n"

    @pytest.mark.parametrize("command", ["enumerate-homs", "verify-bijection"])
    def test_candidate_budget_refuses_before_building_the_power(
        self, command, bool_agenda_file, monkeypatch, capsys
    ):
        def unbuilt(algebra, n):
            raise AssertionError("built the power before the budget check")

        monkeypatch.setattr("aggcheck.algebra.product_algebra", unbuilt)
        monkeypatch.setattr("aggcheck.cli.product_algebra", unbuilt, raising=False)
        argv = [command, "--logic", "boolean2", "--electorate", "11"]
        if command == "verify-bijection":
            argv += ["--agenda", bool_agenda_file]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: homomorphism search of boolean2^11: 4198402 equations "
            "exceed the limit of 2000000\n"
        )

    def test_criterion_check_refuses_before_building_the_power(
        self, tmp_path, monkeypatch, capsys
    ):
        def unbuilt(algebra, n):
            raise AssertionError("built the power before the equation cap")

        path = tmp_path / "criterion.json"
        dump_json({"electorate": 11, "values": [0] * 2**11}, path)
        monkeypatch.setattr("aggcheck.algebra.product_algebra", unbuilt)
        algebra.shared_power.cache_clear()
        assert main(["classify-dictators", "--criterion", str(path)]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: homomorphism search of boolean2^11: 4198402 equations "
            "exceed the limit of 2000000\n"
        )

    @pytest.mark.parametrize("command", ["check-agenda", "verify-bijection"])
    def test_valuation_space_is_refused_before_any_vector(
        self, command, tmp_path, monkeypatch, capsys
    ):
        # x1 and an or-chain over x1..x24: 24 variable vectors and 23 steps of 2^24 entries
        def small(size, count):
            assert size**count <= 2**12, "built the valuations before the refusal"
            return variable_vectors(size, count)

        variable_vectors = algebra._variable_vectors

        chain = "x1"
        for i in range(2, 25):
            chain = f"(or {chain} x{i})"
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["x1", chain]}, path)
        monkeypatch.setattr(algebra, "_variable_vectors", small)
        argv = [command, "--logic", "boolean2", "--agenda", str(path)]
        if command == "verify-bijection":
            argv += ["--electorate", "2"]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: truth vectors: 47 vectors x 16777216 valuations = 788529152 "
            "exceed the limit of 100000000\n"
        )

    @pytest.mark.parametrize("command", ["enumerate-homs", "verify-bijection"])
    def test_power_size_refusal_is_a_budget_error(self, command, bool_agenda_file, capsys):
        argv = [command, "--logic", "boolean2", "--electorate", "14"]
        if command == "verify-bijection":
            argv += ["--agenda", bool_agenda_file]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: product carrier: 16384 elements exceed the limit of 10000\n"
        )

    def test_candidate_count_past_the_digit_limit_is_a_budget_error(self, capsys):
        # mv10^4 has 10^10000 maps into mv10; the equation cap refuses it unbuilt
        assert main(["enumerate-homs", "--logic", "mv10", "--electorate", "4"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: homomorphism search of lukasiewicz10^4: 200020002 equations "
            "exceed the limit of 2000000\n"
        )

    def test_oversized_builtin_chain_is_refused_unbuilt(self, tmp_path, capsys):
        # mv100000 would build three 10^10-entry tables; mv100 is the largest chain built
        dump_json({"formulas": ["x1"]}, tmp_path / "a.json")
        argv = ["check-agenda", "--agenda", str(tmp_path / "a.json"), "--logic"]
        assert main([*argv, "mv100000"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: builtin chain: 10000000000 table entries exceed the limit of 10000\n"
        )
        assert main([*argv, "mv101"]) == 3
        assert main([*argv, "mv100"]) == 0

    def test_power_size_past_the_digit_limit_is_a_budget_error(self, capsys):
        # 2^100000 has more decimal digits than Python converts by default
        assert main(["enumerate-homs", "--logic", "boolean2", "--electorate", "100000"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: product carrier: 2^100000 elements exceed the limit of 10000\n"
        )

    def test_search_budget_is_charged_during_the_search(self, capsys):
        # slot 0 carries bot, (and 0 0) and (or 0 0): 1 + 3 units; slot 1 the
        # four and/or equations on elements 0 and 1: 1 + 4 more, past 5
        assert main(["enumerate-homs", "--logic", "boolean2", "--electorate", "3",
                     "--budget", "5"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: homomorphism search: 9 work units exceed the limit of 5\n"
        )

    @pytest.mark.parametrize("argv, message", [
        (["check-selfext", "--logic", "boolean2", "--variables", "-2"], "--variables must be >= 0"),
        (["enumerate-homs", "--logic", "boolean2", "--electorate", "2", "--budget", "-1"],
         "--budget must be >= 0"),
        (["verify-bijection", "--logic", "boolean2", "--agenda", "unread.json",
          "--electorate", "2", "--budget", "-1"], "--budget must be >= 0"),
        (["check-selfext", "--logic", "boolean2", "--depth", "-1"], "--depth must be >= 0"),
        (["verify-bijection", "--logic", "boolean2", "--agenda", "unread.json",
          "--electorate", "2", "--depth", "-1"], "--depth must be >= 0"),
        (["enumerate-homs", "--logic", "boolean2", "--electorate", "-1"],
         "--electorate must be >= 1"),
        (["verify-bijection", "--logic", "boolean2", "--agenda", "unread.json",
          "--electorate", "0"], "--electorate must be >= 1"),
    ])
    def test_negative_count_is_an_input_error(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_zero_budget_is_a_budget(self, capsys):
        assert main(["enumerate-homs", "--logic", "boolean2", "--electorate", "2",
                     "--budget", "0"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: homomorphism search: 4 work units exceed the limit of 0\n"
        )

    def test_empty_electorate_is_an_input_error(self, capsys):
        assert main(["enumerate-homs", "--logic", "boolean2", "--electorate", "0"]) == 2
        assert capsys.readouterr().err == "input error: --electorate must be >= 1\n"

    def test_closure_budget_exit_code(self, tmp_path, capsys):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["x1", "x2", "(oplus x1 x2)"]}, path)
        assert main(["verify-bijection", "--logic", "mv3", "--agenda", str(path),
                     "--electorate", "1", "--depth", "4"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: closure layer: 12158520 formulas x 9 valuations = 109426680 "
            "exceed the limit of 100000000\n"
        )

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_frame_bound_below_one_names_the_option(self, bound, capsys):
        assert main(["check-subjunctive", "--frame-bound", bound]) == 2
        assert capsys.readouterr().err == "input error: --frame-bound must be >= 1\n"

    @pytest.fixture
    def entered(self, monkeypatch):
        """The loader and check entered during the test, spied on."""
        entered = []
        monkeypatch.setattr(cli, "load_matrix", lambda *a: entered.append("load_matrix"))
        monkeypatch.setattr(cli, "check_subjunctive_conditions",
                            lambda *a: entered.append("check_subjunctive_conditions"))
        return entered

    OUT_ARGVS = pytest.mark.parametrize("argv", [
        ["verify-bijection", "--logic", "boolean2", "--agenda", "unread.json", "--electorate", "2"],
        ["check-subjunctive", "--frame-bound", "2"],
    ])

    @OUT_ARGVS
    @pytest.mark.parametrize("where, message", [
        ("missing/report.json", "is in a directory that does not exist"),
        (".", "is a directory"),
    ])
    def test_unwritable_out_is_refused_before_the_check(self, argv, where, message, tmp_path,
                                                        entered, capsys):
        out = str(tmp_path / where)
        assert main([*argv, "--out", out]) == 2
        assert capsys.readouterr() == ("", f"input error: --out {out} {message}\n")
        assert entered == []

    @OUT_ARGVS
    def test_empty_out_is_refused_before_the_check(self, argv, entered, capsys):
        assert main([*argv, "--out", ""]) == 2
        assert capsys.readouterr() == ("", "input error: --out is empty\n")
        assert entered == []


def reference_parser():
    """Every subcommand with every option: the parser ``main``'s texts must match."""
    parser = argparse.ArgumentParser(
        prog="aggcheck",
        description=(
            "Finite-model checks for judgment aggregation over algebraic "
            "logics. --logic accepts a matrix JSON file or a builtin name "
            "(boolean2, mv3, ..., with optional -degree suffix)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    budget_help = "work units any stage may charge (default 10^8)"

    def common(p, logic=True):
        if logic:
            p.add_argument("--logic", required=True, help="matrix JSON file or builtin name")
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("check-agenda", help="pseudo-richness and contingency report")
    common(p)
    p.add_argument("--agenda", required=True)

    p = sub.add_parser("verify-bijection",
                       help="aggregators <-> homomorphisms, both directions, exhaustively")
    common(p)
    p.add_argument("--agenda", required=True)
    p.add_argument("--electorate", type=int, required=True)
    p.add_argument("--depth", type=int, default=1,
                   help="closure depth for the strong-systematicity census")
    p.add_argument("--budget", type=int, default=10**8, help=budget_help)

    p = sub.add_parser("classify-dictators",
                       help="homomorphism / ultrafilter / dictator classification of a criterion")
    common(p, logic=False)
    p.add_argument("--logic", default="boolean2", help="two-element matrix (default boolean2)")
    p.add_argument("--criterion", required=True)

    p = sub.add_parser("check-subjunctive",
                       help="consistency conditions for the boxed reading of implication")
    common(p, logic=False)
    p.add_argument("--frame-bound", type=int, default=3)

    p = sub.add_parser("check-selfext", help="bounded congruence-property search")
    common(p)
    p.add_argument("--variables", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--budget", type=int, default=10**8, help=budget_help)

    p = sub.add_parser("enumerate-homs", help="all homomorphisms B^N -> B")
    common(p)
    p.add_argument("--electorate", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**8, help=budget_help)
    return parser


# each subcommand's required options, and a count option if it has one
SUBCOMMAND_ARGS = {
    "check-agenda": (["--logic", "boolean2", "--agenda", "a.json"], None),
    "verify-bijection": (["--logic", "boolean2", "--agenda", "a.json", "--electorate", "2"],
                         "--electorate"),
    "classify-dictators": (["--criterion", "c.json"], None),
    "check-subjunctive": ([], "--frame-bound"),
    "check-selfext": (["--logic", "boolean2"], "--variables"),
    "enumerate-homs": (["--logic", "boolean2", "--electorate", "2"], "--budget"),
}


def parser_argvs():
    yield from ([], ["--help"], ["--version"], ["bogus"], ["--", "check-agenda"],
                ["-1", "check-agenda"], ["-h", "check-agenda"])
    for command, (required, count) in SUBCOMMAND_ARGS.items():
        yield from ([command, "--help"], [command], [command, "--bogus"],
                    [command, *required, "--out"], [command, *required])
        if count:
            yield [command, *required, count, "two"]


FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag, _ in options})
# every proper prefix of a flag; within one command no two flags share a
# first letter, so each abbreviation is unique there or names no flag
ABBREVIATIONS = sorted({flag[:n] for flag in [*FLAGS, "--help", "--version"]
                        for n in range(3, len(flag))})
VALUES = ["boolean2", "a.json", "", "-", "-1", "-x", "--x", "--", "7", "0", "+7", " 7 ", "1_000",
          "\u0663", "\uff17", "seven", "7.0", "9" * 5001]
WORDS = [*cli.COMMANDS, *FLAGS, *ABBREVIATIONS, "-h", "--help", "--version", "--", "bogus"]
NOISE = st.one_of(
    st.sampled_from(WORDS + VALUES),
    st.builds(lambda flag, value: f"{flag}={value}",
              st.sampled_from(FLAGS + ABBREVIATIONS), st.sampled_from(VALUES)),
)


@st.composite
def argvs(draw):
    """A command's options in any order, each kept with odds 3:1, among stray tokens."""
    head = draw(st.one_of(st.sampled_from(list(cli.COMMANDS)), st.sampled_from(WORDS)))
    own = [flag for flag, _ in cli.COMMANDS[head][2]] if head in cli.COMMANDS else FLAGS
    # half the values are plain ones, so about one line in ten reads as plain
    value = st.one_of(st.sampled_from(VALUES), st.sampled_from(["a.json", "7", "+7", "\u0663"]))
    items = [[flag, draw(value)] for flag in draw(st.permutations(own)) if draw(st.integers(0, 3))]
    own_abbreviations = [flag[:n] for flag in own for n in range(3, len(flag))]
    stray = st.one_of(NOISE.map(lambda token: [token]),
                      st.tuples(st.sampled_from(WORDS + own_abbreviations), value).map(list))
    for item in draw(st.lists(stray, max_size=2)) if draw(st.booleans()) else ():
        items.insert(draw(st.integers(0, len(items))), item)
    return [head, *(token for item in items for token in item)]


class TestParserTexts:
    @pytest.mark.parametrize("argv", parser_argvs(), ids=lambda argv: " ".join(argv) or "none")
    def test_texts_match_a_parser_with_every_option(self, argv, monkeypatch, capsys):
        # a parse that succeeds exits with its namespace, so no check runs
        monkeypatch.setenv("COLUMNS", "80")
        parse_args = argparse.ArgumentParser.parse_args

        def parsed(parser, args=None, namespace=None):
            namespace = vars(parse_args(parser, args, namespace))
            sys.exit({k: v for k, v in namespace.items() if k != "func"})

        read_plain = cli.read_plain

        def read(argv):
            args = read_plain(argv)
            if args is not None:
                sys.exit({k: v for k, v in vars(args).items() if k != "func"})

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", parsed)
        monkeypatch.setattr(cli, "read_plain", read)
        outcomes = []
        for parse in (main, reference_parser().parse_args):
            with pytest.raises(SystemExit) as exited:
                parse(list(argv))
            outcomes.append((exited.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=500, deadline=None)
    @given(argv=argvs())
    def test_a_plain_line_reads_as_argparse_reads_it(self, argv):
        args = cli.read_plain(argv)
        if args is not None:
            namespace = vars(args)
            assert namespace.pop("func") is cli.COMMANDS[argv[0]][1]
            assert namespace == vars(reference_parser().parse_args(argv))

    def test_an_abbreviation_falls_back_to_argparse(self, tmp_path, capsys):
        out, reports = tmp_path / "homs.json", []
        for flag in ("--elec", "--electorate"):
            assert main(["enumerate-homs", "--logic", "boolean2", flag, "2", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert cli.read_plain(["enumerate-homs", "--logic", "boolean2", "--elec", "2"]) is None
        assert reports[0] == reports[1]
