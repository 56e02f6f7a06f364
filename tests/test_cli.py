import json

import pytest

from aggcheck import aggregation, algebra, cli
from aggcheck.aggregation import DecisionCriterion
from aggcheck.cli import main
from aggcheck.fileio import dump_json
from aggcheck.syntax import MAX_FORMULA_DEPTH


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
            "budget exceeded: closure layer of 78 formulas x 4 valuations exceeds budget 256\n"
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
        aggregation._voter_ranks.cache_clear()
        assert main(["verify-bijection", "--logic", "boolean2", "--agenda", bool_agenda_file,
                     "--electorate", "4", "--out", str(out)]) == 0
        homs = json.loads(out.read_text())["homs"]
        info = aggregation._voter_ranks.cache_info()
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

    def test_closure_is_refused_at_the_given_budget(self, capsys):
        # passes at the default budget, after some 30 s
        assert main(["check-selfext", "--logic", "mv3-degree", "--variables", "2",
                     "--depth", "4", "--budget", "10000000"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: closure layer of 5722864 formulas x 9 valuations "
            "exceeds budget 10000000\n"
        )

    def test_seed_layer_is_charged(self, capsys):
        # 16 variables and 2 constants, 2^16 valuations each
        assert main(["check-selfext", "--logic", "boolean2", "--variables", "16",
                     "--depth", "0", "--budget", "1000"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: closure layer of 18 formulas x 65536 valuations "
            "exceeds budget 1000\n"
        )

    def test_seed_layer_is_refused_before_any_vector(self, monkeypatch, capsys):
        def forbidden(*args):
            raise AssertionError("a seed vector was computed")

        monkeypatch.setattr(algebra, "_variable_vectors", forbidden)
        assert main(["check-selfext", "--logic", "boolean2", "--variables", "100000",
                     "--depth", "0"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: closure layer of 100002 formulas x 2^100000 valuations "
            "exceeds budget 100000000\n"
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
                 "table entry of connective 'maj' must be an integer, got [0, 0]",
                 id="nested-ternary-rows"),
    pytest.param(lambda a: a["ops"].update(maj=[[0, 0, 0, 1], 0, 1, 1, 1]),
                 "table of connective 'maj' mixes rows and entries", id="mixed-rows"),
    pytest.param(lambda a: a["ops"].update(maj=None),
                 "table of connective 'maj' must be a list", id="null-table"),
    pytest.param(lambda a: a["signature"]["connectives"][0].update(arity=None),
                 "arity of connective 'not' must be an integer, got null", id="null-arity"),
    pytest.param(lambda a: a["signature"]["connectives"][0].pop("arity"),
                 "arity of connective 'not' must be an integer, got null", id="missing-arity"),
    pytest.param(lambda a: a["signature"]["connectives"][0].update(name=5),
                 "signature connective name must be a string, got 5", id="name-not-a-string"),
    pytest.param(lambda a: a["signature"]["connectives"][0].pop("name"),
                 "signature connective name must be a string, got null", id="missing-name"),
    pytest.param(lambda a: a["order"].append([None, 1]),
                 "order pair entry must be an integer, got null", id="null-order-entry"),
    pytest.param(lambda a: a["order"].append(5),
                 "order must be a list of [a, b] pairs",
                 id="order-entry-not-a-pair"),
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
    pytest.param(replaced("algebra", "ops", value=[[1, 0], [0], [0, 0, 0, 1]]),
                 "algebra ops must be an object, got a list", id="ops-as-a-list"),
    pytest.param(replaced("designated", value=None),
                 "matrix designated values must be a list, got null", id="null-designated"),
    pytest.param(replaced("designated", value=[True]),
                 "matrix designated value must be an integer, got true", id="designated-true"),
    pytest.param(replaced("designated", value=["2"]),
                 'matrix designated value "2" is not a carrier label (carrier ["0", "1"])',
                 id="designated-unknown-label"),
]

MISSHAPEN_INPUTS = [
    pytest.param("--agenda", [{"formulas": ["x1"]}], "agenda must be an object, got a list",
                 id="agenda-list"),
    pytest.param("--agenda", {"formulas": None}, "agenda formulas must be a list, got null",
                 id="null-formulas"),
    pytest.param("--agenda", {"formulas": ["x1", 5]}, "agenda formula must be a string, got 5",
                 id="formula-not-a-string"),
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


class TestErrorPaths:
    def test_missing_file(self):
        assert main(["check-agenda", "--logic", "boolean2",
                     "--agenda", "/nonexistent.json"]) == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check-agenda", "--logic", "boolean2",
                     "--agenda", str(path)]) == 2

    def test_bad_formula(self, tmp_path):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["(xor x1 x2)"]}, path)
        assert main(["check-agenda", "--logic", "boolean2",
                     "--agenda", str(path)]) == 2

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

    @pytest.mark.parametrize("command", ["enumerate-homs", "verify-bijection"])
    def test_candidate_budget_refuses_before_building_the_power(
        self, command, bool_agenda_file, monkeypatch, capsys
    ):
        def unbuilt(algebra, n):
            raise AssertionError("built the power before the budget check")

        monkeypatch.setattr("aggcheck.algebra.product_algebra", unbuilt)
        monkeypatch.setattr("aggcheck.cli.product_algebra", unbuilt, raising=False)
        argv = [command, "--logic", "boolean2", "--electorate", "10"]
        if command == "verify-bijection":
            argv += ["--agenda", bool_agenda_file]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: homomorphism search of boolean2^10 would read 2098178 "
            "equations, over the limit of 2000000\n"
        )

    @pytest.mark.parametrize("command", ["enumerate-homs", "verify-bijection"])
    def test_power_size_refusal_is_a_budget_error(self, command, bool_agenda_file, capsys):
        argv = [command, "--logic", "boolean2", "--electorate", "14"]
        if command == "verify-bijection":
            argv += ["--agenda", bool_agenda_file]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: product carrier would have 16384 elements, "
            "over the limit of 10000\n"
        )

    def test_candidate_count_past_the_digit_limit_is_a_budget_error(self, capsys):
        # mv10^4 has 10^10000 maps into mv10; the equation cap refuses it unbuilt
        assert main(["enumerate-homs", "--logic", "mv10", "--electorate", "4"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: homomorphism search of lukasiewicz10^4 would read "
            "300010002 equations, over the limit of 2000000\n"
        )

    def test_power_size_past_the_digit_limit_is_a_budget_error(self, capsys):
        # 2^100000 has more decimal digits than Python converts by default
        assert main(["enumerate-homs", "--logic", "boolean2", "--electorate", "100000"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: product carrier would have 2^100000 elements, "
            "over the limit of 10000\n"
        )

    def test_search_budget_is_charged_during_the_search(self, capsys):
        # slot 0 carries bot, (and 0 0) and (or 0 0): 1 + 3 units; slot 1 the
        # six and/or equations on elements 0 and 1: 1 + 6 more, past 5
        assert main(["enumerate-homs", "--logic", "boolean2", "--electorate", "3",
                     "--budget", "5"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: homomorphism search charged 11 work units, over budget 5\n"
        )

    @pytest.mark.parametrize("argv, flag", [
        (["check-selfext", "--logic", "boolean2", "--variables", "-2"], "--variables"),
        (["enumerate-homs", "--logic", "boolean2", "--electorate", "2", "--budget", "-1"],
         "--budget"),
        (["verify-bijection", "--logic", "boolean2", "--agenda", "unread.json",
          "--electorate", "2", "--budget", "-1"], "--budget"),
    ])
    def test_negative_count_is_an_input_error(self, argv, flag, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"input error: {flag} must be >= 0\n"

    def test_zero_budget_is_a_budget(self, capsys):
        assert main(["enumerate-homs", "--logic", "boolean2", "--electorate", "2",
                     "--budget", "0"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: homomorphism search charged 4 work units, over budget 0\n"
        )

    def test_empty_electorate_is_an_input_error(self, capsys):
        assert main(["enumerate-homs", "--logic", "boolean2", "--electorate", "0"]) == 2
        assert capsys.readouterr().err == "input error: power must be >= 1\n"

    def test_closure_budget_exit_code(self, tmp_path, capsys):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["x1", "x2", "(oplus x1 x2)"]}, path)
        assert main(["verify-bijection", "--logic", "mv3", "--agenda", str(path),
                     "--electorate", "1", "--depth", "4"]) == 3
        assert capsys.readouterr().err == (
            "budget exceeded: closure layer of 12158520 formulas x 9 valuations "
            "exceeds budget 100000000\n"
        )

    def test_frame_bound_budget_exit_code(self, capsys):
        assert main(["check-subjunctive", "--frame-bound", "6"]) == 3
        assert "1073741824 reflexive frames" in capsys.readouterr().err
