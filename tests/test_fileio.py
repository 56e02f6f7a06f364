import json

import pytest

from aggcheck.fileio import (
    algebra_from_obj,
    dump_json,
    load_agenda,
    load_criterion,
    load_matrix,
    matrix_from_obj,
)
from aggcheck.aggregation import majority_criterion


BOOLEAN2 = {
    "signature": {"connectives": [
        {"name": "not", "arity": 1}, {"name": "or", "arity": 2},
        {"name": "and", "arity": 2}, {"name": "bot", "arity": 0}, {"name": "top", "arity": 0},
    ]},
    "carrier": ["0", "1"],
    "ops": {"not": [1, 0], "or": [[0, 1], [1, 1]], "and": [[0, 0], [0, 1]],
            "bot": [0], "top": [1]},
    "order": [[0, 0], [0, 1], [1, 1]],
    "name": "boolean2",
}

MV_SIGNATURE = {"connectives": [
    {"name": "not", "arity": 1}, {"name": "oplus", "arity": 2}, {"name": "odot", "arity": 2},
    {"name": "impl", "arity": 2}, {"name": "0", "arity": 0}, {"name": "1", "arity": 0},
]}

MV3 = {
    "signature": MV_SIGNATURE,
    "carrier": ["0", "1/2", "1"],
    "ops": {
        "not": [2, 1, 0],
        "oplus": [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
        "odot": [[0, 0, 0], [0, 0, 1], [0, 1, 2]],
        "impl": [[2, 2, 2], [1, 2, 2], [0, 1, 2]],
        "0": [0],
        "1": [2],
    },
    "order": [[0, 0], [0, 1], [0, 2], [1, 1], [1, 2], [2, 2]],
    "name": "lukasiewicz3",
}


class TestAlgebraFormat:
    def test_spec_table_shape(self):
        # nested rows: one row per first argument, flat over the rest;
        # constants as one-element lists
        obj = {
            "signature": {
                "connectives": [{"name": "not", "arity": 1}, {"name": "or", "arity": 2}]
            },
            "carrier": ["0", "1"],
            "ops": {"not": [[1], [0]], "or": [[0, 1], [1, 1]]},
        }
        algebra = algebra_from_obj(obj)
        assert algebra.tables["not"] == (1, 0)
        assert algebra.tables["or"] == (0, 1, 1, 1)


class TestMatrixFormat:
    def test_filter_file(self, tmp_path, classical):
        path = tmp_path / "logic.json"
        dump_json({"algebra": BOOLEAN2, "designated": [1]}, path)
        assert load_matrix(path) == classical

    def test_degree_file(self, tmp_path, luk3_degree):
        path = tmp_path / "logic.json"
        dump_json({"algebra": MV3, "mode": "degree"}, path)
        assert load_matrix(path) == luk3_degree

    def test_designated_by_label(self):
        matrix = matrix_from_obj({"algebra": MV3, "designated": ["1"]})
        assert matrix.designated == frozenset({2})

    def test_builtin_names(self):
        assert load_matrix("boolean2").algebra.size == 2
        assert load_matrix("mv4").algebra.size == 4
        assert load_matrix("mv3-degree").designated is None
        assert load_matrix("mv3").designated == frozenset({2})


class TestAgendaFormat:
    def test_load(self, tmp_path, bool_agenda, classical):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["x1", "x2", "(or x1 x2)", "(not x1)"]}, path)
        assert load_agenda(path, classical) == bool_agenda

    def test_signature_ref_mismatch(self, tmp_path, classical):
        dump_json(MV_SIGNATURE, tmp_path / "sig.json")
        path = tmp_path / "agenda.json"
        dump_json({"signature_ref": "sig.json", "formulas": ["x1"]}, path)
        with pytest.raises(ValueError, match="signature_ref"):
            load_agenda(path, classical)


class TestCriterionFormat:
    def test_load(self, tmp_path, boolean2):
        path = tmp_path / "crit.json"
        dump_json({"electorate": 3, "values": [0, 0, 0, 1, 0, 1, 1, 1]}, path)
        assert load_criterion(path, boolean2).values == majority_criterion(boolean2, 3).values

    def test_labels_accepted(self, tmp_path, boolean2):
        path = tmp_path / "crit.json"
        dump_json({"electorate": 1, "values": ["0", "1"]}, path)
        assert load_criterion(path, boolean2).values == (0, 1)


class TestDumpDeterminism:
    def test_sorted_keys_and_newline(self, tmp_path):
        path = tmp_path / "r.json"
        dump_json({"b": 1, "a": [2, 1]}, path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": [2, 1]}
