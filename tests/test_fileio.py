import json

import pytest

from aggcheck.fileio import (
    agenda_to_obj,
    algebra_from_obj,
    algebra_to_obj,
    criterion_to_obj,
    dump_json,
    load_agenda,
    load_criterion,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
)
from aggcheck.aggregation import majority_criterion
from aggcheck.algebra import builtin_boolean2, builtin_mv_chain


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

    def test_roundtrip_boolean(self):
        b = builtin_boolean2()
        assert algebra_from_obj(algebra_to_obj(b)) == b

    def test_roundtrip_mv(self):
        l4 = builtin_mv_chain(4)
        assert algebra_from_obj(algebra_to_obj(l4)) == l4


class TestMatrixFormat:
    def test_filter_roundtrip(self, classical):
        assert matrix_from_obj(matrix_to_obj(classical)) == classical

    def test_degree_roundtrip(self, luk3_degree):
        assert matrix_from_obj(matrix_to_obj(luk3_degree)) == luk3_degree

    def test_designated_by_label(self):
        obj = matrix_to_obj(
            load_matrix("mv3")
        )
        obj["designated"] = ["1"]
        matrix = matrix_from_obj(obj)
        assert matrix.designated == frozenset({2})

    def test_builtin_names(self):
        assert load_matrix("boolean2").algebra.size == 2
        assert load_matrix("mv4").algebra.size == 4
        assert load_matrix("mv3-degree").mode == "degree"
        assert load_matrix("mv3").designated == frozenset({2})

    def test_file_loading(self, tmp_path, classical):
        path = tmp_path / "logic.json"
        dump_json(matrix_to_obj(classical), path)
        assert load_matrix(path) == classical


class TestAgendaFormat:
    def test_load(self, tmp_path, classical):
        path = tmp_path / "agenda.json"
        dump_json({"formulas": ["x1", "(or x1 x2)"]}, path)
        agenda = load_agenda(path, classical)
        assert len(agenda) == 2

    def test_roundtrip(self, tmp_path, bool_agenda, classical):
        path = tmp_path / "agenda.json"
        dump_json(agenda_to_obj(bool_agenda), path)
        assert load_agenda(path, classical) == bool_agenda

    def test_signature_ref_mismatch(self, tmp_path, classical, luk3_filter):
        from aggcheck.fileio import signature_to_obj

        sig_path = tmp_path / "sig.json"
        dump_json(signature_to_obj(luk3_filter.algebra.signature), sig_path)
        path = tmp_path / "agenda.json"
        dump_json({"signature_ref": "sig.json", "formulas": ["x1"]}, path)
        with pytest.raises(ValueError, match="signature_ref"):
            load_agenda(path, classical)


class TestCriterionFormat:
    def test_roundtrip(self, tmp_path, boolean2):
        crit = majority_criterion(boolean2, 3)
        path = tmp_path / "crit.json"
        dump_json(criterion_to_obj(crit), path)
        assert load_criterion(path, boolean2).values == crit.values

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
