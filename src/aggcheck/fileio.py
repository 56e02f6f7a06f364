"""JSON file formats for signatures, algebras, matrices, agendas and
criteria.

Operation tables are stored row-major: arity 0 as a one-element list, arity
m >= 1 as one row per first argument, each row the flat table over the
remaining arguments (a flat list is read the same way). Table entries,
arities and order pairs are integer indices; designated values and criterion
values may be given as indices or labels.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from .agenda import Agenda
from .aggregation import DecisionCriterion
from .algebra import FiniteAlgebra, builtin_boolean2, builtin_mv_chain
from .semantics import DEGREE_MODE, FILTER_MODE, Matrix
from .syntax import Signature, parse_formula, print_formula

PathLike = Union[str, Path]


def signature_to_obj(sig: Signature) -> dict:
    return {"connectives": [{"name": n, "arity": a} for n, a in sig.connectives]}


def signature_from_obj(obj: dict) -> Signature:
    obj = _expect(obj, dict, "signature")
    connectives = [_expect(c, dict, "signature connective")
                   for c in _expect(obj.get("connectives"), list, "signature connectives")]
    names = [_expect(c.get("name"), str, "signature connective name") for c in connectives]
    return Signature(tuple(
        (name, _integer(c.get("arity"), f"arity of connective {name!r}"))
        for name, c in zip(names, connectives)
    ))


def _integer(value: Any, what: str) -> int:
    """An integer read from a file; anything else is an input error."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")


_KINDS = {dict: "an object", list: "a list", str: "a string"}


def _expect(value: Any, kind: type, what: str):
    """A JSON object, list or string (``kind`` dict, list or str) read from a
    file; anything else is an input error."""
    if isinstance(value, kind):
        return value
    got = _KINDS.get(type(value)) or json.dumps(value)
    raise ValueError(f"{what} must be {_KINDS[kind]}, got {got}")


def _table_to_rows(table: tuple[int, ...], arity: int, size: int) -> list:
    if arity == 0:
        return list(table)
    row = size ** (arity - 1)
    return [list(table[i * row : (i + 1) * row]) for i in range(size)]


def _table_from_rows(rows: Any, arity: int, symbol: str) -> tuple[int, ...]:
    if arity == 0 and not isinstance(rows, list):
        rows = [rows]
    if not isinstance(rows, list):
        raise ValueError(f"table of connective {symbol!r} must be a list")
    if arity and rows and isinstance(rows[0], list):  # one row per first argument
        if not all(isinstance(row, list) for row in rows):
            raise ValueError(f"table of connective {symbol!r} mixes rows and entries")
        rows = [v for row in rows for v in row]
    what = f"table entry of connective {symbol!r}"
    return tuple(_integer(v, what) for v in rows)


def algebra_to_obj(algebra: FiniteAlgebra) -> dict:
    obj = {
        "signature": signature_to_obj(algebra.signature),
        "carrier": list(algebra.carrier),
        "ops": {
            name: _table_to_rows(table, algebra.signature.arity(name), algebra.size)
            for name, table in algebra.ops
        },
    }
    if algebra.order is not None:
        obj["order"] = sorted([a, b] for a, b in algebra.order)
    if algebra.name:
        obj["name"] = algebra.name
    return obj


def algebra_from_obj(obj: dict) -> FiniteAlgebra:
    obj = _expect(obj, dict, "algebra")
    sig = signature_from_obj(obj.get("signature"))
    carrier = tuple(str(c) for c in _expect(obj.get("carrier"), list, "algebra carrier"))
    tables = _expect(obj.get("ops"), dict, "algebra ops")
    ops = tuple(
        (name, _table_from_rows(tables.get(name), arity, name))
        for name, arity in sig.connectives
    )
    order = None
    if "order" in obj:
        pairs = obj["order"]
        if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
            raise ValueError("order must be a list of [a, b] pairs")
        order = frozenset(
            (_integer(a, "order pair entry"), _integer(b, "order pair entry")) for a, b in pairs
        )
    return FiniteAlgebra(
        signature=sig,
        carrier=carrier,
        ops=ops,
        order=order,
        name=str(obj.get("name", "")),
    )


def matrix_to_obj(matrix: Matrix) -> dict:
    obj = {"algebra": algebra_to_obj(matrix.algebra)}
    if matrix.mode == FILTER_MODE:
        obj["designated"] = sorted(matrix.designated)
    else:
        obj["mode"] = DEGREE_MODE
    return obj


def matrix_from_obj(obj: dict) -> Matrix:
    algebra = algebra_from_obj(_expect(obj, dict, "matrix").get("algebra"))
    if obj.get("mode") == DEGREE_MODE:
        return Matrix(algebra, None, DEGREE_MODE)
    designated = _expect(obj.get("designated"), list, "matrix designated values")
    designated = frozenset(_element_index(algebra, d, "matrix designated value")
                           for d in designated)
    return Matrix(algebra, designated, FILTER_MODE)


def _element_index(algebra: FiniteAlgebra, value: Any, what: str) -> int:
    """A carrier element read from a file, as an integer index or a label;
    anything else is an input error."""
    if not isinstance(value, str):
        return _integer(value, what)
    if value not in algebra.carrier:
        raise ValueError(f"{what} {json.dumps(value)} is not a carrier label "
                         f"(carrier {json.dumps(list(algebra.carrier))})")
    return algebra.carrier.index(value)


def load_matrix(spec: PathLike) -> Matrix:
    """Load a matrix from a JSON file, or build a named builtin:
    ``boolean2``, ``mv3``, ... with an optional ``-degree`` suffix."""
    text = str(spec)
    name = text[: -len("-degree")] if text.endswith("-degree") else text
    degree = text.endswith("-degree")
    algebra = None
    if name == "boolean2":
        algebra = builtin_boolean2()
    elif name.startswith("mv") and name[2:].isdigit():
        algebra = builtin_mv_chain(int(name[2:]))
    if algebra is not None:
        if degree:
            return Matrix(algebra, None, DEGREE_MODE)
        return Matrix(algebra, frozenset({algebra.size - 1}), FILTER_MODE)
    with open(spec, "r", encoding="utf-8") as fh:
        return matrix_from_obj(json.load(fh))


def agenda_to_obj(agenda: Agenda) -> dict:
    return {"formulas": [print_formula(f) for f in agenda.formulas]}


def load_agenda(path: PathLike, matrix: Matrix) -> Agenda:
    with open(path, "r", encoding="utf-8") as fh:
        obj = _expect(json.load(fh), dict, "agenda")
    sig = matrix.algebra.signature
    if "signature_ref" in obj:
        ref = Path(path).parent / _expect(obj["signature_ref"], str, "agenda signature_ref")
        with open(ref, "r", encoding="utf-8") as fh:
            declared = signature_from_obj(json.load(fh))
        if declared != sig:
            raise ValueError(
                f"agenda signature_ref {ref} does not match the logic's signature"
            )
    formulas = tuple(parse_formula(_expect(text, str, "agenda formula"), sig)
                     for text in _expect(obj.get("formulas"), list, "agenda formulas"))
    return Agenda(formulas, sig, matrix, matrix.algebra)


def criterion_to_obj(criterion: DecisionCriterion) -> dict:
    return {
        "electorate": criterion.electorate,
        "values": list(criterion.values),
        "carrier": list(criterion.algebra.carrier),
    }


def load_criterion(path: PathLike, algebra: FiniteAlgebra) -> DecisionCriterion:
    """Criterion table: {"electorate": N, "values": [...]} with values in
    row-major order over voter tuples (voter 0 most significant)."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = _expect(json.load(fh), dict, "criterion")
    n = _integer(obj.get("electorate"), "criterion electorate")
    values = tuple(_element_index(algebra, v, "criterion value")
                   for v in _expect(obj.get("values"), list, "criterion values"))
    return DecisionCriterion(algebra, n, values)


def dump_json(obj: dict, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
