"""Readers for the JSON file formats of matrices, agendas and criteria, and
the writer of the JSON reports.

Operation tables are stored row-major: arity 0 as a one-element list, arity
m >= 1 as one row per first argument, each row the flat table over the
remaining arguments (a flat list is read the same way). Table entries,
arities and order pairs are integer indices; designated values and criterion
values may be given as indices or labels; an algebra's optional name is a
string. Every value read is checked for its shape, so a malformed file is an
input error that names what was wrong.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal
from pathlib import Path
from typing import Any, Union

from .agenda import Agenda
from .algebra import DecisionCriterion, FiniteAlgebra, builtin_boolean2, builtin_mv_chain
from .errors import FormulaSyntaxError
from .semantics import Matrix
from .syntax import Signature, parse_formula

PathLike = Union[str, Path]

_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          (str, int): "a string or an integer"}


def _expect(value: Any, kind: Union[type, tuple[type, type]], what: str):
    """A JSON object, list, string or integer (``kind`` dict, list, str, int or
    (str, int); a boolean is never an integer) read from a file; anything else
    is an input error naming a wrong container by its kind, an integer literal
    past the interpreter's digit limit by its digits, and any other value as JSON."""
    if isinstance(value, kind) and not isinstance(value, bool):
        return value
    if isinstance(value, Decimal):  # an integer literal too long to convert (see _integer)
        limit = f" of at most {sys.get_int_max_str_digits()} digits" if kind is int else ""
        raise ValueError(f"{what} must be {_KINDS[kind]}{limit}, got {value.adjusted() + 1} digits")
    got = _KINDS[type(value)] if type(value) in (dict, list) else json.dumps(value)
    raise ValueError(f"{what} must be {_KINDS[kind]}, got {got}")


def _integer(text: str) -> Union[int, Decimal]:
    """An integer literal; one too long for ``int`` is a ``Decimal``."""
    limit = sys.get_int_max_str_digits()  # int() refuses longer literals; 0: no limit
    return Decimal(text) if 0 < limit < len(text.lstrip("-")) else int(text)


def _read(path: PathLike) -> Any:
    """The JSON value in a file, its integer literals read by ``_integer``.
    A file that is not UTF-8 JSON is an input error that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_integer)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def signature_from_obj(obj: dict) -> Signature:
    obj = _expect(obj, dict, "signature")
    connectives = [_expect(c, dict, "signature connective")
                   for c in _expect(obj.get("connectives"), list, "signature connectives")]
    names = [_expect(c.get("name"), str, "signature connective name") for c in connectives]
    return Signature(tuple(
        (name, _expect(c.get("arity"), int, f"arity of connective {name!r}"))
        for name, c in zip(names, connectives)
    ))


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
    return tuple(_expect(v, int, what) for v in rows)


def algebra_from_obj(obj: dict) -> FiniteAlgebra:
    obj = _expect(obj, dict, "algebra")
    sig = signature_from_obj(obj.get("signature"))
    carrier = tuple(str(c if isinstance(c, Decimal) else _expect(c, (str, int), "carrier label"))
                    for c in _expect(obj.get("carrier"), list, "algebra carrier"))
    tables = _expect(obj.get("ops"), dict, "algebra ops")
    ops = tuple(
        (name, _table_from_rows(tables.get(name), arity, name))
        for name, arity in sig.connectives
    )
    # a table for a connective outside the signature goes unread: FiniteAlgebra refuses its name
    ops += tuple((name, ()) for name in tables if name not in sig.arities)
    order = None
    if "order" in obj:
        pairs = obj["order"]
        if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
            raise ValueError("order must be a list of [a, b] pairs")
        order = frozenset(
            (_expect(a, int, "order pair entry"), _expect(b, int, "order pair entry"))
            for a, b in pairs
        )
    return FiniteAlgebra(
        signature=sig,
        carrier=carrier,
        ops=ops,
        order=order,
        name=_expect(obj.get("name", ""), str, "algebra name"),
    )


def matrix_from_obj(obj: dict) -> Matrix:
    algebra = algebra_from_obj(_expect(obj, dict, "matrix").get("algebra"))
    if "mode" in obj:
        if _expect(obj["mode"], str, "matrix mode") != "degree":
            raise ValueError(f'matrix mode must be "degree", got {json.dumps(obj["mode"])}')
        if "designated" in obj:
            raise ValueError("matrix designated values must be absent in degree mode")
        return Matrix(algebra)
    designated = frozenset(_element_index(algebra, d, "matrix designated value")
                           for d in _expect(obj.get("designated"), list, "matrix designated values"))
    return Matrix(algebra, designated)


def _element_index(algebra: FiniteAlgebra, value: Any, what: str) -> int:
    """A carrier element read from a file, as an integer index or a label;
    anything else is an input error."""
    if not isinstance(value, str):
        return _expect(value, int, what)
    if value not in algebra.carrier:
        raise ValueError(f"{what} {json.dumps(value)} is not a carrier label "
                         f"(carrier {json.dumps(list(algebra.carrier))})")
    return algebra.carrier.index(value)


def load_matrix(spec: PathLike) -> Matrix:
    """Load a matrix from a JSON file, or build a named builtin:
    ``boolean2``, ``mv3``, ... (ASCII digits only) with an optional ``-degree`` suffix."""
    text = str(spec)
    name = text[: -len("-degree")] if text.endswith("-degree") else text
    degree = text.endswith("-degree")
    algebra = None
    if name == "boolean2":
        algebra = builtin_boolean2()
    elif name.startswith("mv") and name[2:].isascii() and name[2:].isdigit():
        algebra = builtin_mv_chain(_expect(_integer(name[2:]), int, "--logic chain size"))
    if algebra is not None:
        return Matrix(algebra) if degree else Matrix(algebra, frozenset({algebra.size - 1}))
    return matrix_from_obj(_read(spec))


def load_agenda(path: PathLike, matrix: Matrix) -> Agenda:
    obj = _expect(_read(path), dict, "agenda")
    sig = matrix.algebra.signature
    if "signature_ref" in obj:
        ref = Path(path).parent / _expect(obj["signature_ref"], str, "agenda signature_ref")
        if signature_from_obj(_read(ref)) != sig:
            raise ValueError(f"agenda signature_ref {ref} does not match the logic's signature")
    formulas = []
    for text in _expect(obj.get("formulas"), list, "agenda formulas"):
        try:
            formulas.append(parse_formula(_expect(text, str, "agenda formula"), sig))
        except FormulaSyntaxError as exc:  # name the formula, as _element_index names a value
            quoted = json.dumps(text)  # a long one by its start and length, on one short line
            if len(quoted) > 80:
                quoted = f"{quoted[:60]}... ({len(text)} characters)"
            raise ValueError(f"agenda formula {quoted}: {exc}") from exc
    return Agenda(tuple(formulas), matrix, matrix.algebra)


def load_criterion(path: PathLike, algebra: FiniteAlgebra) -> DecisionCriterion:
    """Criterion table: {"electorate": N, "values": [...]} with values in
    row-major order over voter tuples (voter 0 most significant)."""
    obj = _expect(_read(path), dict, "criterion")
    n = _expect(obj.get("electorate"), int, "criterion electorate")
    values = tuple(_element_index(algebra, v, "criterion value")
                   for v in _expect(obj.get("values"), list, "criterion values"))
    return DecisionCriterion(algebra, n, values)


def dump_json(obj: dict, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:  # one write, not one per chunk
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
