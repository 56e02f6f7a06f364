"""Signatures, formulas, s-expression parsing/printing, substitution, closure.

Formulas are free terms over a signature of connectives-with-arities.
Equality is syntactic tree equality; any semantic identification happens in
the semantics layer, never here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Union

from .errors import FormulaSyntaxError

VARNAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_TOKEN_RE = re.compile(r"\(|\)|[^()\s]+")

# Deeper nesting is rejected at parse time: printing, hashing and evaluating
# formulas recurse once per level, far below Python's recursion limit here.
MAX_FORMULA_DEPTH = 200


@dataclass(frozen=True)
class Signature:
    """A finite set of connective symbols with fixed arities.

    Arity-0 connectives are the constants of the language.
    """

    connectives: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.connectives:
            if name in seen:
                raise ValueError(f"duplicate connective symbol {name!r}")
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            seen.add(name)

    @cached_property
    def arities(self) -> dict[str, int]:
        return dict(self.connectives)

    @cached_property
    def max_arity(self) -> int:
        return max((a for _, a in self.connectives), default=0)

    @cached_property
    def constants(self) -> tuple[str, ...]:
        return tuple(name for name, a in self.connectives if a == 0)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.arities

    def arity(self, symbol: str) -> int:
        try:
            return self.arities[symbol]
        except KeyError:
            raise KeyError(f"unknown connective {symbol!r}") from None


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple["Formula", ...] = ()


Formula = Union[Var, App]

# A substitution is a plain mapping from variable names to formulas;
# unmapped variables stay fixed.
Substitution = Mapping[str, Formula]


def variables_of(*formulas: Formula) -> tuple[str, ...]:
    """All variable names occurring in the formulas, sorted."""
    names: set[str] = set()
    stack = list(formulas)
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            names.add(node.name)
        else:
            stack.extend(node.args)
    return tuple(sorted(names))


def validate_formula(formula: Formula, sig: Signature) -> None:
    """Check that every applied symbol exists in sig with matching arity."""
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            if not VARNAME_RE.fullmatch(node.name):
                raise ValueError(f"invalid variable name {node.name!r}")
            if node.name in sig:
                raise ValueError(
                    f"variable name {node.name!r} collides with a connective"
                )
        else:
            if node.symbol not in sig:
                raise ValueError(f"unknown connective {node.symbol!r}")
            if len(node.args) != sig.arity(node.symbol):
                raise ValueError(
                    f"connective {node.symbol!r} expects "
                    f"{sig.arity(node.symbol)} arguments, got {len(node.args)}"
                )
            stack.extend(node.args)


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse prefix s-expression syntax: ``VARNAME | "(" SYMBOL formula* ")"``.

    A bare token naming an arity-0 connective denotes that constant;
    any other bare token must be a variable name.
    """
    tokens = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    pos = 0

    def parse_node(level: int) -> Formula:
        nonlocal pos
        if pos >= len(tokens):
            raise FormulaSyntaxError("unexpected end of input", len(text))
        token, at = tokens[pos]
        pos += 1
        if token == ")":
            raise FormulaSyntaxError("unexpected ')'", at)
        if token == "(":
            if level == MAX_FORMULA_DEPTH:
                raise FormulaSyntaxError(
                    f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", at
                )
            if pos >= len(tokens):
                raise FormulaSyntaxError("unexpected end of input", len(text))
            head, head_at = tokens[pos]
            pos += 1
            if head in ("(", ")"):
                raise FormulaSyntaxError("expected connective symbol", head_at)
            if head not in sig:
                raise FormulaSyntaxError(f"unknown symbol {head!r}", head_at)
            args = []
            while True:
                if pos >= len(tokens):
                    raise FormulaSyntaxError("missing ')'", len(text))
                if tokens[pos][0] == ")":
                    pos += 1
                    break
                args.append(parse_node(level + 1))
            if len(args) != sig.arity(head):
                raise FormulaSyntaxError(
                    f"arity mismatch: {head!r} expects {sig.arity(head)} "
                    f"arguments, got {len(args)}",
                    at,
                )
            return App(head, tuple(args))
        # bare token
        if token in sig:
            if sig.arity(token) == 0:
                return App(token, ())
            raise FormulaSyntaxError(
                f"connective {token!r} used without arguments", at
            )
        if not VARNAME_RE.fullmatch(token):
            raise FormulaSyntaxError(f"invalid variable name {token!r}", at)
        return Var(token)

    result = parse_node(0)
    if pos != len(tokens):
        raise FormulaSyntaxError("trailing input after formula", tokens[pos][1])
    return result


def print_formula(formula: Formula) -> str:
    """Inverse of parse_formula up to whitespace; constants print bare."""
    if isinstance(formula, Var):
        return formula.name
    if not formula.args:
        return formula.symbol
    inner = " ".join(print_formula(a) for a in formula.args)
    return f"({formula.symbol} {inner})"


def apply_substitution(formula: Formula, subst: Substitution) -> Formula:
    """Homomorphic replacement of variables by formulas."""
    if isinstance(formula, Var):
        return subst.get(formula.name, formula)
    return App(formula.symbol, tuple(apply_substitution(a, subst) for a in formula.args))


def bounded_closure(
    formulas: Iterable[Formula], sig: Signature, depth: int
) -> set[Formula]:
    """Close a formula set under the connectives, up to a nesting budget.

    Depth 0 is the seed set plus all constants of the signature; each further
    level applies every connective to every argument tuple from the previous
    level. Monotone in depth, and finite for finite seeds.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    current: set[Formula] = set(formulas)
    current.update(App(c, ()) for c in sig.constants)
    for _ in range(depth):
        layer = sorted(current, key=print_formula)
        new: set[Formula] = set()
        for symbol, arity in sig.connectives:
            if arity == 0:
                continue
            stack = [()]
            for _slot in range(arity):
                stack = [t + (f,) for t in stack for f in layer]
            new.update(App(symbol, args) for args in stack)
        current.update(new)
    return current


def formula_sort_key(formula: Formula) -> str:
    """Deterministic ordering key used everywhere formulas are enumerated."""
    return print_formula(formula)
