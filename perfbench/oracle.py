"""Known answers for the benchmark's checks, derived from the theory.

Nothing here imports aggcheck or reads one of its reports as a reference:
every expected table is built from the documented encodings (product
element i is the row-major rank of its coordinate tuple, first coordinate
most significant), and a selfextensionality counterexample is re-checked
with the small Łukasiewicz evaluator below.

* B^N -> B and L^N -> L for a finite Łukasiewicz chain L: a homomorphism
  from a finite product of simple algebras into a simple one factors
  through one coordinate, and the only endomorphism of a finite chain is
  the identity, so the homomorphisms are exactly the N projections.
* D^N -> D for the four-element Boolean lattice D = 2 x 2: bounded-lattice
  homomorphisms D^N -> 2 pick one of the 2N bits of the argument, and a
  map into D is a pair of maps into 2, so there are exactly (2N)^2 = 4N^2.
* A criterion is a dictatorship iff it is a projection; majority and
  constants are not homomorphisms, and only projections have an
  ultrafilter (hence filter) of decisive coalitions.
"""

from __future__ import annotations

import re
from itertools import product

# Carrier of the generated diamond matrix: element e has bit 0 = "a" and
# bit 1 = "b", so meet and join are bitwise and/or.
DIAMOND_CARRIER = ("0", "a", "b", "1")

RC_PASS, RC_FAILED, RC_BUDGET = 0, 1, 3


def coordinates(size: int, n: int):
    """Product elements in carrier order: row-major, coordinate 0 first."""
    return list(product(range(size), repeat=n))


def projection_tables(size: int, n: int) -> list[list[int]]:
    return sorted([c[voter] for c in coordinates(size, n)] for voter in range(n))


def diamond_tables(n: int) -> list[list[int]]:
    bit_maps = [(voter, bit) for voter in range(n) for bit in (0, 1)]
    elements = coordinates(len(DIAMOND_CARRIER), n)
    return sorted(
        [(e[va] >> ba & 1) | (e[vb] >> bb & 1) << 1 for e in elements]
        for (va, ba), (vb, bb) in product(bit_maps, repeat=2)
    )


def expect_bijection(size: int, n: int) -> dict:
    return {
        "rc": RC_PASS,
        "fields": {
            "pass": True,
            "homs": n,
            "aggregators": n,
            "counts_equal": True,
            "same_tables": True,
            "roundtrips": "pass",
            "hom_tables": projection_tables(size, n),
        },
    }


def expect_homs(tables: list[list[int]]) -> dict:
    return {"rc": RC_PASS, "fields": {"count": len(tables), "tables": tables}}


def expect_dictators(dictator) -> dict:
    is_projection = dictator is not None
    return {
        "rc": RC_PASS,
        "fields": {
            "pass": True,
            "homomorphism": is_projection,
            "ultrafilter": is_projection,
            "filter": is_projection,
            "dictator": dictator,
        },
    }


def expect_selfext(holds: bool, chain: int = 0) -> dict:
    """``chain`` > 0 names the Łukasiewicz chain (designated top) on which a
    reported counterexample is re-checked."""
    expect = {
        "rc": RC_PASS if holds else RC_FAILED,
        "fields": {"selfextensional": holds, "pass": holds},
    }
    if not holds:
        expect["counterexample_chain"] = chain
    return expect


def expect_subjunctive() -> dict:
    return {
        "rc": RC_PASS,
        "fields": {
            "pass": True,
            "a": "pass",
            "b": "pass",
            "material_b": "fail",
            "bottom_certified": True,
            "insufficient_bound": False,
        },
    }


def expect_agenda(variables) -> dict:
    """Each agenda variable is its own pseudo-richness witness; no compound
    formula of these agendas is interderivable with a variable."""
    return {
        "rc": RC_PASS,
        "fields": {
            "pass": True,
            "pseudo_rich": len(variables),
            "pseudo_rich_witnesses": sorted([v, v] for v in variables),
        },
    }


# Fields whose order carries no meaning; compared as sorted lists.
UNORDERED = {"tables", "hom_tables", "pseudo_rich_witnesses"}


def verify(expect: dict, rc: int, report) -> list[str]:
    """Problems with one check's outcome; empty when the verdict is right.
    Only verdict fields are compared, never the report bytes."""
    if rc != expect["rc"]:
        return [f"exit code {rc}, expected {expect['rc']}"]
    if report is None:
        return ["no report written"]
    problems = []
    for key, want in expect["fields"].items():
        got = report.get(key)
        if key in UNORDERED and isinstance(got, list):
            got = sorted(got)
        if got != want:
            problems.append(f"{key}: got {_short(got)}, expected {_short(want)}")
    chain = expect.get("counterexample_chain")
    if chain:
        problems += check_counterexample(report.get("witness"), chain)
    return problems


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


# ---------------------------------------------------------------------------
# Independent re-check of a congruence counterexample on a Łukasiewicz chain
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^()\s]+")


def parse(text: str):
    """Prefix s-expression -> nested tuples (symbol, *args) or a name."""
    tokens = _TOKEN.findall(text)
    pos = 0

    def node():
        nonlocal pos
        token = tokens[pos]
        pos += 1
        if token != "(":
            return token
        head = tokens[pos]
        pos += 1
        args = []
        while tokens[pos] != ")":
            args.append(node())
        pos += 1
        return (head, *args)

    tree = node()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return tree


def lukasiewicz_value(tree, valuation: dict, k: int) -> int:
    """Value of a formula on the chain {0, ..., k-1} (top = k-1)."""
    top = k - 1
    if isinstance(tree, str):
        return {"0": 0, "1": top}[tree] if tree in ("0", "1") else valuation[tree]
    symbol, *args = tree
    v = [lukasiewicz_value(a, valuation, k) for a in args]
    ops = {
        "0": lambda: 0,
        "1": lambda: top,
        "not": lambda: top - v[0],
        "oplus": lambda: min(top, v[0] + v[1]),
        "odot": lambda: max(0, v[0] + v[1] - top),
        "impl": lambda: min(top, top - v[0] + v[1]),
    }
    return ops[symbol]()


def _names(tree) -> set:
    if isinstance(tree, str):
        return set() if tree in ("0", "1") else {tree}
    return set().union(*map(_names, tree[1:]))


def interderivable(left: str, right: str, k: int) -> bool:
    """Same designated (= top) set under every valuation."""
    a, b = parse(left), parse(right)
    names = sorted(_names(a) | _names(b))
    for values in product(range(k), repeat=len(names)):
        valuation = dict(zip(names, values))
        if (lukasiewicz_value(a, valuation, k) == k - 1) != (
            lukasiewicz_value(b, valuation, k) == k - 1
        ):
            return False
    return True


def check_counterexample(witness, k: int) -> list[str]:
    if not witness:
        return ["no counterexample reported"]
    left, right = witness.get("left", []), witness.get("right", [])
    if len(left) != len(right) or not left:
        return [f"malformed counterexample {witness!r}"]
    if not all(interderivable(l, r, k) for l, r in zip(left, right)):
        return ["counterexample arguments are not interderivable"]
    if interderivable(witness["left_result"], witness["right_result"], k):
        return ["counterexample results are interderivable"]
    return []
