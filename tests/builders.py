"""Builders only the tests use: a lattice from a poset, profiles with prescribed
values, and a profile's values at one formula."""

from typing import Iterable, Sequence

from aggcheck.agenda import Agenda
from aggcheck.aggregation import Profile, _attitudes_with_values
from aggcheck.algebra import FiniteAlgebra
from aggcheck.syntax import Formula, Signature

LATTICE_SIGNATURE = Signature((("and", 2), ("or", 2), ("bot", 0), ("top", 0)))


def builtin_distributive_lattice(
    labels: Sequence[str], leq_pairs: Iterable[tuple[int, int]]
) -> FiniteAlgebra:
    """A bounded distributive lattice from a poset presentation.

    ``leq_pairs`` may be any generating relation; its reflexive-transitive
    closure must be a partial order in which every pair has a meet and a
    join, meets distribute over joins, and a least and greatest element
    exist (exposed as the constants bot/top).
    """
    n = len(labels)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in leq_pairs:
        leq[a][b] = True
    for m in range(n):  # transitive closure
        for a in range(n):
            if leq[a][m]:
                for b in range(n):
                    if leq[m][b]:
                        leq[a][b] = True
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b] and leq[b][a]:
                raise ValueError("order not antisymmetric")

    def bound(a: int, b: int, below: list[list[bool]], name: str) -> int:
        """The greatest common lower bound of a and b under ``below``."""
        common = [c for c in range(n) if below[c][a] and below[c][b]]
        best = [c for c in common if all(below[d][c] for d in common)]
        if len(best) != 1:
            raise ValueError(f"no {name} for {labels[a]!r}, {labels[b]!r}")
        return best[0]

    geq = [list(column) for column in zip(*leq)]
    meets = tuple(bound(a, b, leq, "meet") for a in range(n) for b in range(n))
    joins = tuple(bound(a, b, geq, "join") for a in range(n) for b in range(n))
    bottoms = [c for c in range(n) if all(leq[c][d] for d in range(n))]
    tops = [c for c in range(n) if all(leq[d][c] for d in range(n))]
    if len(bottoms) != 1 or len(tops) != 1:
        raise ValueError("lattice must be bounded (unique bot and top)")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = meets[a * n + joins[b * n + c]]
                rhs = joins[meets[a * n + b] * n + meets[a * n + c]]
                if lhs != rhs:
                    raise ValueError(
                        "lattice not distributive: fails at "
                        f"({labels[a]}, {labels[b]}, {labels[c]})"
                    )
    return FiniteAlgebra(
        signature=LATTICE_SIGNATURE,
        carrier=tuple(labels),
        ops=(
            ("and", meets),
            ("or", joins),
            ("bot", (bottoms[0],)),
            ("top", (tops[0],)),
        ),
        order=frozenset((a, b) for a in range(n) for b in range(n) if leq[a][b]),
        name="bounded-distributive-lattice",
    )


def rational_profile_with_values(
    agenda: Agenda, electorate: int, target_tuples: Sequence[Sequence[int]]
) -> tuple[tuple[Formula, ...], Profile]:
    """Componentwise ``rational_attitude_with_values``: target_tuples[j]
    prescribes, voter by voter, the value of the j-th witness formula."""
    if electorate < 1:
        raise ValueError("electorate must be >= 1")
    for t in target_tuples:
        if len(t) != electorate:
            raise ValueError("each target tuple needs one entry per voter")
    rows = [[t[voter] for t in target_tuples] for voter in range(electorate)]
    deltas, attitudes = _attitudes_with_values(agenda, len(target_tuples), rows)
    return deltas, Profile(tuple(attitudes))


def value_tuple(profile: Profile, formula: Formula) -> tuple[int, ...]:
    """The voters' values at one agenda formula, voter 0 first."""
    i = profile.agenda.index[formula]
    return tuple(a.values[i] for a in profile.attitudes)


def _chain_algebra(name, signature, carrier, ops):
    """A chain on indices 0 < 1 < ... with binary tables given as functions of (x, y)."""
    n = len(carrier)
    tables = tuple((symbol, tuple(op(x) for x in range(n)) if arity == 1 else
                    tuple(op(x, y) for x in range(n) for y in range(n)) if arity == 2 else (op(),))
                   for (symbol, arity), op in zip(signature.connectives, ops))
    return FiniteAlgebra(signature, carrier, tables,
                         order=frozenset((a, b) for a in range(n) for b in range(a, n)), name=name)


def goedel3() -> FiniteAlgebra:
    """G3, the Gödel chain 0 < h < 1: min, max, x -> y = 1 where x <= y else y, and 0."""
    signature = Signature((("and", 2), ("or", 2), ("impl", 2), ("bot", 0)))
    return _chain_algebra("G3", signature, ("0", "h", "1"), (
        min, max, lambda x, y: 2 if x <= y else y, lambda: 0))


def sugihara3() -> FiniteAlgebra:
    """RM3, the Sugihara chain -1 < 0 < 1: x -> -x, min, max, and x -> y = max(-x, y)
    where x <= y, else min(-x, y)."""
    signature = Signature((("not", 1), ("and", 2), ("or", 2), ("impl", 2)))
    return _chain_algebra("RM3", signature, ("-1", "0", "1"), (
        lambda x: 2 - x, min, max, lambda x, y: max(2 - x, y) if x <= y else min(2 - x, y)))
