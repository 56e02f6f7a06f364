"""Both routes' tables are closed under minors, across electorates.

A qualifying criterion is an N-ary polymorphism of the set of the rational
attitudes' extensions, and a homomorphism A^N -> A composed with the
homomorphism y -> (y_s(1), ..., y_s(N)) from A^M to A^N is one A^M -> A. So for
every table t at N and every map s: [N] -> [M], the minor
y -> t(y_s(1), ..., y_s(N)) is a table at M, on either route (Szegedy and Xu,
"Impossibility theorems and the universal algebraic toolkit", arXiv:1506.01315).
The check relates one electorate to another, so it guards the code that changes
with N: the rank table's split, the voter and coordinate swaps, the power's
tables and the monoid rule's split of each element of the power. Minors are
computed here from ``itertools.product`` order (voter 0 most significant) alone.
"""

from functools import lru_cache
from itertools import product

import pytest

from aggcheck.agenda import agenda_over
from aggcheck.algebra import builtin_boolean2, builtin_mv_chain, power_homomorphisms
from aggcheck.census import qualifying_criteria
from aggcheck.fileio import load_matrix
from aggcheck.semantics import Matrix
from aggcheck.syntax import parse_formula
from builders import builtin_distributive_lattice, goedel3

README = ("x1", "x2", "(or x1 x2)", "(not x1)")
MV = ("x1", "x2", "(oplus x1 x2)")
DIAMOND = builtin_distributive_lattice(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
G3 = goedel3()
G3_IMPL = ("x1", "x2", "(impl x1 x2)")
MATRICES = {"g3": Matrix(G3, frozenset({2}))}  # G3 with the filter {1}


@lru_cache(maxsize=None)
def agenda(logic, texts):
    matrix = MATRICES.get(logic) or load_matrix(logic)
    return agenda_over([parse_formula(t, matrix.algebra.signature) for t in texts], matrix)


@lru_cache(maxsize=None)
def census_tables(logic, texts, n):
    return frozenset(c.values for c in qualifying_criteria(agenda(logic, texts), n))


@lru_cache(maxsize=None)
def hom_tables(algebra, n):
    return frozenset(h.mapping for h in power_homomorphisms(algebra, n))


def minor(table, size, n, m, sigma):
    """y -> table(y_sigma(1), ..., y_sigma(n)) over every y in A^m, in product order."""
    value = dict(zip(product(range(size), repeat=n), table))
    return tuple(value[tuple(y[s] for s in sigma)] for y in product(range(size), repeat=m))


# (id, size, tables at N, largest N)
CASES = [
    ("census-boolean2-readme", 2, lambda n: census_tables("boolean2", README, n), 4),
    ("census-boolean2-x1", 2, lambda n: census_tables("boolean2", ("x1",), n), 3),
    ("census-mv3", 3, lambda n: census_tables("mv3", MV, n), 3),
    ("census-mv3-degree", 3, lambda n: census_tables("mv3-degree", MV, n), 3),
    ("census-g3", 3, lambda n: census_tables("g3", G3_IMPL, n), 3),
    ("homs-boolean2", 2, lambda n: hom_tables(builtin_boolean2(), n), 4),
    ("homs-mv3", 3, lambda n: hom_tables(builtin_mv_chain(3), n), 3),
    ("homs-mv4", 4, lambda n: hom_tables(builtin_mv_chain(4), n), 3),
    ("homs-g3", 3, lambda n: hom_tables(G3, n), 3),
    ("homs-diamond", 4, lambda n: hom_tables(DIAMOND, n), 3),
]


@pytest.mark.parametrize("size, tables, largest", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_every_minor_of_a_table_at_n_is_a_table_at_m(size, tables, largest):
    # the identity at N=1 qualifies, so every projection at every M must too
    assert tuple(range(size)) in tables(1)
    outside = [(n, m, table, sigma)
               for n, m in product(range(1, largest + 1), repeat=2)
               for table in sorted(tables(n))
               for sigma in product(range(m), repeat=n)
               if minor(table, size, n, m, sigma) not in tables(m)]
    assert not outside, outside[:3]
