"""Bounded distributive lattices against both routes, by finite duality.

Let L be the lattice of down-sets of a finite poset P. The homomorphisms
L^N -> L are exactly h(x) = {p : f(p) in x}, for the order-preserving maps f
from P into N disjoint copies of P (Birkhoff duality; Davey and Priestley,
*Introduction to Lattices and Order*, 2nd ed., 2002, ch. 5). The expected
tables are built from that alone: the oracle functions below import nothing
of aggcheck, and rank product elements with ``itertools.product``, voter 0
most significant, as the product algebra's carrier does.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from aggcheck.agenda import agenda_over
from aggcheck.algebra import power_homomorphisms
from aggcheck.census import qualifying_criteria
from aggcheck.semantics import Matrix
from aggcheck.syntax import parse_formula
from builders import LATTICE_SIGNATURE, builtin_distributive_lattice


@st.composite
def posets(draw):
    """A partial order on 1-3 points as its set of pairs p <= q: the
    reflexive-transitive closure of drawn relations i < j between points
    with i < j, so index order extends it."""
    points = draw(st.integers(1, 3))
    leq = {(p, p) for p in range(points)}
    leq |= {(i, j) for i in range(points) for j in range(i + 1, points) if draw(st.booleans())}
    for m in range(points):
        leq |= {(a, b) for a in range(points) for b in range(points)
                if (a, m) in leq and (m, b) in leq}
    return points, frozenset(leq)


def down_sets(points, leq):
    """The down-sets of the poset as point bitmasks, ascending."""
    return [mask for mask in range(1 << points)
            if all(mask >> q & 1 for q, p in leq if mask >> p & 1)]


def expected_tables(points, leq, n):
    """Every h(x) = {p : f(p) in x} over the order-preserving maps f from P
    into n disjoint copies of P, as carrier indices in product order."""
    elements = down_sets(points, leq)
    index = {mask: i for i, mask in enumerate(elements)}
    tables = []
    for f in product(product(range(n), range(points)), repeat=points):
        if all(f[p][0] == f[q][0] and (f[p][1], f[q][1]) in leq for p, q in leq):
            tables.append([index[sum(1 << p for p, (voter, image) in enumerate(f)
                                     if elements[x[voter]] >> image & 1)]
                           for x in product(range(len(elements)), repeat=n)])
    return sorted(tables)


def down_set_lattice(points, leq):
    """L ordered by inclusion, its carrier index i the i-th down-set."""
    elements = down_sets(points, leq)
    labels = ["{" + ",".join(str(p) for p in range(points) if mask >> p & 1) + "}"
              for mask in elements]
    return builtin_distributive_lattice(labels, [
        (i, j) for i, a in enumerate(elements) for j, b in enumerate(elements) if a & ~b == 0
    ])


@settings(max_examples=16, deadline=None)
@given(posets(), st.integers(1, 2))
def test_both_routes_find_the_dual_tables(poset, n):
    lattice = down_set_lattice(*poset)
    expected = expected_tables(*poset, n)
    assert sorted(list(h.mapping) for h in power_homomorphisms(lattice, n)) == expected
    agenda = agenda_over([parse_formula(text, LATTICE_SIGNATURE)
                          for text in ("x1", "x2", "(or x1 x2)")], Matrix(lattice))
    assert sorted(list(c.values) for c in qualifying_criteria(agenda, n)) == expected
