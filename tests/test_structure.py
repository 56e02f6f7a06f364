"""The homomorphism route against the structure of homomorphisms A^N -> A.

An algebra with a majority term (any with a lattice reduct) has only product
congruences on its direct powers (Fraser and Horn, "Congruence relations in
direct products", Proc. AMS 26, 1970), so the kernel of a homomorphism
h: A^N -> A is a product θ₁ × … × θ_N and its image is isomorphic to
∏ᵢ A/θᵢ. Where no subalgebra of A is a nontrivial direct product, all θᵢ but
one are full, and h = g ∘ πᵢ for one voter i and one endomorphism g of A. That
holds on boolean2, the Łukasiewicz chains Ł3 and Ł4, the Gödel chain G3 and
the Sugihara chain RM3: a chain is no direct product of two nontrivial
lattices. It holds too on the frame algebra of the reflexive frame 0 -> 1,
whose End(A) is the identity and the map sending each set to {0,1} where it
holds world 1, else to ∅. The diamond is the product 2 × 2 of two-element
lattices, and a homomorphism into it is one into each factor, each a
projection of one voter's factor: (2N)² maps. The majority term
m(x, y, z) = (x ∧ y) ∨ (y ∧ z) ∨ (x ∧ z) is checked on each algebra here, with
x ∧ y = x ⊙ (¬x ⊕ y) and x ∨ y = x ⊕ (¬x ⊙ y) on the Łukasiewicz chains. End(A)
is found by brute force over every map A → A, each equation checked with
``FiniteAlgebra.op``.
"""

from itertools import product

import pytest

from aggcheck.algebra import evaluate, power_homomorphisms
from aggcheck.fileio import load_matrix
from aggcheck.modal import KripkeFrame, bao_from_frame
from aggcheck.syntax import App, Var
from builders import builtin_distributive_lattice, goedel3, sugihara3

DIAMOND = builtin_distributive_lattice(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
ALGEBRAS = {"boolean2": lambda: load_matrix("boolean2").algebra,
            "mv3": lambda: load_matrix("mv3").algebra, "mv4": lambda: load_matrix("mv4").algebra,
            "g3": goedel3, "rm3": sugihara3, "diamond": lambda: DIAMOND,
            "frame": lambda: bao_from_frame(KripkeFrame(2, frozenset({(0, 0), (1, 1), (0, 1)})))}


def majority(algebra, x, y, z):
    """m(x, y, z) = (x ∧ y) ∨ (y ∧ z) ∨ (x ∧ z), with ∧ and ∨ by ⊙, ⊕ and ¬ where the
    algebra has no ``and``."""
    def meet(a, b):
        if "and" in algebra.tables:
            return App("and", (a, b))
        return App("odot", (a, App("oplus", (App("not", (a,)), b))))

    def join(a, b):
        if "or" in algebra.tables:
            return App("or", (a, b))
        return App("oplus", (a, App("odot", (App("not", (a,)), b))))

    return join(join(meet(x, y), meet(y, z)), meet(x, z))


@pytest.mark.parametrize("logic", list(ALGEBRAS))
def test_each_algebra_has_a_majority_term(logic):
    """m(x, x, y) = m(x, y, x) = m(y, x, x) = x at every x and y: the premise of
    Fraser and Horn's theorem."""
    algebra = ALGEBRAS[logic]()
    x, y = Var("x"), Var("y")
    for xy in product(range(algebra.size), repeat=2):
        valuation = dict(zip("xy", xy))
        assert {evaluate(majority(algebra, *args), valuation, algebra)
                for args in ((x, x, y), (x, y, x), (y, x, x))} == {xy[0]}


def endomorphisms(algebra):
    """Every map A -> A that meets each equation at every argument tuple."""
    size = algebra.size
    return [g for g in product(range(size), repeat=size)
            if all(g[algebra.op(f, xs)] == algebra.op(f, [g[x] for x in xs])
                   for f, arity in algebra.signature.connectives
                   for xs in product(range(size), repeat=arity))]


@pytest.mark.parametrize("logic, count", [("boolean2", 1), ("mv3", 1), ("mv4", 1), ("g3", 2),
                                          ("rm3", 2), ("frame", 2)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_homomorphism_is_an_endomorphism_after_a_projection(logic, count, n):
    algebra = ALGEBRAS[logic]()
    ends = endomorphisms(algebra)
    assert len(ends) == count
    voters = list(product(range(algebra.size), repeat=n))
    predicted = {tuple(g[y[i]] for y in voters) for g in ends for i in range(n)}
    assert [h.mapping for h in power_homomorphisms(algebra, n)] == sorted(predicted)


def test_rm3s_constant_endomorphism_is_one_map_at_every_n():
    """RM3's endomorphisms are the identity and the constant 0 (its middle element), so
    N + 1 maps: the constant one reads no voter."""
    assert endomorphisms(sugihara3()) == [(0, 1, 2), (1, 1, 1)]
    assert [len(power_homomorphisms(sugihara3(), n)) for n in (1, 2, 3, 4)] == [2, 3, 4, 5]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_diamonds_homomorphisms_read_one_voter_in_each_factor(n):
    """The diamond 0 < a, b < 1 as 2 × 2: a's factor and b's. A homomorphism into it
    gives each factor one voter's value in one factor."""
    factors = [(0, 0), (1, 0), (0, 1), (1, 1)]  # of 0, a, b and 1
    element = {bits: e for e, bits in enumerate(factors)}
    voters = list(product(range(4), repeat=n))
    reads = list(product(range(n), range(2)))  # (voter, factor)
    predicted = {tuple(element[factors[y[i]][p], factors[y[j]][q]] for y in voters)
                 for (i, p), (j, q) in product(reads, repeat=2)}
    found = [h.mapping for h in power_homomorphisms(DIAMOND, n)]
    assert len(found) == len(predicted) == (2 * n) ** 2
    assert found == sorted(predicted)
