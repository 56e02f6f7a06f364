from itertools import product

import pytest

from aggcheck.aggregation import (
    DecisionCriterion,
    constant_criterion,
    majority_criterion,
    projection_criterion,
)
from aggcheck.algebra import is_homomorphism, product_algebra
from aggcheck.impossibility import (
    UltrafilterView,
    classify_dictator,
    decisive_coalitions,
    is_ultrafilter,
)


class TestDecisiveCoalitions:
    def test_projection_gives_principal_family(self, boolean2):
        view = decisive_coalitions(projection_criterion(boolean2, 2, 0))
        assert view.decisive == {frozenset({0}), frozenset({0, 1})}

    def test_constant_one_contains_empty(self, boolean2):
        view = decisive_coalitions(constant_criterion(boolean2, 2, 1))
        assert frozenset() in view.decisive
        assert not is_ultrafilter(view).is_ultrafilter

    def test_majority_families(self, boolean2):
        view = decisive_coalitions(majority_criterion(boolean2, 3))
        assert view.decisive == {
            frozenset(c)
            for c in ({0, 1}, {0, 2}, {1, 2}, {0, 1, 2})
        }

    def test_mv_criterion_rejected(self, luk3):
        with pytest.raises(ValueError):
            decisive_coalitions(projection_criterion(luk3, 2, 0))


class TestIsUltrafilter:
    def test_principal_families(self, boolean2):
        for n in (1, 2, 3):
            for voter in range(n):
                view = decisive_coalitions(projection_criterion(boolean2, n, voter))
                assert is_ultrafilter(view).is_ultrafilter

    def test_majority_violates_intersection(self, boolean2):
        check = is_ultrafilter(decisive_coalitions(majority_criterion(boolean2, 3)))
        assert not check.is_ultrafilter
        assert any(axiom == "intersection" for axiom, _ in check.violations)

    def test_empty_family_violates_maximality(self):
        check = is_ultrafilter(UltrafilterView(2, frozenset()))
        assert not check.is_ultrafilter
        assert any(axiom == "maximality" for axiom, _ in check.violations)

    def test_oligarchy_diagnostic(self, boolean2):
        # AND of voters 0 and 1 in a 3-voter electorate: a filter, not an
        # ultrafilter; the oligarchs are exactly {0, 1}
        values = tuple(
            int(c[0] == 1 and c[1] == 1) for c in product((0, 1), repeat=3)
        )
        view = decisive_coalitions(DecisionCriterion(boolean2, 3, values))
        check = is_ultrafilter(view)
        assert check.is_filter and not check.is_ultrafilter
        assert check.oligarchs == frozenset({0, 1})


class TestClassifyDictator:
    def test_projection(self, boolean2):
        assert classify_dictator(projection_criterion(boolean2, 3, 2)) == 2

    def test_majority_has_none(self, boolean2):
        assert classify_dictator(majority_criterion(boolean2, 3)) is None

    def test_single_voter_identity(self, boolean2):
        assert classify_dictator(projection_criterion(boolean2, 1, 0)) == 0

    def test_dictator_owns_every_coalition(self, boolean2):
        for n in (1, 2, 3):
            for voter in range(n):
                criterion = projection_criterion(boolean2, n, voter)
                i = classify_dictator(criterion)
                assert i == voter
                view = decisive_coalitions(criterion)
                assert view.decisive == {
                    frozenset(c)
                    for mask in range(1 << n)
                    if i in (c := {j for j in range(n) if mask >> j & 1})
                }


class TestExhaustiveEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_three_routes_agree(self, boolean2, n):
        power = product_algebra(boolean2, n)
        dictators = []
        for values in product((0, 1), repeat=2**n):
            criterion = DecisionCriterion(boolean2, n, values)
            hom, _ = is_homomorphism(values, power, boolean2)
            ultra = is_ultrafilter(decisive_coalitions(criterion)).is_ultrafilter
            dictator = classify_dictator(criterion)
            assert hom == ultra == (dictator is not None)
            if dictator is not None:
                dictators.append(dictator)
        # the impossibility count: exactly one qualifying criterion per voter
        assert sorted(dictators) == list(range(n))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reads_equal_their_definitions(self, boolean2, n):
        tuples = list(product((0, 1), repeat=n))
        for values in product((0, 1), repeat=2**n):
            criterion = DecisionCriterion(boolean2, n, values)
            # C is decisive iff the criterion maps C's characteristic tuple to 1
            decisive = {frozenset(i for i in range(n) if t[i]) for t in tuples if criterion(t) == 1}
            assert decisive_coalitions(criterion).decisive == decisive
            first = next((v for v in range(n) if all(criterion(t) == t[v] for t in tuples)), None)
            assert classify_dictator(criterion) == first
