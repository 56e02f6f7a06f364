import gc
import weakref
from itertools import product

import pytest

from aggcheck import aggregation
from aggcheck.aggregation import (
    AttitudeFunction,
    CriterionAggregator,
    DecisionCriterion,
    ExtensionalAggregator,
    INDEPENDENT,
    STRONGLY_SYSTEMATIC,
    SYSTEMATIC,
    aggregator_from_criterion,
    check_rational_universal,
    check_systematicity,
    criterion_from_aggregator,
    enumerate_rational_attitudes,
    enumerate_rational_profiles,
    majority_criterion,
    projection_criterion,
    rational_attitude_with_values,
    witness_attitudes,
)
from aggcheck.agenda import agenda_over
from aggcheck.algebra import (
    is_homomorphism,
    power_homomorphisms,
    product_algebra,
)
from aggcheck.census import qualifying_criteria
from aggcheck.errors import BudgetExceededError
from aggcheck.oracles import is_rational_attitude
from aggcheck.semantics import Matrix
from aggcheck.syntax import parse_formula
from builders import builtin_distributive_lattice, rational_profile_with_values, value_tuple


def f(text, matrix):
    return parse_formula(text, matrix.algebra.signature)


def attitude(agenda, values):
    return AttitudeFunction(agenda, tuple(values))


class TestRationality:
    def test_consistent_pair(self, classical):
        ag = agenda_over([f("x1", classical), f("(not x1)", classical)], classical)
        ok, valuation = is_rational_attitude(attitude(ag, [1, 0]))
        assert ok and valuation == {"x1": 1}

    def test_contradictory_pair(self, classical):
        ag = agenda_over([f("x1", classical), f("(not x1)", classical)], classical)
        ok, valuation = is_rational_attitude(attitude(ag, [1, 1]))
        assert not ok and valuation is None

    def test_false_disjuncts_true_join(self, or_agenda):
        ok, _ = is_rational_attitude(attitude(or_agenda, [0, 0, 1]))
        assert not ok

    def test_enumeration_matches_search(self, or_agenda):
        # oracle: every value tuple over the agenda, filtered by the
        # single-attitude rationality search
        algebra = or_agenda.algebra
        brute = {
            values
            for values in product(range(algebra.size), repeat=len(or_agenda))
            if is_rational_attitude(attitude(or_agenda, values))[0]
        }
        fast = {a.values for a in enumerate_rational_attitudes(or_agenda)}
        assert fast == brute
        assert len(fast) == 4  # one per valuation of x1, x2

    def test_profile_count(self, or_agenda):
        profiles = enumerate_rational_profiles(or_agenda, 3)
        assert len(profiles) == 4**3

    def test_profiles_past_the_cap_are_refused_unbuilt(self, or_agenda, monkeypatch):
        def unbuilt(attitudes):
            raise AssertionError("built a profile before the cap check")

        monkeypatch.setattr(aggregation, "Profile", unbuilt)
        with pytest.raises(BudgetExceededError) as refused:
            enumerate_rational_profiles(or_agenda, 11, budget=10**12)
        assert str(refused.value) == (
            "profile enumeration: 4194304 rational profiles exceed the limit of 2000000")

    @pytest.mark.parametrize("refuse", [enumerate_rational_profiles, qualifying_criteria])
    def test_profile_count_past_the_digit_limit_is_a_budget_error(self, or_agenda, refuse):
        # 4^10000 has more decimal digits than Python converts by default
        with pytest.raises(BudgetExceededError) as refused:
            refuse(or_agenda, 10_000)
        assert str(refused.value) == (
            "profile enumeration: 4^10000 rational profiles exceed the limit of 2000000")


class TestWitnessConstructions:
    def test_prescribed_values_boolean(self, or_agenda):
        deltas, a = rational_attitude_with_values(or_agenda, [1, 0])
        assert [a.values[or_agenda.index[d]] for d in deltas] == [1, 0]
        assert a.values[or_agenda.index[f("(or x1 x2)", or_agenda.matrix)]] == 1
        assert is_rational_attitude(a)[0]

    def test_all_zero(self, or_agenda):
        deltas, a = rational_attitude_with_values(or_agenda, [0, 0])
        assert a.values[or_agenda.index[f("(or x1 x2)", or_agenda.matrix)]] == 0

    def test_half_through_double_negation(self, luk3_degree):
        ag = agenda_over(
            [f("(not (not x1))", luk3_degree), f("x2", luk3_degree)], luk3_degree
        )
        deltas, a = rational_attitude_with_values(ag, [1, 0])  # 1 is the 1/2 index
        assert a.values[ag.index[deltas[0]]] == 1

    def test_overrich_request_rejected(self, or_agenda):
        with pytest.raises(ValueError, match="pseudo-rich"):
            rational_attitude_with_values(or_agenda, [0, 0, 0])

    def test_profile_componentwise(self, or_agenda):
        deltas, profile = rational_profile_with_values(or_agenda, 2, [(1, 0)])
        assert value_tuple(profile, deltas[0]) == (1, 0)
        assert all(is_rational_attitude(a)[0] for a in profile.attitudes)

    def test_profile_single_voter_reduces(self, or_agenda):
        d1, p = rational_profile_with_values(or_agenda, 1, [(1,), (0,)])
        d2, a = rational_attitude_with_values(or_agenda, [1, 0])
        assert d1 == d2 and p.attitudes[0].values == a.values

    def test_profile_three_voters(self, or_agenda):
        targets = [(1, 0, 0), (0, 1, 0)]
        deltas, profile = rational_profile_with_values(or_agenda, 3, targets)
        assert value_tuple(profile, deltas[0]) == (1, 0, 0)
        assert value_tuple(profile, deltas[1]) == (0, 1, 0)


    @pytest.mark.parametrize("logic,texts", [
        ("classical", ["x1", "x2", "(or x1 x2)", "(not x1)"]),
        ("classical", ["(or x1 x2)", "(not (not x2))", "(not x1)"]),
        ("classical", ["x1", "x2", "(or x1 x2)"]),
        ("luk3_filter", ["x1", "x2", "(oplus x1 x2)"]),
        ("luk3_filter", ["(odot x1 x2)", "(not (not x2))"]),
        ("luk3_degree", ["x1", "x2", "(oplus x1 x2)"]),
        ("luk3_degree", ["(oplus x1 x2)", "(not (not x2))", "x3"]),
        ("diamond", ["x1", "x2", "(or x1 x2)"]),
        ("diamond_degree", ["(or x1 x2)", "(and x2 x2)"]),
    ])
    def test_default_witness_attitudes_match_the_prescribed_values(
        self, request, logic, texts
    ):
        # oracle: the per-value construction, which evaluates the agenda at
        # the witness's variable set to b and every other variable to 0
        if logic.startswith("diamond"):
            lattice = builtin_distributive_lattice(
                ["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)]
            )
            matrix = (Matrix(lattice) if logic == "diamond_degree"
                      else Matrix(lattice, frozenset({3})))
        else:
            matrix = request.getfixturevalue(logic)
        agenda = agenda_over([f(t, matrix) for t in texts], matrix)
        delta, attitude_for = witness_attitudes(agenda)
        assert sorted(attitude_for) == list(range(agenda.algebra.size))
        for b, attitude in attitude_for.items():
            deltas, expected = rational_attitude_with_values(agenda, [b])
            assert deltas == (delta,)
            assert attitude == expected

    @pytest.mark.parametrize("construct", [
        witness_attitudes,
        lambda agenda: rational_profile_with_values(agenda, 3, [(1, 2, 0), (0, 1, 2)]),
    ], ids=["witness-attitudes", "profile-of-three"])
    def test_witnesses_are_checked_once_per_construction(self, mv_agenda, monkeypatch, construct):
        checks = []
        track = aggregation._tracking_variables
        monkeypatch.setattr(aggregation, "_tracking_variables",
                            lambda *args: checks.append(track(*args)))
        assert mv_agenda.algebra.size == 3
        construct(mv_agenda)
        assert len(checks) == 1

    def test_witness_of_a_variable_outside_the_agenda(self, luk3):
        # with every value designated, the constant 1 is interderivable with a
        # variable that occurs nowhere in the agenda, and does not track it
        everything = Matrix(luk3, frozenset(range(3)))
        ag = agenda_over([f("1", everything), f("x1", everything)], everything)
        with pytest.raises(ValueError, match="does not track its variable"):
            witness_attitudes(ag)

    @pytest.mark.parametrize("construct", [
        lambda agenda: rational_attitude_with_values(agenda, [1]),
        witness_attitudes,
    ], ids=["prescribed-values", "witness-attitudes"])
    def test_witness_is_checked_at_every_valuation(self, luk3_filter, construct):
        # interderivable with x1 over the filter {1}, and equal to it where x2
        # is 0, but 0 where x1 is 1/2 and x2 is 1
        texts = ["(odot x1 (oplus x1 (not x2)))", "x2"]
        ag = agenda_over([f(t, luk3_filter) for t in texts], luk3_filter)
        with pytest.raises(ValueError, match="does not track its variable"):
            construct(ag)


class TestCheckRationalUniversal:
    def test_projection_qualifies(self, or_agenda):
        agg = CriterionAggregator(projection_criterion(or_agenda.algebra, 3, 0), or_agenda)
        report = check_rational_universal(agg)
        assert report.universal and report.rational

    def test_majority_fails_rationality(self, or_agenda):
        agg = CriterionAggregator(majority_criterion(or_agenda.algebra, 3), or_agenda)
        report = check_rational_universal(agg)
        assert report.universal and not report.rational
        profile, output = report.irrational_witness
        # the witness really is a discursive dilemma: rational voters,
        # non-rational collective attitude
        assert all(is_rational_attitude(a)[0] for a in profile.attitudes)
        assert not is_rational_attitude(output)[0]
        assert output.values == tuple(
            majority_criterion(or_agenda.algebra, 3)(value_tuple(profile, formula))
            for formula in or_agenda.formulas
        )

    def test_empty_domain_not_universal(self, or_agenda):
        agg = ExtensionalAggregator(or_agenda, 2, ())
        report = check_rational_universal(agg)
        assert not report.universal and report.missing_profile is not None


class TestSystematicity:
    def test_criterion_induced_all_levels(self, or_agenda):
        agg = CriterionAggregator(projection_criterion(or_agenda.algebra, 2, 1), or_agenda)
        for level in (INDEPENDENT, SYSTEMATIC, STRONGLY_SYSTEMATIC):
            result = check_systematicity(agg, level, depth=1)
            assert result.holds, result.conflict

    def test_majority_systematic_but_not_strongly(self, or_agenda):
        # majority factors through its table on the agenda, but the unique
        # rational extensions of its outputs disagree with any single table
        # on closure formulas: (x1 or x2) and (x1 or x2) vs x1 and x2 attain
        # the same voter tuple with different extension values
        agg = CriterionAggregator(majority_criterion(or_agenda.algebra, 3), or_agenda)
        assert check_systematicity(agg, SYSTEMATIC).holds
        strong = check_systematicity(agg, STRONGLY_SYSTEMATIC, depth=1)
        assert not strong.holds
        assert strong.conflict is not None

    def test_split_dictatorship_not_systematic(self, or_agenda):
        # voter 0 decides x1, voter 1 decides everything else
        profiles = enumerate_rational_profiles(or_agenda, 2)
        x1 = or_agenda.index[f("x1", or_agenda.matrix)]
        table = []
        for p in profiles:
            values = tuple(
                p.attitudes[0].values[i] if i == x1 else p.attitudes[1].values[i]
                for i in range(len(or_agenda))
            )
            table.append((p, AttitudeFunction(or_agenda, values)))
        agg = ExtensionalAggregator(or_agenda, 2, tuple(table))
        assert check_systematicity(agg, INDEPENDENT).holds
        result = check_systematicity(agg, SYSTEMATIC)
        assert not result.holds
        assert result.conflict is not None

    def test_budget_names_the_stage_the_count_and_the_limit(self, or_agenda):
        agg = CriterionAggregator(projection_criterion(or_agenda.algebra, 2, 0), or_agenda)
        with pytest.raises(BudgetExceededError) as refused:
            check_systematicity(agg, SYSTEMATIC, budget=20)
        assert str(refused.value) == (
            "systematicity check: 16 profiles x 3 formulas = 48 exceed the limit of 20"
        )

    def test_caches_let_an_agenda_go_once_five_others_are_checked(self, luk3_filter):
        """The caches keyed by agenda keep a few recent agendas, not every one."""
        projection = projection_criterion(luk3_filter.algebra, 2, 0)

        def checked(text):
            agenda = agenda_over([f(t, luk3_filter) for t in ("x1", "x2", text)], luk3_filter)
            check_systematicity(CriterionAggregator(projection, agenda), STRONGLY_SYSTEMATIC,
                                depth=2)
            return weakref.ref(agenda)

        first = checked("(oplus x1 x2)")
        for text in ["(odot x1 x2)", "(impl x1 x2)", "(not x1)", "(oplus x1 x1)", "(odot x2 x2)"]:
            checked(text)
        gc.collect()
        assert first() is None

    def test_induced_criterion_read_off(self, or_agenda):
        agg = CriterionAggregator(projection_criterion(or_agenda.algebra, 2, 0), or_agenda)
        result = check_systematicity(agg, SYSTEMATIC)
        assert result.criterion == {
            coords: coords[0] for coords in product((0, 1), repeat=2)
        }


class TestCharacterization:
    def test_projection_round_trip(self, or_agenda):
        for voter in range(2):
            criterion = projection_criterion(or_agenda.algebra, 2, voter)
            agg = aggregator_from_criterion(criterion, or_agenda)
            extracted = criterion_from_aggregator(agg)
            assert extracted.values == criterion.values

    def test_only_projections_qualify_boolean_two(self, or_agenda):
        # oracle: all 16 maps 2^2 -> 2, filtered through the homomorphism
        # equation, are exactly the two projections
        algebra = or_agenda.algebra
        power = product_algebra(algebra, 2)
        homs = [
            m for m in product((0, 1), repeat=4) if is_homomorphism(m, power, algebra)[0]
        ]
        assert sorted(homs) == [(0, 0, 1, 1), (0, 1, 0, 1)]
        for mapping in homs:
            criterion = DecisionCriterion(algebra, 2, mapping)
            agg = aggregator_from_criterion(criterion, or_agenda)
            assert criterion_from_aggregator(agg).values == mapping

    def test_constants_preserved(self, bool_agenda):
        criterion = projection_criterion(bool_agenda.algebra, 3, 1)
        agg = aggregator_from_criterion(criterion, bool_agenda)
        extracted = criterion_from_aggregator(agg)
        # the all-zeros tuple maps to bot's value, the all-ones to top's
        assert extracted((0, 0, 0)) == bool_agenda.algebra.constant("bot")
        assert extracted((1, 1, 1)) == bool_agenda.algebra.constant("top")

    def test_non_homomorphism_rejected_on_lift(self, or_agenda):
        with pytest.raises(ValueError, match="not a homomorphism"):
            aggregator_from_criterion(
                majority_criterion(or_agenda.algebra, 3), or_agenda
            )

    def test_majority_fails_extraction_preconditions(self, or_agenda):
        agg = CriterionAggregator(majority_criterion(or_agenda.algebra, 3), or_agenda)
        with pytest.raises(ValueError, match="universal\\+rational"):
            criterion_from_aggregator(agg)

    def test_dictatorship_behavior(self, or_agenda):
        agg = aggregator_from_criterion(
            projection_criterion(or_agenda.algebra, 3, 1), or_agenda
        )
        for profile in enumerate_rational_profiles(or_agenda, 3):
            assert agg.apply(profile).values == profile.attitudes[1].values

    def test_identity_single_voter(self, or_agenda):
        agg = aggregator_from_criterion(
            projection_criterion(or_agenda.algebra, 1, 0), or_agenda
        )
        for profile in enumerate_rational_profiles(or_agenda, 1):
            assert agg.apply(profile).values == profile.attitudes[0].values

    def test_mv_projection_passes_half_through(self, mv_agenda):
        agg = aggregator_from_criterion(
            projection_criterion(mv_agenda.algebra, 2, 0), mv_agenda
        )
        deltas, profile = rational_profile_with_values(mv_agenda, 2, [(1, 2)])
        assert agg.apply(profile).values[mv_agenda.index[deltas[0]]] == 1  # index of 1/2

    def test_extraction_equals_the_systematicity_criterion(self, or_agenda):
        # uniqueness of the decision criterion: the table read off the witness
        # is the one map every fragment formula factors through
        for voter in range(2):
            criterion = projection_criterion(or_agenda.algebra, 2, voter)
            agg = aggregator_from_criterion(criterion, or_agenda)
            extracted = criterion_from_aggregator(agg)
            strong = check_systematicity(agg, STRONGLY_SYSTEMATIC).criterion
            assert sorted(strong) == list(product(range(2), repeat=2))
            assert {coords: extracted(coords) for coords in strong} == strong
            assert extracted.values == criterion.values


class TestRoundTrips:
    def test_boolean_both_directions(self, bool_agenda):
        algebra = bool_agenda.algebra
        for n in (1, 2, 3):
            power = product_algebra(algebra, n)
            homs = [
                m
                for m in product((0, 1), repeat=2**n)
                if is_homomorphism(m, power, algebra)[0]
            ]
            assert len(homs) == n
            profiles = enumerate_rational_profiles(bool_agenda, n)
            for mapping in homs:
                criterion = DecisionCriterion(algebra, n, mapping)
                agg = aggregator_from_criterion(criterion, bool_agenda)
                extracted = criterion_from_aggregator(agg)
                assert extracted.values == criterion.values
                rebuilt = aggregator_from_criterion(extracted, bool_agenda)
                for profile in profiles:
                    assert rebuilt.apply(profile).values == agg.apply(profile).values

    @pytest.mark.parametrize("n", [1, 2])
    def test_values_in_another_algebra_of_the_class(self, bool_agenda, classical, boolean2, n):
        # truth values in B4 = B2^2, an algebra of the classical matrix's class
        # other than its own: B4^n -> B4 has (2n)^2 homomorphisms, pairs of projections
        b4 = product_algebra(boolean2, 2)
        agenda = agenda_over(bool_agenda.formulas, classical, b4)
        homs = sorted(h.mapping for h in power_homomorphisms(b4, n))
        assert len(homs) == (2 * n) ** 2
        assert sorted(c.values for c in qualifying_criteria(agenda, n)) == homs
        for table in homs:
            aggregator = aggregator_from_criterion(DecisionCriterion(b4, n, table), agenda)
            assert criterion_from_aggregator(aggregator).values == table

    def test_census_equals_homomorphisms(self, or_agenda):
        algebra = or_agenda.algebra
        power = product_algebra(algebra, 2)
        homs = sorted(
            m for m in product((0, 1), repeat=4) if is_homomorphism(m, power, algebra)[0]
        )
        census = sorted(c.values for c in qualifying_criteria(or_agenda, 2))
        assert census == homs

    def test_census_excludes_constants(self, or_agenda):
        # constant criteria survive output-rationality on this agenda but
        # fail constant preservation in the closure census
        tables = {c.values for c in qualifying_criteria(or_agenda, 2)}
        for value in (0, 1):
            assert DecisionCriterion(or_agenda.algebra, 2, (value,) * 2**2).values not in tables
