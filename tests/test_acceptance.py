"""Acceptance suite: the eight exit criteria, each exhaustive at desk scale
with independently computed oracles, printing one verdict line apiece."""

import random
import time
from itertools import product

from aggcheck.agenda import agenda_over, pseudo_richness
from aggcheck.aggregation import (
    CriterionAggregator,
    DecisionCriterion,
    STRONGLY_SYSTEMATIC,
    aggregator_from_criterion,
    check_rational_universal,
    check_systematicity,
    criterion_from_aggregator,
    enumerate_rational_profiles,
    is_rational_attitude,
    majority_criterion,
    rational_attitude_with_values,
    rational_profile_with_values,
)
from aggcheck.algebra import (
    builtin_boolean2,
    builtin_distributive_lattice,
    builtin_mv_chain,
    enumerate_homomorphisms,
    is_homomorphism,
    product_algebra,
)
from aggcheck.census import qualifying_criteria
from aggcheck.impossibility import (
    classify_dictator,
    decisive_coalitions,
    is_ultrafilter,
)
from aggcheck.modal import (
    certify_implication_bottom,
    check_subjunctive_conditions,
)
from aggcheck.semantics import (
    Matrix,
    check_selfextensionality,
    interderivable,
)
from aggcheck.syntax import parse_formula


def report(name, ok, elapsed, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] {name}: {elapsed:.2f}s{suffix}")
    assert ok, name


def build_agenda(matrix, texts):
    sig = matrix.algebra.signature
    return agenda_over([parse_formula(t, sig) for t in texts], matrix)


def test_criterion_1_boolean_bijection():
    """Homomorphisms 2^N -> 2 are exactly the N projections; each lifts to a
    qualifying aggregator; both round trips are identities."""
    start = time.time()
    algebra = builtin_boolean2()
    matrix = Matrix(algebra, frozenset({1}))
    agenda = build_agenda(matrix, ["x1", "x2", "(or x1 x2)", "(not x1)"])
    ok = True
    detail = []
    for n in (1, 2, 3):
        power = product_algebra(algebra, n)
        homs = enumerate_homomorphisms(power, algebra)
        projections = {
            tuple(coords[v] for coords in product((0, 1), repeat=n))
            for v in range(n)
        }
        ok &= len(homs) == n and {h.mapping for h in homs} == projections
        census = qualifying_criteria(agenda, n)
        ok &= sorted(c.values for c in census) == sorted(h.mapping for h in homs)
        profiles = enumerate_rational_profiles(agenda, n)
        for h in homs:
            criterion = DecisionCriterion(algebra, n, h.mapping)
            aggregator = aggregator_from_criterion(criterion, agenda)
            rep = check_rational_universal(aggregator)
            strong = check_systematicity(aggregator, STRONGLY_SYSTEMATIC, depth=1)
            ok &= rep.universal and rep.rational and strong.holds
            extracted = criterion_from_aggregator(aggregator)
            ok &= extracted.values == criterion.values
            rebuilt = aggregator_from_criterion(extracted, agenda)
            ok &= all(
                rebuilt.apply(p).values == aggregator.apply(p).values
                for p in profiles
            )
        detail.append(f"N={n}: {len(homs)} homs")
    elapsed = time.time() - start
    report("criterion 1: boolean bijection", ok and elapsed < 5.0, elapsed,
           "; ".join(detail))


def test_criterion_2_mv_bijection():
    """Over the 3-element chain with N=2, the qualifying-aggregator census
    (all 3^9 criteria) matches the brute-force homomorphism filter."""
    start = time.time()
    algebra = builtin_mv_chain(3)
    matrix = Matrix(algebra)
    agenda = build_agenda(matrix, ["x1", "x2", "(oplus x1 x2)"])
    power = product_algebra(algebra, 2)
    # oracle: filter all 3^9 maps through the homomorphism equation
    brute = sorted(
        m for m in product(range(3), repeat=9) if is_homomorphism(m, power, algebra)[0]
    )
    fast = sorted(h.mapping for h in enumerate_homomorphisms(power, algebra))
    census = sorted(c.values for c in qualifying_criteria(agenda, 2))
    ok = brute == fast == census and len(brute) >= 2
    profiles = enumerate_rational_profiles(agenda, 2)
    for mapping in brute:
        criterion = DecisionCriterion(algebra, 2, mapping)
        aggregator = aggregator_from_criterion(criterion, agenda)
        extracted = criterion_from_aggregator(aggregator)
        ok &= extracted.values == criterion.values
        rebuilt = aggregator_from_criterion(extracted, agenda)
        ok &= all(
            rebuilt.apply(p).values == aggregator.apply(p).values for p in profiles
        )
    elapsed = time.time() - start
    report("criterion 2: MV bijection", ok and elapsed < 60.0, elapsed,
           f"{len(brute)} homs = census")


def test_criterion_3_impossibility():
    """For every map 2^N -> 2 (N <= 3): homomorphism, ultrafilter of decisive
    coalitions, and dictator classification agree; majority fails all three
    with witnesses."""
    start = time.time()
    algebra = builtin_boolean2()
    ok = True
    for n in (1, 2, 3):
        power = product_algebra(algebra, n)
        hom_count = 0
        for values in product((0, 1), repeat=2**n):
            criterion = DecisionCriterion(algebra, n, values)
            hom, _ = is_homomorphism(values, power, algebra)
            ultra = is_ultrafilter(decisive_coalitions(criterion))
            dictator = classify_dictator(criterion)
            ok &= hom == ultra.is_ultrafilter == (dictator is not None)
            hom_count += hom
        ok &= hom_count == n
    majority = majority_criterion(algebra, 3)
    hom, hom_witness = is_homomorphism(
        majority.values, product_algebra(algebra, 3), algebra
    )
    ultra = is_ultrafilter(decisive_coalitions(majority))
    ok &= not hom and hom_witness is not None
    ok &= not ultra.is_ultrafilter and len(ultra.violations) > 0
    ok &= classify_dictator(majority) is None
    elapsed = time.time() - start
    report("criterion 3: ultrafilter impossibility", ok, elapsed,
           f"majority witness: {ultra.violations[0][0]}")


def test_criterion_4_subjunctive_conditions():
    """All eight consistency checks for the boxed implication at frame bound
    2; the meet with the refuting pair is bottom in every frame algebra up to
    3 worlds; the material reading fails the negated-implication group."""
    start = time.time()
    result = check_subjunctive_conditions(2)
    ok = (
        result.a_holds
        and result.b_holds
        and result.material_b_fails
        and result.bottom_certified
        and certify_implication_bottom(3)
        and len(result.condition_a) == 4
        and len(result.condition_b) == 4
    )
    elapsed = time.time() - start
    report("criterion 4: subjunctive implication conditions",
           ok and elapsed < 5.0, elapsed)


def test_criterion_5_selfextensionality_suite():
    """Classical logic: no congruence counterexample (depth 2, 3 variables).
    The 1-preserving chain logic: counterexample found, with the canonical
    pair verified independently. The degree-preserving chain logic: none."""
    start = time.time()
    boolean = Matrix(builtin_boolean2(), frozenset({1}))
    luk = builtin_mv_chain(3)
    luk_filter = Matrix(luk, frozenset({2}))
    luk_degree = Matrix(luk)

    classical_ok, _ = check_selfextensionality(boolean, ["x1", "x2", "x3"], 2)
    filter_ok, witness = check_selfextensionality(luk_filter, ["x1"], 2)
    degree_ok, _ = check_selfextensionality(luk_degree, ["x1"], 2)

    ok = classical_ok and not filter_ok and degree_ok and witness is not None
    # emitted witness is a real violation
    if witness is not None:
        for left, right in zip(witness.left_args, witness.right_args):
            ok &= interderivable(luk_filter, left, right)
        ok &= not interderivable(luk_filter, witness.left_result, witness.right_result)
    # the canonical pair: x ~ x (.) x holds, negations differ
    sig = luk.signature
    x = parse_formula("x1", sig)
    xx = parse_formula("(odot x1 x1)", sig)
    ok &= interderivable(luk_filter, x, xx)
    ok &= not interderivable(
        luk_filter, parse_formula("(not x1)", sig), parse_formula("(not (odot x1 x1))", sig)
    )
    elapsed = time.time() - start
    report("criterion 5: selfextensionality classification", ok, elapsed)


def test_criterion_6_pareto():
    """Every qualifying aggregator from criteria 1-2 preserves unanimous
    constant values, exhaustively over rational profiles."""
    start = time.time()
    ok = True
    cases = []
    boolean = Matrix(builtin_boolean2(), frozenset({1}))
    bool_agenda = build_agenda(boolean, ["x1", "x2", "(or x1 x2)", "(not x1)"])
    for n in (1, 2, 3):
        cases.append((bool_agenda, n))
    luk_degree = Matrix(builtin_mv_chain(3))
    mv_agenda = build_agenda(luk_degree, ["x1", "x2", "(oplus x1 x2)"])
    cases.append((mv_agenda, 2))

    checked = 0
    for agenda, n in cases:
        algebra = agenda.algebra
        constant_values = {
            algebra.constant(c) for c in agenda.signature.constants
        }
        homs = enumerate_homomorphisms(product_algebra(algebra, n), algebra)
        profiles = enumerate_rational_profiles(agenda, n)
        for h in homs:
            aggregator = aggregator_from_criterion(
                DecisionCriterion(algebra, n, h.mapping), agenda
            )
            # direct constant-tuple preservation
            for c in agenda.signature.constants:
                value = algebra.constant(c)
                ok &= DecisionCriterion(algebra, n, h.mapping)((value,) * n) == value
            for profile in profiles:
                output = aggregator.apply(profile)
                for i in range(len(agenda)):
                    values = {a.values[i] for a in profile.attitudes}
                    if len(values) == 1 and (v := next(iter(values))) in constant_values:
                        checked += 1
                        ok &= output.values[i] == v
    elapsed = time.time() - start
    report("criterion 6: unanimity on constants", ok, elapsed,
           f"{checked} unanimity instances")


def test_criterion_7_witness_constructions():
    """50 randomized target draws per built-in algebra: the constructed
    attitudes and profiles hit their prescribed values and are rational."""
    start = time.time()
    rng = random.Random(20260809)
    boolean = Matrix(builtin_boolean2(), frozenset({1}))
    luk3_degree = Matrix(builtin_mv_chain(3))
    luk4_degree = Matrix(builtin_mv_chain(4))
    diamond = builtin_distributive_lattice(
        ["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)]
    )
    diamond_degree = Matrix(diamond)

    cases = [
        (boolean, ["x1", "(not (not x2))", "(or x1 x2)"]),
        (luk3_degree, ["x1", "(not (not x2))", "(oplus x1 x2)"]),
        (luk4_degree, ["x1", "x2", "(odot x1 x2)"]),
        (diamond_degree, ["x1", "(and x2 x2)", "(or x1 x2)"]),
    ]
    ok = True
    for matrix, texts in cases:
        agenda = build_agenda(matrix, texts)
        level, _ = pseudo_richness(agenda)
        ok &= level >= 2
        size = agenda.algebra.size
        for _ in range(50):
            targets = [rng.randrange(size), rng.randrange(size)]
            deltas, attitude = rational_attitude_with_values(agenda, targets)
            ok &= [attitude.value(d) for d in deltas] == targets
            ok &= is_rational_attitude(attitude)[0]

            tuples = [
                tuple(rng.randrange(size) for _ in range(2)) for _ in range(2)
            ]
            deltas, profile = rational_profile_with_values(agenda, 2, tuples)
            ok &= [profile.value_tuple(d) for d in deltas] == tuples
            ok &= all(is_rational_attitude(a)[0] for a in profile.attitudes)
    elapsed = time.time() - start
    report("criterion 7: prescribed-value witnesses", ok, elapsed,
           "4 algebras x 50 draws")


def test_criterion_8_majority_dilemma():
    """The majority aggregator over 2, N=3, agenda {x1,x2,x1 or x2} is not
    rational: exhaustive search produces an explicit dilemma profile."""
    start = time.time()
    boolean = Matrix(builtin_boolean2(), frozenset({1}))
    agenda = build_agenda(boolean, ["x1", "x2", "(or x1 x2)"])
    aggregator = CriterionAggregator(majority_criterion(agenda.algebra, 3), agenda)
    rep = check_rational_universal(aggregator)
    ok = rep.universal and not rep.rational and rep.irrational_witness is not None
    profile, output = rep.irrational_witness
    ok &= all(is_rational_attitude(a)[0] for a in profile.attitudes)
    ok &= not is_rational_attitude(output)[0]
    # the witness output really is the pointwise majority of the profile
    maj = majority_criterion(agenda.algebra, 3)
    ok &= output.values == tuple(
        maj(profile.value_tuple(f)) for f in agenda.formulas
    )
    elapsed = time.time() - start
    detail = "witness: " + ", ".join(
        str(a.values) for a in profile.attitudes
    ) + f" -> {output.values}"
    report("criterion 8: discursive dilemma", ok, elapsed, detail)
