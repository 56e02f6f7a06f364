"""The validation raises no other test reaches: one call each, with the
exception type it raises and its exact message.

``bao_from_frame``'s three AssertionErrors are left out: they check the frame
algebra it built, and cannot fire for a reflexive frame, the only kind it
accepts.
"""

import pytest

from aggcheck.agenda import Agenda, agenda_over
from aggcheck.aggregation import (
    AttitudeFunction,
    CriterionAggregator,
    ExtensionalAggregator,
    Profile,
    aggregator_from_criterion,
    check_systematicity,
    criterion_from_aggregator,
    majority_criterion,
    projection_criterion,
    rational_attitude_with_values,
)
from aggcheck.algebra import (
    DecisionCriterion,
    FiniteAlgebra,
    builtin_boolean2,
    builtin_mv_chain,
    closure_vectors,
    enumerate_homomorphisms,
    is_homomorphism,
    product_algebra,
    search_tables,
)
from aggcheck.errors import NotQualifyingError
from aggcheck.impossibility import classify_dictator
from aggcheck.semantics import Matrix
from aggcheck.syntax import App, Var, validate_formula

B2, L3 = builtin_boolean2(), builtin_mv_chain(3)
SIG = B2.signature
X1 = agenda_over([Var("x1")], Matrix(B2, frozenset({1})))  # the golden agenda_x1.json
OTHER = agenda_over([Var("x2")], X1.matrix)
LOW, HIGH = AttitudeFunction(X1, (0,)), AttitudeFunction(X1, (1,))
ONE_VOTER = Profile((LOW,))
DICTATOR_0 = projection_criterion(B2, 2, 0)
NOT_A_HOMOMORPHISM = DecisionCriterion(L3, 1, (2, 1, 0))  # over L3, not X1's algebra

CASES = {
    # agenda, attitudes and profiles
    "agenda algebra of another signature": (
        lambda: Agenda((Var("x1"),), X1.matrix, L3),
        ValueError, "algebra signature differs from the agenda's"),
    "attitude value outside the carrier": (
        lambda: AttitudeFunction(X1, (2,)), ValueError, "attitude values outside the carrier"),
    "profile over two agendas": (
        lambda: Profile((LOW, AttitudeFunction(OTHER, (0,)))),
        ValueError, "attitudes must share one agenda"),
    # criteria and aggregators
    "projection onto a missing voter": (
        lambda: projection_criterion(B2, 2, 2), ValueError, "voter index out of range"),
    "majority over three values": (
        lambda: majority_criterion(L3, 3), ValueError, "majority needs a two-element carrier"),
    "prescribed value outside the carrier": (
        lambda: rational_attitude_with_values(X1, [2]), ValueError, "targets outside the carrier"),
    "criterion over another algebra, checked before the homomorphism": (
        lambda: aggregator_from_criterion(NOT_A_HOMOMORPHISM, X1),
        ValueError, "criterion and agenda use different algebras"),
    "criterion aggregator applied to too few voters": (
        lambda: CriterionAggregator(DICTATOR_0, X1).apply(ONE_VOTER),
        ValueError, "profile has the wrong number of voters"),
    "table row over another agenda": (
        lambda: ExtensionalAggregator(X1, 1, ((Profile((AttitudeFunction(OTHER, (0,)),)), LOW),)),
        ValueError, "table rows must use the aggregator's agenda"),
    "table row with too few voters": (
        lambda: ExtensionalAggregator(X1, 2, ((ONE_VOTER, LOW),)),
        ValueError, "profile has the wrong number of voters"),
    "table row repeated": (
        lambda: ExtensionalAggregator(X1, 1, ((ONE_VOTER, LOW), (ONE_VOTER, HIGH))),
        ValueError, "duplicate profile in table"),
    "extensional aggregator applied off its domain": (
        lambda: ExtensionalAggregator(X1, 1, ()).apply(ONE_VOTER),
        ValueError, "profile outside the aggregator's domain"),
    "unknown systematicity level": (
        lambda: check_systematicity(CriterionAggregator(DICTATOR_0, X1), "bogus"),
        ValueError, "unknown level 'bogus'"),
    # the golden x1 N=3 table that only the census finds: rational, universal,
    # strongly systematic on x1 alone, and no homomorphism
    "majority on x1 extracted": (
        lambda: criterion_from_aggregator(CriterionAggregator(majority_criterion(B2, 3), X1)),
        NotQualifyingError, "extracted criterion is not a homomorphism (fails at or on (1, 2)); "
                            "the aggregator does not qualify"),
    "dictator of three values": (
        lambda: classify_dictator(NOT_A_HOMOMORPHISM),
        ValueError, "dictator classification is defined over a 2-element carrier"),
    # algebras and homomorphisms
    "two tables for one connective": (
        lambda: FiniteAlgebra(SIG, B2.carrier, (*B2.ops, B2.ops[0])),
        ValueError, "duplicate operation name"),
    "a connective without a table": (
        lambda: FiniteAlgebra(SIG, B2.carrier, B2.ops[1:]),
        ValueError, "missing table for connective 'not'"),
    "a unary connective as a constant": (
        lambda: B2.constant("not"), ValueError, "'not' is not a constant"),
    "closure at depth -1": (
        lambda: closure_vectors([Var("x1")], ["x1"], B2, -1),
        ValueError, "depth must be nonnegative"),
    "zeroth power": (lambda: product_algebra(B2, 0), ValueError, "power must be >= 1"),
    "mapping between signatures": (
        lambda: is_homomorphism((0, 1), B2, L3),
        ValueError, "source and target must share a signature"),
    "mapping short of the carrier": (
        lambda: is_homomorphism((0,), B2, B2),
        ValueError, "mapping must be total on the source carrier"),
    "mapping out of the carrier": (
        lambda: is_homomorphism((0, 2), B2, B2), ValueError, "mapping has out-of-range values"),
    "homomorphisms between signatures": (
        lambda: enumerate_homomorphisms(B2, L3),
        ValueError, "source and target must share a signature"),
    "symmetry that is no permutation": (
        lambda: search_tables(2, 2, [], 100, symmetries=[(0, 0)]),
        ValueError, "a symmetry must be a permutation of the table's slots"),
    # formulas
    "arity of an unknown connective": (
        lambda: SIG.arity("xor"), KeyError, "unknown connective 'xor'"),
    "variable name that is no name": (
        lambda: validate_formula(Var("1x"), SIG), ValueError, "invalid variable name '1x'"),
    "variable named like a connective": (
        lambda: validate_formula(App("not", (Var("or"),)), SIG),
        ValueError, "variable name 'or' collides with a connective"),
    "unknown connective": (
        lambda: validate_formula(App("xor", (Var("x1"), Var("x2"))), SIG),
        ValueError, "unknown connective 'xor'"),
    "connective with too few arguments": (
        lambda: validate_formula(App("or", (Var("x1"),)), SIG),
        ValueError, "connective 'or' expects 2 arguments, got 1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_call_raises_its_message(case):
    call, error, message = CASES[case]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert raised.value.args == (message,)
