"""Finite-model checks for judgment aggregation over algebraic logics."""

from .agenda import (
    Agenda,
    agenda_over,
    equivalent_variable,
    is_strictly_contingent,
    pseudo_richness,
    strictly_contingent_formulas,
)
from .aggregation import (
    AttitudeFunction,
    CriterionAggregator,
    ExtensionalAggregator,
    Profile,
    aggregator_from_criterion,
    check_rational_universal,
    check_systematicity,
    criterion_from_aggregator,
    enumerate_rational_attitudes,
    enumerate_rational_profiles,
    majority_criterion,
    projection_criterion,
    rational_attitude_with_values,
)
from .algebra import (
    AlgebraHomomorphism,
    DecisionCriterion,
    FiniteAlgebra,
    builtin_boolean2,
    builtin_mv_chain,
    enumerate_homomorphisms,
    evaluate,
    is_homomorphism,
    product_algebra,
)
from .census import qualifying_criteria
from .errors import (
    AggcheckError,
    BudgetExceededError,
    EvaluationError,
    FormulaSyntaxError,
)
from .impossibility import (
    UltrafilterView,
    classify_dictator,
    decisive_coalitions,
    is_ultrafilter,
)
from .modal import (
    KripkeFrame,
    bao_from_frame,
    check_subjunctive_conditions,
    material_implication,
    small_model_bound,
    subjunctive_implication,
)
from .oracles import (
    all_valuations,
    entails,
    interderivable,
    is_consistent,
    is_rational_attitude,
    reflexive_frames,
)
from .semantics import Matrix, check_selfextensionality
from .syntax import (
    App,
    Formula,
    Signature,
    Var,
    bounded_closure,
    parse_formula,
    print_formula,
)

__version__ = "0.1.0"
