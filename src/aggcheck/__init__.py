"""Finite-model checks for judgment aggregation over algebraic logics."""

from .agenda import (
    Agenda,
    agenda_over,
    check_pseudo_rich,
    equivalent_variable,
    is_strictly_contingent,
    pseudo_richness,
    strictly_contingent_formulas,
)
from .aggregation import (
    AttitudeFunction,
    CriterionAggregator,
    DecisionCriterion,
    ExtensionalAggregator,
    Profile,
    aggregator_from_criterion,
    check_pareto,
    check_rational_universal,
    check_systematicity,
    constant_criterion,
    criterion_from_aggregator,
    enumerate_rational_attitudes,
    enumerate_rational_profiles,
    is_rational_attitude,
    majority_criterion,
    projection_criterion,
    qualifying_criteria,
    rational_attitude_with_values,
    rational_profile_with_values,
)
from .algebra import (
    AlgebraHomomorphism,
    FiniteAlgebra,
    builtin_boolean2,
    builtin_distributive_lattice,
    builtin_mv_chain,
    enumerate_homomorphisms,
    evaluate,
    is_homomorphism,
    product_algebra,
    truth_vector,
)
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
    is_consistent,
    material_implication,
    subjunctive_implication,
)
from .semantics import (
    BoundedConsequence,
    Matrix,
    SFilter,
    check_closure_laws,
    check_selfextensionality,
    entails,
    generate_sfilter,
    interderivable,
)
from .syntax import (
    App,
    Formula,
    Signature,
    Var,
    apply_substitution,
    bounded_closure,
    parse_formula,
    print_formula,
)

__version__ = "0.1.0"
