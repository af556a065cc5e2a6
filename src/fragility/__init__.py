"""Fragility measures for hypothesis-test and deterministic decisions.

The library quantifies how many case-level outcome modifications it takes
to reverse a decision: exact signed fragility indices for 2x2 tables,
greedy generalized indices restricted to sufficiently likely modifications,
stochastic indices over random case subsets, and an electoral-college
variant with a closed-form stochastic analogue.
"""

from .cases import (
    CaseFrame,
    ModificationPlan,
    Modifier,
    apply_plan,
    empirical_modifier,
    frame_from_table,
    load_csv,
    reverse_plan,
    table_from_frame,
)
from .core import (
    UNBOUNDED,
    FragilityResult,
    fi_2x2_exact,
    gfi_greedy,
    is_unbounded,
    reversible,
    reversible_2x2_exact,
)
from .election import (
    ClosedFormSfi,
    RaceResult,
    StateTally,
    election_gfi,
    load_tally_csv,
    load_us2000,
    sgfi_half_closed_form,
)
from .errors import (
    DataError,
    DiagnosticError,
    FragilityError,
    InvalidParameterError,
    ParseError,
    SchemaError,
    SingularDesignError,
    UnconvergedFitError,
)
from .stats import (
    LogisticFit,
    Table2x2,
    TestSpec,
    fisher_exact_two_sided,
    fisher_test,
    hypergeom_sf,
    is_significant,
    logistic_fit,
    logistic_wald_test,
    wald_p,
)
from .stochastic import (
    ExactSfiResult,
    ReversalEstimate,
    SgfiConfig,
    SgfiIteration,
    SgfiResult,
    exact_sfi_2x2,
    probability_reversal,
    sgfi,
)

__version__ = "0.1.0"

__all__ = [
    "CaseFrame",
    "ClosedFormSfi",
    "DataError",
    "DiagnosticError",
    "ExactSfiResult",
    "FragilityError",
    "FragilityResult",
    "InvalidParameterError",
    "LogisticFit",
    "ModificationPlan",
    "Modifier",
    "ParseError",
    "RaceResult",
    "ReversalEstimate",
    "SchemaError",
    "SgfiConfig",
    "SgfiIteration",
    "SgfiResult",
    "SingularDesignError",
    "StateTally",
    "Table2x2",
    "TestSpec",
    "UNBOUNDED",
    "UnconvergedFitError",
    "apply_plan",
    "election_gfi",
    "empirical_modifier",
    "exact_sfi_2x2",
    "fi_2x2_exact",
    "fisher_exact_two_sided",
    "fisher_test",
    "frame_from_table",
    "gfi_greedy",
    "hypergeom_sf",
    "is_significant",
    "is_unbounded",
    "load_csv",
    "load_tally_csv",
    "load_us2000",
    "logistic_fit",
    "logistic_wald_test",
    "probability_reversal",
    "reverse_plan",
    "reversible",
    "reversible_2x2_exact",
    "sgfi",
    "sgfi_half_closed_form",
    "table_from_frame",
    "wald_p",
]
