"""Convergence tests for positive series and the recurrence classifiers built on them.

The core is a ratio-test hierarchy indexed by an iterated-logarithm depth K:
extraction of the deepest correction coefficient s_n from a term ratio,
fixed-depth verdicts, and an adaptive classifier that escalates depth until
the evidence is trustworthy.
Applied layers classify birth-death chains and reflected random walks as
recurrent or transient, with a deterministic Monte Carlo simulator for
empirical corroboration.
"""

from .birthdeath import (
    BirthDeathRates,
    Classification,
    Fate,
    bdp_classify,
    recurrence_ratio,
)
from .convergence import (
    ClassifyConfig,
    Decision,
    RatioSpec,
    Verdict,
    adaptive_classify,
    extended_bdm_test,
    extract_sn,
    sample_grid,
)
from .errors import (
    DemorganError,
    DomainError,
    EvalError,
    ExpressionSyntaxError,
    InvalidDrift,
    InvalidWindow,
    UnsupportedLevel,
)
from .expr import Expression, parse_expression
from .iterlog import (
    K_MAX_NUMERIC,
    expansion_increment,
    iterlog,
    iterlog_product,
    min_domain,
    zeta_weight,
)
from .walk import (
    DriftSpec,
    RWClassification,
    SimulationReport,
    rw_classify,
    rw_to_bdp,
    simulate,
    step_probabilities,
)

__version__ = "1.0.0"

__all__ = [
    "BirthDeathRates",
    "Classification",
    "ClassifyConfig",
    "Decision",
    "DemorganError",
    "DomainError",
    "DriftSpec",
    "EvalError",
    "Expression",
    "ExpressionSyntaxError",
    "Fate",
    "InvalidDrift",
    "InvalidWindow",
    "K_MAX_NUMERIC",
    "RWClassification",
    "RatioSpec",
    "SimulationReport",
    "UnsupportedLevel",
    "Verdict",
    "adaptive_classify",
    "bdp_classify",
    "expansion_increment",
    "extended_bdm_test",
    "extract_sn",
    "iterlog",
    "iterlog_product",
    "min_domain",
    "parse_expression",
    "recurrence_ratio",
    "rw_classify",
    "rw_to_bdp",
    "sample_grid",
    "simulate",
    "step_probabilities",
    "zeta_weight",
]
