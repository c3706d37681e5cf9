"""Regularization of linear ill-posed problems under logarithmic and mixed
source conditions: discrete positive-type operators, fractional powers and
the operator logarithm, parametric regularization schemes, parameter choice
rules, and a reproducible rate-experiment harness."""

from .errors import (
    ConfigError,
    DimensionMismatchError,
    DomainError,
    IllposedError,
    QuadratureError,
)
from .fractional import (
    InterpolationReport,
    check_interpolation_inequality,
    fractional_power_exact,
)
from .grid import GridFunction
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    Problem,
    RateRow,
    add_noise,
    build_operator,
    build_problem,
    check_axioms,
    error_bound,
    fit_rate,
    load_config,
    parse_config,
    run_rate_experiment,
    write_report,
)
from .loworder import (
    EULER_GAMMA,
    LogExampleParams,
    MembershipReport,
    log_kernel_apply_at,
    log_kernel_derivative,
    sample_u_log,
    verify_membership,
)
from .operator_log import (
    LogQuotientReport,
    SourceCondition,
    default_p_schedule,
    log_apply,
    make_mixed_smooth_element,
)
from .operators import (
    DiscreteOperator,
    abel_operator,
    apply,
    diagonal_operator,
    estimate_postype_constant,
    exp_decay_diagonal,
    integration_operator,
    product_integration_weights,
    shifted_solve,
)
from .parameter_choice import (
    ChiParams,
    DiscrepancyConfig,
    DiscrepancyResult,
    apriori_alpha,
    chi,
    chi_inverse,
    discrepancy_alpha,
    discrepancy_alphas,
)
from .schemes import (
    QualificationReport,
    Regularizer,
    RegularizerConfig,
    qualification_checks,
    regularize,
    regularizer,
)

__version__ = "0.1.0"
