"""Regularized solution of ill-posed linear equations from repeated noisy
measurements with unknown noise distribution.

The pipeline mirrors the statistical model: average n i.i.d. measurements,
estimate the noise level of the average from the sample itself, then choose
the regularization parameter either a priori or by the discrepancy principle
(optionally guarded by an emergency stop), applied to a filter-based
regularizer in the singular basis of the operator.
"""

from .errors import (
    AveregError,
    ConfigError,
    DegenerateBatchError,
    InputError,
    NonTerminationError,
    NumericalError,
    StudyError,
)
from .filters import (
    FilterConstantsReport,
    FilterSpec,
    RegularizedSolution,
    apply_regularizer,
    filter_value,
    residual_norm,
    verify_filter_constants,
)
from .measurements import (
    BinaryOptionParams,
    CoefficientGaussian,
    DirectionGaussian,
    HeavyTailed,
    MeasurementBatch,
    delta_est,
    delta_true,
    draw_batch,
    heavy_tail_weights,
    load_batch_csv,
)
from .rng import RandomStream
from .selection import (
    AprioriRule,
    ChoiceResult,
    apriori_alpha,
    discrepancy_principle,
)
from .spectral import (
    CoefficientVector,
    SpectralDecomposition,
    counterexample_direction,
    counterexample_operator,
    embed_solution,
    load_matrix_csv,
    project_data,
    project_solution,
    svd,
)
from .study import (
    DiscrepancyRule,
    ReplicationRecord,
    Scenario,
    StudyConfig,
    StudyResult,
    Summary,
    binary_option_truth,
    build_scenario,
    default_binopt_config,
    default_counterexample_config,
    default_heat_config,
    format_summary_table,
    heat_like_operator,
    integration_operator,
    run_study,
    solve_rule,
    summarize,
    write_study_csvs,
)

__version__ = "0.1.0"
