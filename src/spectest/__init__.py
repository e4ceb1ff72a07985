"""Frequency-domain tests for structured spectral density matrices.

The package estimates the spectral density of a multivariate stationary
series, fits a structured null model (independent coordinates, separable
covariance, or a graphical model with missing partial covariances), and
measures the gap with eigenvalue-based discrepancies whose null mean and
variance are known, yielding standard normal test statistics.
"""

from types import ModuleType as _ModuleType

from .divergence import J, KL, QUADRATIC, Discrepancy, chernoff, discrepancy
from .errors import (
    AlignmentMismatch,
    BandwidthTooLarge,
    DegenerateVariance,
    EmptyGrid,
    NoConvergence,
    NoUsableSpan,
    NonNumeric,
    NonPositiveEigenvalue,
    NonStationary,
    NotPositiveDefinite,
    ParseError,
    RaggedRows,
    SingularCovariance,
    SpectestError,
    TooShort,
)
from .hermitian import (
    as_hermitian,
    inverse_pd,
    is_positive_definite,
    relative_eigenvalues_stack,
)
from .hypotheses import (
    EdgeSet,
    EtaSigma,
    GraphicalModel,
    IndependenceModel,
    SeparableModel,
    covariance_selection,
    eta_sigma_generic,
    model_from_name,
    mu_tensor,
    parse_edge_list,
)
from .inference import (
    StatisticVariant,
    TestReport,
    block_indices,
    decide,
    normal_quantile,
    raw_statistic,
    run_many,
    run_test,
    standardize,
)
from .simulation import (
    McConfig,
    McSummary,
    VarOneProcess,
    benchmark_process,
    config_manifest,
    null_summary,
    power_rows,
    replication_seed,
    simulate_var1,
    size_adjusted_power,
    summary_rows,
    write_summary_csv,
)
from .spectral import (
    FourierFrame,
    SpectralSequence,
    WeightKernel,
    cvll_score,
    cvll_select,
    default_cvll_grid,
    dft,
    kernel_constants,
    smoothed_periodogram,
)

__version__ = "0.1.0"

# every public name imported above, and nothing else
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
