"""Post-selection confidence intervals for high-dimensional time-series regression."""

from .block_bootstrap import BlockPlan, double_block_bootstrap
from .dgp import (
    CoefVector,
    Dataset,
    DgpConfig,
    InvalidConfigError,
    SETTINGS,
    generate,
    load_dataset,
    make_beta,
    save_dataset,
)
from .factor_model import (
    FactorEstimate,
    complement_projection,
    estimate_factors,
)
from .hybrid import (
    StatisticEngine,
    fit_pipeline,
    hybrid_ci_one_sided,
    hybrid_ci_two_sided,
    invert_lower_bound,
    test_statistic,
)
from .inference import (
    CovEstimate,
    IntervalReport,
    StatConfig,
    covariance,
    hac_meat,
    iv_interval,
    t_interval,
    truncnorm_sf,
)
from .iv_estimator import IvEstimate, SingularGramError, iv_estimate
from .oga import (
    SelectionResult,
    default_iterations,
    hdbic,
    oga,
    oga_hdbic,
    truncate_selection,
)
from .ps import InfeasibleTruncationError, SelectionPolytope, ps_interval
from .resampler import (
    ResampleSet,
    combine_beta,
    combined_estimate,
    generate_w,
    split,
)

__version__ = "0.1.0"
