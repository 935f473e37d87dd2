"""Variable selection toolkit for multiple linear regression.

Provides error-based and correlation feature rankings, best-subset search
by multi-restart alternating optimization, Gibbs sampling of low-error
subsets with per-feature inclusion probabilities, information-criterion
and p-value model-order selection, and Monte Carlo cross-validation, all
behind a batch CLI that writes reproducible reports.
"""

__version__ = "0.1.0"

from .data import Dataset, FeatureSubset, make_dataset
from .errors import (
    BudgetExceededError,
    ConfigError,
    DegenerateStepError,
    IngestError,
    InvalidSubsetError,
    RankDeficiencyError,
    VarselError,
)
from .gibbs import (
    ExactDistribution,
    GibbsChain,
    GibbsConfig,
    InclusionProfile,
    exact_target_enumeration,
    full_conditional_weights,
    gibbs_run,
    inclusion_frequencies,
)
from .ingest import ingest_csv, write_dataset_csv
from .linmodel import (
    CostCache,
    DesignMatrix,
    FitResult,
    build_design_matrix,
    fit_least_squares,
    fit_subset,
    neighbour_costs,
    subset_cost,
)
from .pipeline import RunConfig, run_pipeline
from .ranking import (
    Ranking,
    RankingMethod,
    coefficient_pvalues,
    error_curve,
    rank_add_max_error,
    rank_backward_elimination,
    rank_correlation,
    rank_features,
    rank_forward_selection,
    rank_pvalues,
    rank_remove_max_error,
)
from .search import (
    SearchResult,
    alternating_optimization,
    exhaustive_best_subset,
    multi_restart_search,
)
from .selection import (
    Criterion,
    OrderSelection,
    elbow_annotation,
    information_criterion_value,
    pvalue_stopping,
    select_order,
)
from .validation import (
    CorrelationGraph,
    CvReport,
    NamedModel,
    correlation_graph,
    fit_named_model,
    monte_carlo_cv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
