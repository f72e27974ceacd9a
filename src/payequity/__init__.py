"""Bayesian hierarchical pay-equity engine.

Fits a crossed random-effects model of log-salary by Hamiltonian Monte
Carlo, checks convergence, and turns the posterior into counterfactual
wage-gap reports.  A dummy-coded least-squares baseline is included for
comparison.
"""

__version__ = "0.1.0"

from .records import Workforce, ExclusionLog, load_csv, write_csv
from .factors import FactorIndex, ImbalanceSummary, build_factor_index, summarize_imbalance
from .synthetic import SynthConfig, GroundTruth, GroupSizeLaw, PopulationTruth, generate_synthetic
from .model import HierarchicalModel, ModelSpec, ParamLayout, build_layout, natural_param_names
from .hmc import PosteriorDraws, SamplerConfig, run_chains
from .diagnostics import (
    DiagnosticSummary,
    convergence_report,
    effective_sample_size,
    split_rhat,
)
from .report import (
    GapReport,
    GroupGapSummary,
    Predictions,
    adjusted_cents_to_dollar,
    build_gap_report,
    counterfactual_predictions,
    fit_metrics,
    group_gap_summaries,
    raise_recommendations,
)
from .baseline import (
    ComparisonTable,
    DesignMatrix,
    LmFit,
    build_design_matrix,
    compare_estimates,
    fit_ols,
)

__all__ = [
    "__version__",
    "Workforce", "ExclusionLog", "load_csv", "write_csv",
    "FactorIndex", "ImbalanceSummary", "build_factor_index", "summarize_imbalance",
    "SynthConfig", "GroundTruth", "GroupSizeLaw", "PopulationTruth", "generate_synthetic",
    "HierarchicalModel", "ModelSpec", "ParamLayout", "build_layout", "natural_param_names",
    "PosteriorDraws", "SamplerConfig", "run_chains",
    "DiagnosticSummary", "convergence_report", "effective_sample_size", "split_rhat",
    "GapReport", "GroupGapSummary", "Predictions",
    "adjusted_cents_to_dollar", "build_gap_report", "counterfactual_predictions",
    "fit_metrics", "group_gap_summaries", "raise_recommendations",
    "ComparisonTable", "DesignMatrix", "LmFit",
    "build_design_matrix", "compare_estimates", "fit_ols",
]
