"""Spatial factorization of shot charts.

Per-player intensity surfaces are inferred with a log-Gaussian Cox model
and elliptical slice sampling, stacked and factorized into non-negative
bases, and topped with a hierarchical per-basis efficiency model.
"""

# The one place the version is set: pyproject.toml reads it, and the
# pipeline keys every stage on it, so it is set before the submodule imports.
__version__ = "0.4.0"

from .court import (
    CountMatrix,
    CourtGrid,
    ShotTable,
    build_count_matrix,
    read_count_csv,
    read_labeled_csv,
    read_shot_csv,
    split_holdout,
    tile_indices,
    write_count_csv,
    write_labeled_csv,
    write_shot_csv,
)
from .efficiency import (
    AdjustedLoadings,
    EfficiencyConfig,
    EfficiencyFit,
    EfficiencyModel,
    adjust_weights,
    efficiency_surface,
    fit_efficiency,
    gibbs_beta_step,
    gibbs_sigma_update,
    predict_fg_pct,
    sample_shot_types,
    shot_type_posterior,
)
from .evaluate import (
    EvalConfig,
    EvalReport,
    basis_recovery_score,
    heldout_loglik,
)
from .gp import CovFactor, KernelHyper, build_cov_factor, sample_field, squared_exponential
from .lgcp import (
    LgcpConfig,
    ess_step,
    ess_update,
    fit_cohort,
    fit_lgcp,
)
from .nmf import (
    FactorModel,
    NmfConfig,
    PcaModel,
    fit_nmf,
    fit_pca,
    frobenius_loss,
    kl_loss,
    pca_reconstruct,
)
from .pipeline import PipelineConfig, load_config, run_pipeline
from .render import read_heatmap, render_heatmap
from .synth import (
    PlantedTruth,
    SynthConfig,
    generate_dataset,
    make_planted_bases,
    make_planted_truth,
    sample_outcomes,
    sample_player_shots,
)

__all__ = [
    "AdjustedLoadings",
    "CountMatrix",
    "CourtGrid",
    "CovFactor",
    "EfficiencyConfig",
    "EfficiencyFit",
    "EfficiencyModel",
    "EvalConfig",
    "EvalReport",
    "FactorModel",
    "KernelHyper",
    "LgcpConfig",
    "NmfConfig",
    "PcaModel",
    "PipelineConfig",
    "PlantedTruth",
    "ShotTable",
    "SynthConfig",
    "adjust_weights",
    "basis_recovery_score",
    "build_count_matrix",
    "build_cov_factor",
    "efficiency_surface",
    "ess_step",
    "ess_update",
    "fit_cohort",
    "fit_efficiency",
    "fit_lgcp",
    "fit_nmf",
    "fit_pca",
    "frobenius_loss",
    "generate_dataset",
    "gibbs_beta_step",
    "gibbs_sigma_update",
    "heldout_loglik",
    "kl_loss",
    "load_config",
    "make_planted_bases",
    "make_planted_truth",
    "pca_reconstruct",
    "predict_fg_pct",
    "read_count_csv",
    "read_heatmap",
    "read_labeled_csv",
    "read_shot_csv",
    "render_heatmap",
    "run_pipeline",
    "sample_field",
    "sample_outcomes",
    "sample_player_shots",
    "sample_shot_types",
    "shot_type_posterior",
    "split_holdout",
    "squared_exponential",
    "tile_indices",
    "write_count_csv",
    "write_labeled_csv",
    "write_shot_csv",
]
