"""Robust multi-view latent (intact) space learning.

Multiple noisy, individually insufficient feature views of the same
examples are explained by per-view linear (or kernelized) maps from a
shared latent space, fitted by minimizing a Cauchy-loss reconstruction
objective with an iteratively reweighted residual solver.
"""

from . import errors
from .core import (
    FitHistory,
    Hyperparams,
    IntactEmbedding,
    IntactModel,
    MultiViewDataset,
    StandardizeRecord,
    standardize_views,
    validate_dataset,
)
from .evaluate import (
    AlignmentScore,
    RobustnessReport,
    align_to_truth,
    knn_classify,
    reconstruction_error,
    robustness_benchmark,
)
from .inference import (
    StabilityReport,
    embed_example,
    embed_examples,
    local_convexity_check,
    map_spectral_norms,
    stability_bound,
    stability_probe,
    view_losses,
)
from .kernel import (
    KernelModel,
    KernelSpec,
    gram,
    kernel_embed_many,
    kernel_fit,
    median_heuristic_gamma,
)
from .modelio import load_xyz_point_cloud
from .optimizer import (
    alternation_objective,
    fit,
    grad_x,
    majorant_curvature,
    majorant_value,
    objective_full,
    objective_x,
    update_x_once,
)
from .synth import (
    NoiseSpec,
    add_window_noise,
    gen_planted_linear,
    gen_s_curve,
    make_noisy_views,
    project_to_planes,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentScore",
    "FitHistory",
    "Hyperparams",
    "IntactEmbedding",
    "IntactModel",
    "KernelModel",
    "KernelSpec",
    "MultiViewDataset",
    "NoiseSpec",
    "RobustnessReport",
    "StabilityReport",
    "StandardizeRecord",
    "add_window_noise",
    "align_to_truth",
    "alternation_objective",
    "embed_example",
    "embed_examples",
    "errors",
    "fit",
    "gen_planted_linear",
    "gen_s_curve",
    "grad_x",
    "gram",
    "kernel_embed_many",
    "kernel_fit",
    "knn_classify",
    "load_xyz_point_cloud",
    "local_convexity_check",
    "majorant_curvature",
    "majorant_value",
    "make_noisy_views",
    "map_spectral_norms",
    "median_heuristic_gamma",
    "objective_full",
    "objective_x",
    "project_to_planes",
    "reconstruction_error",
    "robustness_benchmark",
    "stability_bound",
    "stability_probe",
    "standardize_views",
    "update_x_once",
    "validate_dataset",
    "view_losses",
]
