"""The package's public surface: a new export has to be added here on
purpose, and removed names stay removed."""

import importlib
import inspect
import typing

import pytest

import intact

PUBLIC = [
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

# (module, name) of each removed definition: the per-example and per-view
# solver loop, whose solves are the batched sweeps at n = 1 and m = 1,
# wrappers nothing in the package called, and the map-sweep closure the
# one fit path (`optimizer._fit_stack`) replaced
REMOVED = [
    ("optimizer", "SubproblemResult"),
    ("optimizer", "_iterate"),
    ("optimizer", "solve_x"),
    ("optimizer", "solve_w"),
    ("optimizer", "update_w_once"),
    ("optimizer", "objective_w"),
    ("optimizer", "_view_residual_sq"),
    ("optimizer", "_map_sweep"),
    ("kernel", "kernel_embed"),
    ("kernel", "kernel_residual_sq"),
    ("kernel", "kernel_w_norm_sq"),
    ("kernel", "_psd_spectrum"),
    ("estimators", "cauchy_rho"),
    ("estimators", "cauchy_psi"),
    ("estimators", "residual_weight"),
    ("errors", "NegativeResidual"),
]

# (module, function, parameter) of each removed parameter: a model carries
# its hyperparameters, so no call takes a second set, and a count that only
# one value ever reached became a module constant
REMOVED_PARAMETERS = [
    ("inference", "embed_example", "hp"),
    ("inference", "embed_examples", "hp"),
    ("inference", "view_losses", "hp"),
    ("inference", "stability_bound", "hp"),
    ("inference", "local_convexity_check", "hp"),
    ("inference", "local_convexity_check", "n_samples"),
    ("inference", "stability_probe", "hp"),
    ("inference", "stability_probe", "convexity_samples"),
    ("optimizer", "majorant_value", "hp"),
    ("optimizer", "_example_system", "hp"),
    ("optimizer", "_winsorize_columns", "n_scales"),
    ("evaluate", "robustness_benchmark", "seed"),
]


def test_all_is_the_pinned_sorted_list():
    assert PUBLIC == sorted(set(PUBLIC))
    assert intact.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in intact.__all__:
        assert getattr(intact, name) is not None


@pytest.mark.parametrize("name", [n for n in PUBLIC if callable(getattr(intact, n))])
def test_type_hints_resolve(name):
    # every annotation names something its module imports
    typing.get_type_hints(getattr(intact, name))


@pytest.mark.parametrize("module, name", REMOVED)
def test_removed_names_are_absent(module, name):
    assert not hasattr(intact, name)
    assert not hasattr(importlib.import_module(f"intact.{module}"), name)


@pytest.mark.parametrize("module, function, parameter", REMOVED_PARAMETERS)
def test_removed_parameters_are_absent(module, function, parameter):
    call = getattr(importlib.import_module(f"intact.{module}"), function)
    assert parameter not in inspect.signature(call).parameters
