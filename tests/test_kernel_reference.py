"""Kernel mode against the atom-coordinate fit (tests/oracles.py).

kernel_fit runs the linear map solver on exact kernel features; the
reference solves for the atoms directly. Both run the same driver, so
they must take the same number of outer iterations and reach the same
objective up to round-off.
"""

import numpy as np
import pytest

from intact import (
    Hyperparams,
    KernelSpec,
    NoiseSpec,
    gen_planted_linear,
    gen_s_curve,
    kernel_fit,
    make_noisy_views,
    project_to_planes,
    standardize_views,
    validate_dataset,
)
from intact.kernel import kernel_alternation_objective
from oracles import kernel_fit_atoms

README_HP = Hyperparams(d=3, C1=1e-4, C2=1e-4, seed=0)


def readme_s_curve(n, seed):
    """README S-curve views (9 views at 20 dB), standardized as
    `intact train` does."""
    base = project_to_planes(gen_s_curve(n, seed=seed))
    views = make_noisy_views(base, NoiseSpec(20.0, 0.3, 3, seed))
    return standardize_views(validate_dataset(views))[0]


def planted(n, seed):
    _, _, Zs = gen_planted_linear(n, [4, 5, 3], 2, seed=seed, noise_sigma=0.05)
    return validate_dataset(Zs)


# (dataset maker, args, hyperparameters, kernel); the rbf n = 100 draws
# are the rbf-kernel benchmark's fixed training sets (synth seeds 1000-1003)
CASES = {
    **{f"rbf-n100-seed{s}": (readme_s_curve, (100, s), README_HP, "rbf")
       for s in range(1000, 1004)},
    "rbf-n300": (readme_s_curve, (300, 0), README_HP, "rbf"),
    "linear-n100": (readme_s_curve, (100, 1000), README_HP, "linear"),
    "linear-planted": (planted, (40, 3), Hyperparams(d=2, C1=1e-3, C2=1e-3, seed=3), "linear"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_fit_matches_atom_reference(case):
    make, args, hp, kind = CASES[case]
    ds = make(*args)
    _, _, _, ref = kernel_fit_atoms(ds, hp, KernelSpec(kind))
    model, emb, hist = kernel_fit(ds, hp, KernelSpec(kind))
    assert len(hist.inner_iterations) == len(ref.inner_iterations)
    assert hist.stop_reason == ref.stop_reason
    J, J_ref = hist.values()[-1], ref.values()[-1]
    assert abs(J - J_ref) <= 1e-9 * abs(J_ref)

    # the saved atoms give the trace's objective back through the Grams
    km = model.kernel_part
    J_atoms = kernel_alternation_objective(km.A, km.gram, emb.X, hp)
    assert abs(J_atoms - J) <= 1e-9 * abs(J)
