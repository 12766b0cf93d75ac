"""The Anderson step of the alternation against the plain driver
(`alternate_plain` in tests/oracles.py), and the closed-form L2 fit
(`optimizer.l2_fit`) against the optimum's value summed from the
singular values (`svt_objective`).

The step only ever replaces an outer iteration's starting state by one of
no higher objective, so an accelerated fit must end no higher than the
plain one, in fewer outer iterations where the plain alternation is slow,
and exactly where it stops before the first candidate.
"""

import numpy as np
import pytest

from intact import (
    Hyperparams,
    KernelSpec,
    fit,
    gen_planted_linear,
    kernel,
    kernel_fit,
    optimizer,
    validate_dataset,
)
from intact.optimizer import l2_fit
from oracles import alternate_plain, l2_objective, svt_objective
from test_kernel_reference import README_HP, readme_s_curve

# the rbf-kernel benchmark's fixed training draws
RBF_SEEDS = range(1000, 1004)
# `intact bench` defaults: 150 planted rows, three 6-column views, d = 3
PLANTED = [(seed, rate) for seed in range(3) for rate in (0.1, 0.2, 0.3)]


def contaminated(seed, rate, magnitude=10.0):
    """Planted views with view 0's entries replaced as `intact bench`
    (`robustness_benchmark`) replaces them, and the bench's
    hyperparameters at that seed."""
    _, _, Zs = gen_planted_linear(150, [6, 6, 6], 3, seed=seed, noise_sigma=0.05)
    views = [np.array(Z, dtype=np.float64) for Z in Zs]
    rng = np.random.default_rng(seed)
    n_bad = int(rate * views[0].size)
    flat = views[0].reshape(-1)
    flat[rng.choice(flat.size, size=n_bad, replace=False)] = (
        rng.choice([-1.0, 1.0], size=n_bad) * magnitude
    )
    return validate_dataset(views), Hyperparams(d=3, C1=1e-3, C2=1e-3, seed=seed)


def plain(fitter, *args, **kwargs):
    """`fitter` run with the plain driver in place of `optimizer.alternate`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "alternate", alternate_plain)
        mp.setattr(kernel, "alternate", alternate_plain)
        return fitter(*args, **kwargs)


def outer_iterations(history):
    return len(history.inner_iterations) - 1


def assert_no_higher(history, reference):
    assert history.stop_reason == "objective_tol"
    assert history.monotone_within(1e-9)
    J, J_ref = history.values()[-1], reference.values()[-1]
    assert J <= J_ref * (1.0 + 1e-9)


@pytest.mark.parametrize("seed", RBF_SEEDS)
def test_rbf_fits_end_no_higher_in_at_most_12_outer_iterations(seed):
    ds = readme_s_curve(100, seed)
    ref = plain(kernel_fit, ds, README_HP, KernelSpec("rbf"))[2]
    hist = kernel_fit(ds, README_HP, KernelSpec("rbf"))[2]
    assert_no_higher(hist, ref)
    assert outer_iterations(hist) <= 12 < outer_iterations(ref)
    assert hist.extrapolations >= 1 and ref.extrapolations == 0


@pytest.mark.parametrize("seed, rate", PLANTED)
def test_contaminated_fits_end_no_higher(seed, rate):
    ds, hp = contaminated(seed, rate)
    ref = plain(fit, ds, hp)[2]
    assert_no_higher(fit(ds, hp)[2], ref)


@pytest.mark.parametrize("seed", range(3))
def test_readme_linear_fits_are_bit_identical(seed):
    """README S-curve fits stop before the first candidate is formed."""
    ds = readme_s_curve(500, seed)
    model_ref, emb_ref, ref = plain(fit, ds, README_HP)
    model, emb, hist = fit(ds, README_HP)
    assert hist.objective_trace == ref.objective_trace
    assert hist.inner_iterations == ref.inner_iterations
    assert np.array_equal(emb.X, emb_ref.X)
    assert all(np.array_equal(W, W_ref) for W, W_ref in zip(model.W, model_ref.W))
    assert hist.extrapolations == 0


@pytest.mark.parametrize("seed, rate", PLANTED)
def test_l2_fit_attains_the_svt_objective(seed, rate):
    ds, hp = contaminated(seed, rate)
    J_svt = svt_objective(ds.views, hp.d, hp.C1, hp.C2)
    model, emb = l2_fit(ds, hp)
    J = l2_objective(ds.views, model.W, emb.X, hp.C1, hp.C2)
    assert abs(J - J_svt) <= 1e-12 * J_svt
