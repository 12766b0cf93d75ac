"""Alternating reweighted-residual training of the intact-space model.

One driver, `alternate`, fits both the linear and the kernel model. Each
outer iteration runs one sweep of per-example latent solves followed by
one sweep of per-view map solves. Every solve is a fixed-point
iteration: residual-dependent weights followed by a closed-form ridge
system. Both sweeps decrease the alternation objective

    (1/(m n)) sum_{v,i} log(1 + ||z_i^v - W_v x_i||^2 / c^2)
        + (C1/m) sum_v ||W_v||_F^2 + (C2/n) sum_i ||x_i||^2

whose per-example and per-view restrictions are exactly the subproblems
the sweeps minimize, so the recorded trace is monotone by construction.

The data term depends on X and the maps only through the products
W_v x_i, so it does not change under X -> X T, W_v -> W_v T^-T; plain
alternation creeps along that direction. Every outer iteration after
the first therefore opens with a gauge step (`balance_gauge`) that
minimizes the two penalties over T in closed form, the variational form
of the nuclear norm. It is exact block descent, and its decrease is part
of the "x-update" half step that follows it.

The driver sees a model only through its per-view stacks G_v = W_v^T W_v,
P_v = Z_v W_v and the squared row norms of Z_v. Residuals, weights, the
objective and the map penalty ||W_v||_F^2 = trace(G_v) all follow from
them. Kernel mode (kernel.py) runs the driver and the one map solver,
`fit_view_map`, on exact kernel features. The per-example functions
(`objective_x`, `grad_x`, `update_x_once`, `solve_x`, `majorant_*`) are
the batched latent step at n = 1 and accept models of either mode.
`objective_full` keeps the sum-normalized regularizers for standalone use.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (
    FitHistory,
    Hyperparams,
    IntactEmbedding,
    IntactModel,
    MultiViewDataset,
    as_matrix,
    freeze_array,
)
from .errors import DivergenceDetected, ShapeMismatch, SingularSystem
from .estimators import rho_sq, weight_sq

# A half step may exceed exact descent only through round-off; anything
# beyond this relative slack is treated as a bug.
DIVERGENCE_REL_TOL = 1e-6

# The gauge step skips itself when an SPD matrix it factors has an
# eigenvalue ratio at or below this.
GAUGE_RCOND = 1e-12


@dataclass(frozen=True, eq=False)
class SubproblemResult:
    """Outcome of one inner reweighted solve (latent point or view map)."""

    solution: np.ndarray
    iterations: int
    final_residuals: np.ndarray
    objective_before: float
    objective_after: float
    objective_trace: tuple


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------

def _spd_solve(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve H X = B for symmetric positive-definite H; H may be one
    (d, d) system or a stack (..., d, d) with B of shape (..., d, k).

    NumPy's Cholesky factorization certifies that H is positive definite;
    the solve is then one np.linalg.solve call. At d = the latent
    dimension per-call overhead dominates, and this is faster than two
    triangular solves with the factor, or than scipy's cho_solve.
    """
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            "reweighted system is not positive definite; "
            "a positive regularizer guarantees solvability"
        ) from exc
    return np.linalg.solve(H, B)


# ---------------------------------------------------------------------------
# residuals, stacks and the objective
# ---------------------------------------------------------------------------

def _view_residual_sq(Z, X, W) -> np.ndarray:
    """Squared residual norms ||z_i - W x_i||^2 of one view, shape (n,)."""
    R = np.asarray(Z, dtype=np.float64) - X @ W.T
    return np.einsum("ij,ij->i", R, R)


def _view_stacks(views, W_list):
    """Per-view quantities the latent sweep and the objective read:
    G_v = W_v^T W_v, P_v = Z_v W_v, and squared row norms of Z_v."""
    G = np.array([Wv.T @ Wv for Wv in W_list])
    P = np.array([np.asarray(Z) @ Wv for Z, Wv in zip(views, W_list)])
    znorm = np.array([np.einsum("ij,ij->i", Z, Z) for Z in views])
    return G, P, znorm


def _as_rows(view_rows, dims) -> list:
    """One float row matrix per view, checked against the model's widths."""
    rows = [np.atleast_2d(np.asarray(Z, dtype=np.float64)) for Z in view_rows]
    if len(rows) != len(dims):
        raise ShapeMismatch(f"got {len(rows)} views for a model with {len(dims)}")
    for v, (Z, D) in enumerate(zip(rows, dims)):
        if Z.shape[1] != D:
            raise ShapeMismatch(f"view {v} has {Z.shape[1]} columns, model expects {D}")
    return rows


def _example_stacks(view_rows, model: IntactModel):
    """Stacks of examples given as one row matrix per view, in either mode:
    explicit maps in linear mode, cross-kernels against the retained
    training views in kernel mode."""
    if model.mode == "kernel":
        return model.kernel_part.stacks(view_rows)
    return _view_stacks(_as_rows(view_rows, model.view_dims), model.W)


def residual_sq_from_stacks(G, P, znorm, X) -> np.ndarray:
    """Squared residual of each example on each view, shape (m, n).

    Tiny negative values from cancellation are clamped to zero.
    """
    lin = np.einsum("vnd,nd->vn", P, X)
    quad = np.einsum("vne,ne->vn", X @ G, X)
    return np.maximum(znorm - 2.0 * lin + quad, 0.0)


def data_term(s, c: float, loss: str = "cauchy") -> float:
    """Mean loss over a block of squared residual norms: the data term of
    every objective in the package."""
    return float(rho_sq(s, c, loss).sum()) / s.size


def _objective(s, G, X, hp: Hyperparams, loss: str) -> float:
    """Alternation objective from the squared residuals s (m x n) and the
    map stacks G; the map penalty ||W_v||_F^2 is trace(G_v) in both modes."""
    m, n = s.shape
    reg_w = float(np.trace(G, axis1=1, axis2=2).sum())
    reg_x = float(np.sum(X * X))
    return data_term(s, hp.c, loss) + hp.C1 * reg_w / m + hp.C2 * reg_x / n


def alternation_objective(views, W_list, X, hp: Hyperparams, loss="cauchy") -> float:
    """The objective both sweeps block-minimize: mean reconstruction loss
    plus per-view-averaged C1 penalty and per-example-averaged C2 penalty."""
    G, P, znorm = _view_stacks(views, W_list)
    return _objective(residual_sq_from_stacks(G, P, znorm, X), G, X, hp, loss)


def _model_residual_sq(dataset, model: IntactModel, X) -> np.ndarray:
    """Squared residuals (m x n) of a dataset under a linear model."""
    if model.mode != "linear":
        raise ShapeMismatch("operation requires a linear-mode model")
    views = dataset.views if isinstance(dataset, MultiViewDataset) else list(dataset)
    views = _as_rows(views, model.view_dims)
    for v, Z in enumerate(views):
        if Z.shape[0] != X.shape[0]:
            raise ShapeMismatch(f"view {v} has {Z.shape[0]} rows, expected {X.shape[0]}")
    return np.stack([_view_residual_sq(Z, X, Wv) for Z, Wv in zip(views, model.W)])


def objective_full(dataset, model: IntactModel, X) -> float:
    """Joint objective: mean Cauchy reconstruction loss over all (view,
    example) pairs plus C1 * sum_v ||W_v||_F^2 + C2 * sum_i ||x_i||^2."""
    X = as_matrix(X)
    hp = model.hyperparams
    data = data_term(_model_residual_sq(dataset, model, X), hp.c)
    reg_w = sum(float(np.sum(Wv * Wv)) for Wv in model.W)
    return data + hp.C1 * reg_w + hp.C2 * float(np.sum(X * X))


def objective_w(view_data, X, W, hp: Hyperparams) -> float:
    """Per-view objective: mean Cauchy loss across examples + C1 ||W||_F^2."""
    s = _view_residual_sq(view_data, as_matrix(X), W)
    return data_term(s, hp.c) + hp.C1 * float(np.sum(W * W))


# ---------------------------------------------------------------------------
# the batched latent step, and its n = 1 restrictions
# ---------------------------------------------------------------------------

def _latent_system(G, P, znorm, X, c, C2, loss="cauchy"):
    """Squared residuals at X and every row's reweighted ridge system
    (sum_v q_v G_v + m C2 I) x = sum_v q_v P_v, weights q_v taken at X.

    Each solution is the row's next latent iterate: the minimizer of the
    quadratic majorant of its objective at X.
    """
    m, d = G.shape[0], G.shape[1]
    s = residual_sq_from_stacks(G, P, znorm, X)
    Q = weight_sq(s, c, loss)
    H = np.einsum("vn,vij->nij", Q, G) + m * C2 * np.eye(d)
    rhs = np.einsum("vn,vnd->nd", Q, P)
    return s, H, rhs


def _latent_step(G, P, znorm, X, c, C2, loss="cauchy") -> np.ndarray:
    """One reweighted update of every row of X."""
    _, H, rhs = _latent_system(G, P, znorm, X, c, C2, loss)
    return _spd_solve(H, rhs[..., None])[..., 0]


def _single_example_stacks(z_views, model: IntactModel):
    """Stacks of one example given as one vector per view (n = 1)."""
    return _example_stacks([np.reshape(z, (1, -1)) for z in z_views], model)


def _example_system(z_views, model: IntactModel, x):
    """Per-view squared residuals, reweighted system (H, rhs) and latent
    point of one example at x, under the model's hyperparameters."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    hp = model.hyperparams
    stacks = _single_example_stacks(z_views, model)
    s, H, rhs = _latent_system(*stacks, x[None], hp.c, hp.C2)
    return s[:, 0], H[0], rhs[0], x


def objective_x(z_views, model: IntactModel, x) -> float:
    """Per-example objective: mean Cauchy loss across views + C2 ||x||^2."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    s = residual_sq_from_stacks(*_single_example_stacks(z_views, model), x[None])
    return data_term(s, model.hyperparams.c) + model.hyperparams.C2 * float(x @ x)


def grad_x(z_views, model: IntactModel, x) -> np.ndarray:
    """Gradient of objective_x at x: (2/m)(H x - rhs) for the reweighted
    system at x."""
    s, H, rhs, x = _example_system(z_views, model, x)
    return 2.0 * (H @ x - rhs) / s.shape[0]


def update_x_once(z_views, model: IntactModel, x_current) -> np.ndarray:
    """One reweighted update of a latent point.

    Weights 1/(c^2 + ||z^v - W_v x||^2) are evaluated at x_current, then
    the weighted ridge system (sum_v Q_v W_v^T W_v + m C2 I) x =
    sum_v Q_v W_v^T z^v is solved in closed form.
    """
    _, H, rhs, _ = _example_system(z_views, model, x_current)
    return _spd_solve(H, rhs[:, None])[:, 0]


def majorant_curvature(z_views, model: IntactModel, x_k) -> np.ndarray:
    """Curvature matrix of the quadratic upper bound at x_k:
    (1/m) sum_v W_v^T W_v / (c^2 + ||z^v - W_v x_k||^2) + C2 I."""
    s, H, _, _ = _example_system(z_views, model, x_k)
    return H / s.shape[0]


def majorant_value(x, x_k, z_views, model: IntactModel, hp: Hyperparams = None) -> float:
    """Quadratic bound psi(x; x_k) tangent to objective_x at x_k.

    Because log(1+s) is concave in s >= 0 the bound dominates objective_x
    everywhere, and its closed-form minimizer is exactly update_x_once.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    x_k = np.asarray(x_k, dtype=np.float64).reshape(-1)
    delta = x - x_k
    g = grad_x(z_views, model, x_k)
    C = majorant_curvature(z_views, model, x_k)
    return objective_x(z_views, model, x_k) + float(delta @ g) + float(delta @ C @ delta)


def _iterate(update, value, residuals, start, hp: Hyperparams) -> SubproblemResult:
    """Apply `update` until the iterate moves by at most hp.tol_x, at most
    hp.max_inner times, recording `value` of every iterate."""
    cur, trace = start, [value(start)]
    for _ in range(hp.max_inner):
        new = update(cur)
        trace.append(value(new))
        delta = float(np.linalg.norm(new - cur))
        cur = new
        if delta <= hp.tol_x:
            break
    return SubproblemResult(
        solution=cur,
        iterations=len(trace) - 1,
        final_residuals=residuals(cur),
        objective_before=trace[0],
        objective_after=trace[-1],
        objective_trace=tuple(trace),
    )


def solve_x(z_views, model: IntactModel, x0, hp: Hyperparams = None) -> SubproblemResult:
    """Iterate update_x_once until the latent point stops moving.

    Stops when the iterate change drops to hp.tol_x or hp.max_inner is
    reached. The recorded objective trace is non-increasing.
    """
    hp = hp or model.hyperparams
    c, C2 = hp.c, hp.C2
    stacks = _single_example_stacks(z_views, model)

    def residuals(x):
        return residual_sq_from_stacks(*stacks, x[None])[:, 0]

    return _iterate(
        lambda x: _latent_step(*stacks, x[None], c, C2)[0],
        lambda x: data_term(residuals(x), c) + C2 * float(x @ x),
        residuals,
        np.array(x0, dtype=np.float64).reshape(-1),
        hp,
    )


def update_w_once(view_data, X, w_current, hp: Hyperparams) -> np.ndarray:
    """One reweighted update of a view map.

    Per-example weights 1/(c^2 + ||z_i - W x_i||^2) at w_current, then
    W = (sum_i z_i Q_i x_i^T)(sum_i x_i Q_i x_i^T + n C1 I)^{-1}.
    """
    Z = np.asarray(view_data, dtype=np.float64)
    X = as_matrix(X)
    W = np.asarray(w_current, dtype=np.float64)
    if Z.shape[0] != X.shape[0] or W.shape != (Z.shape[1], X.shape[1]):
        raise ShapeMismatch(
            f"inconsistent shapes: Z {Z.shape}, X {X.shape}, W {W.shape}"
        )
    return fit_view_map(Z, X, W, hp.c, hp.C1, hp.tol_x, 1)[0]


def solve_w(view_data, X, w0, hp: Hyperparams) -> SubproblemResult:
    """Iterate update_w_once until the view map stops moving (Frobenius)."""
    Z = np.asarray(view_data, dtype=np.float64)
    X = as_matrix(X)
    return _iterate(
        lambda W: update_w_once(Z, X, W, hp),
        lambda W: objective_w(Z, X, W, hp),
        lambda W: _view_residual_sq(Z, X, W),
        np.array(w0, dtype=np.float64),
        hp,
    )


# ---------------------------------------------------------------------------
# batched sweeps and the alternation driver
# ---------------------------------------------------------------------------

def _latent_chunk(G, P, znorm, X0, c, C2, tol_x, max_inner, loss):
    n = X0.shape[0]
    X = X0.copy()
    active = np.ones(n, dtype=bool)
    iters = np.zeros(n, dtype=np.int64)
    for k in range(max_inner):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        Xa = X[idx]
        X_new = _latent_step(G, P[:, idx], znorm[:, idx], Xa, c, C2, loss)
        delta = np.linalg.norm(X_new - Xa, axis=1)
        X[idx] = X_new
        iters[idx] = k + 1
        active[idx] = delta > tol_x
    s_final = residual_sq_from_stacks(G, P, znorm, X)
    return X, iters, s_final


def sweep_latents(G, P, znorm, X0, c, C2, tol_x, max_inner, loss="cauchy", threads=1):
    """Solve every example's latent subproblem (independent across rows).

    Returns the new latents, each row's inner iteration count, and the
    squared residuals (m x n) at the new latents.
    """
    n = znorm.shape[1]
    if threads <= 1 or n < 2 * threads:
        return _latent_chunk(G, P, znorm, X0, c, C2, tol_x, max_inner, loss)
    # row ranges keep every array C-ordered, so sums match threads=1
    chunks = [slice(ix[0], ix[-1] + 1) for ix in np.array_split(np.arange(n), threads)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(
            pool.map(
                lambda ix: _latent_chunk(
                    G, P[:, ix], znorm[:, ix], X0[ix], c, C2, tol_x, max_inner, loss
                ),
                chunks,
            )
        )
    X = np.vstack([p[0] for p in parts])
    iters = np.concatenate([p[1] for p in parts])
    s_final = np.concatenate([p[2] for p in parts], axis=1)
    return X, iters, s_final


def fit_view_map(Z, X, W0, c, C1, tol_x, max_inner, loss="cauchy", offset=0.0):
    """Reweighted-residual solve of one view map against fixed latents;
    `offset` (scalar or per row) is added to every squared residual."""
    n, d = X.shape
    W = W0.copy()
    ridge = n * C1 * np.eye(d)
    iterations = 0
    for k in range(max_inner):
        QX = X * weight_sq(_view_residual_sq(Z, X, W) + offset, c, loss)[:, None]
        W_new = _spd_solve(X.T @ QX + ridge, QX.T @ Z).T
        iterations = k + 1
        delta = float(np.linalg.norm(W_new - W))
        W = W_new
        if delta <= tol_x:
            break
    return W, iterations


def _audit_descent(prev: float, new: float):
    if new > prev + DIVERGENCE_REL_TOL * max(1.0, abs(prev)):
        raise DivergenceDetected(
            f"objective rose from {prev!r} to {new!r}; reweighted updates "
            "guarantee descent, so this indicates a bug"
        )


def _sym_sqrt(S):
    """Square root and inverse square root of a symmetric matrix, or
    None when it is not numerically positive definite."""
    w, U = np.linalg.eigh(0.5 * (S + S.T))
    if w[-1] <= 0.0 or w[0] <= GAUGE_RCOND * w[-1]:
        return None
    r = np.sqrt(w)
    return (U * r) @ U.T, (U / r) @ U.T


def balance_gauge(maps, X, G, P, hp: Hyperparams):
    """Closed-form minimization of the two penalties over the gauge
    X -> X T, map_v -> map_v T^-1 (T symmetric), which leaves every
    residual unchanged.

    With A = sum_v G_v, B = X^T X, a = C1/m and b = C2/n, the minimizer
    is T = S^(1/2), S = sqrt(a/b) B^-1/2 (B^1/2 A B^1/2)^1/2 B^-1/2, and
    the penalties fall to 2 sqrt(ab) trace((B^1/2 A B^1/2)^1/2). Returns
    (maps, X, G, P) transformed, or the inputs unchanged when C1 or C2
    is zero or B, B^1/2 A B^1/2 or S is numerically singular.
    """
    a, b = hp.C1 / G.shape[0], hp.C2 / X.shape[0]
    skip = maps, X, G, P
    if a <= 0.0 or b <= 0.0:
        return skip
    roots = _sym_sqrt(X.T @ X)
    if roots is None:
        return skip
    B_half, B_inv_half = roots
    roots = _sym_sqrt(B_half @ G.sum(axis=0) @ B_half)
    if roots is None:
        return skip
    roots = _sym_sqrt(np.sqrt(a / b) * B_inv_half @ roots[0] @ B_inv_half)
    if roots is None:
        return skip
    T, T_inv = roots
    return [M @ T_inv for M in maps], X @ T, T_inv @ G @ T_inv, P @ T_inv


def _map_sweep(views, offsets, hp: Hyperparams, loss: str):
    """A map sweep for `alternate`: each view's map in turn solved by
    `fit_view_map` with that view's residual offset."""

    def sweep(X, maps):
        out = [
            fit_view_map(Z, X, W, hp.c, hp.C1, hp.tol_x, hp.max_inner, loss, off)
            for Z, off, W in zip(views, offsets, maps)
        ]
        return [M for M, _ in out], max(k for _, k in out)

    return sweep


def alternate(maps, X, stacks, map_sweep, hp: Hyperparams, loss="cauchy", threads=1):
    """Alternate latent and map sweeps until the objective stalls.

    `stacks(maps)` returns the (G, P, znorm) stacks of the maps and
    `map_sweep(X, maps)` returns (new maps, most inner iterations of any
    view); nothing else depends on the mode. Every outer iteration but the
    first opens with `balance_gauge`, whose decrease is recorded with the
    latent sweep that follows it. Each half step's objective is audited
    for descent and recorded. A final latent sweep runs after the outer
    loop so the stored latents are the exact per-example minimizers for
    the returned maps. Returns (maps, X, FitHistory).
    """
    G, P, znorm = stacks(maps)
    J_prev = J0 = _objective(residual_sq_from_stacks(G, P, znorm, X), G, X, hp, loss)
    trace = []
    inner = []
    stop_reason = "max_iter"

    def record(kind, J):
        _audit_descent(trace[-1][1] if trace else J0, J)
        trace.append((kind, J))

    for it in range(hp.max_outer):
        if it > 0:
            maps, X, G, P = balance_gauge(maps, X, G, P, hp)
        X, x_iters, s = sweep_latents(
            G, P, znorm, X, hp.c, hp.C2, hp.tol_x, hp.max_inner, loss, threads
        )
        record("x-update", _objective(s, G, X, hp, loss))

        maps, w_iters = map_sweep(X, maps)
        G, P, znorm = stacks(maps)
        J = _objective(residual_sq_from_stacks(G, P, znorm, X), G, X, hp, loss)
        record("W-update", J)
        inner.append((int(np.max(x_iters)), int(w_iters)))

        if abs(J - J_prev) <= hp.tol_obj * max(1.0, abs(J_prev)):
            stop_reason = "objective_tol"
            break
        J_prev = J

    X, x_iters, s = sweep_latents(
        G, P, znorm, X, hp.c, hp.C2, hp.tol_x, hp.max_inner, loss, threads
    )
    record("x-update", _objective(s, G, X, hp, loss))
    inner.append((int(np.max(x_iters)), 0))

    history = FitHistory(
        objective_trace=tuple(trace),
        inner_iterations=tuple(inner),
        converged=stop_reason == "objective_tol",
        stop_reason=stop_reason,
    )
    return maps, X, history


def _winsorize_columns(Z: np.ndarray, n_scales: float = 3.0) -> np.ndarray:
    """Clip each column to median +/- n_scales robust scales (MAD-based).

    Leaves well-behaved data essentially untouched but keeps gross
    outliers from dominating the principal directions used only for
    initialization.
    """
    med = np.median(Z, axis=0)
    mad = np.median(np.abs(Z - med), axis=0) * 1.4826
    fallback = np.where(Z.std(axis=0) > 0, Z.std(axis=0), 1.0)
    scale = np.where(mad > 0, mad, fallback)
    return np.clip(Z, med - n_scales * scale, med + n_scales * scale)


def default_init(views, hp: Hyperparams):
    """Initialization: latents from the top-d principal directions of the
    concatenated views; maps from one ridge solve against those latents.

    The principal directions are computed on winsorized, per-column
    standardized data so that contaminated entries can neither hijack the
    starting basin nor outvote clean columns by sheer variance.
    Singular-vector signs are canonicalized so the result is invariant to
    view ordering. Missing rank is filled with seeded Gaussian columns
    scaled by 1/sqrt(d).
    """
    n = views[0].shape[0]
    d = hp.d
    Zc = _winsorize_columns(np.hstack([np.asarray(Z) for Z in views]))
    Zc = Zc - Zc.mean(axis=0)
    sd = Zc.std(axis=0)
    Zc = Zc / np.where(sd > 0, sd, 1.0)
    U, S, Vt = np.linalg.svd(Zc, full_matrices=False)
    rank = int(np.sum(S > 1e-12 * max(1.0, S[0] if S.size else 0.0)))
    r = min(d, rank)
    X0 = np.zeros((n, d))
    for j in range(r):
        lead = np.argmax(np.abs(Vt[j]))
        sign = 1.0 if Vt[j, lead] >= 0 else -1.0
        X0[:, j] = sign * U[:, j] * S[j]
    if r < d:
        rng = np.random.default_rng(hp.seed)
        X0[:, r:] = rng.normal(size=(n, d - r)) / np.sqrt(d)
    return X0, _ridge_maps(X0, views, hp.C1)


def _ridge_maps(X, views, C1: float) -> list:
    """Each view's map from one ridge solve against the latents X."""
    n, d = X.shape
    H = X.T @ X + n * C1 * np.eye(d)
    return [_spd_solve(H, X.T @ np.asarray(Z)).T for Z in views]


def fit(
    dataset: MultiViewDataset,
    hp: Hyperparams,
    init=None,
    loss: str = "cauchy",
    threads: int = 1,
):
    """Fit the linear model: initialization and shape checks around one
    call of `alternate` with explicit-map stacks and `fit_view_map`.

    Returns (IntactModel, IntactEmbedding, FitHistory). A final latent
    sweep runs after the outer loop so the stored embedding is the exact
    per-example minimizer for the returned maps, which makes
    out-of-sample embedding of a training example reproduce its stored
    coordinate. `loss="l2"` swaps in unit weights and squared error,
    giving the alternating ridge baseline with identical structure.
    `threads` splits the latent sweep's rows across worker threads.
    """
    if loss not in ("cauchy", "l2"):
        raise ValueError(f"unknown loss {loss!r}")
    views = dataset.views
    n, d = dataset.n, hp.d
    if init is not None:
        model0, X0 = init
        W = [np.array(Wv, dtype=np.float64) for Wv in model0.W]
        X = np.array(as_matrix(X0), dtype=np.float64)
    else:
        X, W = default_init(views, hp)
    for v, Wv in enumerate(W):
        if Wv.shape != (dataset.view_dims[v], d):
            raise ShapeMismatch(
                f"W[{v}] shape {Wv.shape} does not match view dims "
                f"({dataset.view_dims[v]}, {d})"
            )
    if X.shape != (n, d):
        raise ShapeMismatch(f"initial embedding shape {X.shape}, expected ({n}, {d})")

    W, X, history = alternate(
        W, X,
        lambda W: _view_stacks(views, W),
        _map_sweep(views, [0.0] * len(views), hp, loss),
        hp, loss, threads,
    )
    model = IntactModel(
        mode="linear",
        W=tuple(freeze_array(Wv) for Wv in W),
        kernel_part=None,
        hyperparams=hp,
    )
    return model, IntactEmbedding(X), history
