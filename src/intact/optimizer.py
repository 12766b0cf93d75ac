"""Alternating reweighted-residual training of the intact-space model.

One driver, `alternate`, fits both the linear and the kernel model. Each
outer iteration runs one latent block (`sweep_latents`, every example's
latent moved in one batch) followed by one map sweep (`fit_view_map`,
every view's map solved in one batch). Every update is a reweighting
step: residual-dependent weights followed by a closed-form ridge system,
and both blocks read their residuals through `residual_sq_from_stacks`.
Both blocks decrease the alternation objective

    (1/(m n)) sum_{v,i} log(1 + ||z_i^v - W_v x_i||^2 / c^2)
        + (C1/m) sum_v ||W_v||_F^2 + (C2/n) sum_i ||x_i||^2

whose per-example and per-view restrictions are exactly the subproblems
the blocks work on, so the recorded trace is monotone by construction.

One reweighting step minimizes a quadratic majorant of a row's objective,
tangent at its current latent, so a single step per outer iteration
already descends. Block successive minimization with one majorizer step
per block still converges to stationary points (BSUM: Razaviyayn, Hong &
Luo 2013, "A unified convergence analysis of block successive
minimization methods", SIAM J. Optim.). Far from a solution, iterating
every row to tol_x between map sweeps, which move it again, is wasted
work: from the planted starts of `intact bench` the first sweep takes
14-62 inner steps. So the latent block takes one step per row while such
a step lowers the objective by more than ONE_STEP_DECREASE (relative).
The first step that gains less is redone as a sweep to tol_x, and so is
every later block: near a solution a sweep takes a few inner steps, and
the tol_obj test certifies the stop only for solved blocks. A fit whose
first step already gains less (the README linear and rbf fits start
within 1e-4) is the exact-inner alternation, bit for bit. The map block
is always a sweep to tol_x: with one map step per outer iteration, the
100-row rbf fit of training draw 1003 takes 13 outer iterations, one
more than the acceleration tests allow. tol_x and max_inner also govern
the final latent sweep after the outer loop and every embedding, so the
latents a fit or an embedding returns are the exact per-example
minimizers for their maps.

The data term depends on X and the maps only through the products
W_v x_i, so it does not change under X -> X T, W_v -> W_v T^-T; plain
alternation creeps along that direction. Every outer iteration after
the first therefore opens with a gauge step (`balance_gauge`) that
minimizes the two penalties over T in closed form, the variational form
of the nuclear norm. It is exact block descent, and its decrease is part
of the "x-update" half step that follows it.

Alternation converges linearly, and slowly on kernel fits, where each
outer iteration's decrease is 0.6-0.75 times the last. From the fourth
outer iteration on, a safeguarded Anderson step (Walker & Ni 2011)
follows the gauge step: the balanced state is extrapolated over the last
ANDERSON_DEPTH + 1 outer iterations, with coefficients fitted on the
latents alone, and the result is kept only if its objective is lower
than the plain state's by more than round-off (ANDERSON_MIN_GAIN,
relative). Its decrease, too, is part of the next
"x-update", so the trace stays monotone. Fits that stop within three
outer iterations never form a candidate.

The driver sees a model only through its per-view stacks G_v = W_v^T W_v,
P_v = Z_v W_v and the squared row norms of Z_v, and so does all other
code, through `_example_stacks` (a kernel model builds its G once).
Residuals, weights, every objective, reconstruction errors, map norms and
the map penalty ||W_v||_F^2 = trace(G_v) follow from them, in both modes.
Both modes reach the driver through one routine, `_fit_stack`: `fit`
hands it the views zero-padded to the widest with their squared row
norms, and `kernel_fit` (kernel.py) exact kernel features with diag K_v.
It pads the start maps once, reads the stacks as two batched products
(`_map_products`, shared with the map solver `fit_view_map`) and sweeps
the maps with one `fit_view_map` call. There is one solver per block:
embedding an example is `sweep_latents` on one row. The per-example diagnostics (`objective_x`, `grad_x`,
`update_x_once`, `majorant_*`) are the batched latent step at n = 1,
valued by `_example_objectives`.

The latent step solves n small d x d SPD systems, one per example,
with elementwise NumPy operations across the rows (`_solve_rows`: an
unrolled Cholesky factorization and two substitutions over the d
columns), not with LAPACK calls that pay a fixed cost per matrix; at
thousands of rows that makes the solve several times faster, and no row's
solution depends on its batch-mates. The map block has one d x d system
per view, m or fewer at a time, with D right-hand sides (`_map_solve`):
LAPACK's Cholesky factorization certifies each system, one batched
inverse and one batched product then give the maps. NumPy's stacked
solve copies its right-hand side a column at a time: at the rbf-kernel
shape (m = 9, n = 100, D = 77, d = 3) it took 66 us of a 160-170 us map
iteration, which now takes 100-110 us (one BLAS thread). Routed through
`_solve_rows` instead, the map systems made `intact bench` 8-11 % slower
on every benchmark workload.

Outside the fitter, the stacks of a call's examples are built one row
block at a time (`_stack_blocks`): `embed_examples` sweeps each block's
latents, and `_model_residual_sq` (behind `objective_full`,
`reconstruction_error` and the robustness benchmark's clean-view error)
writes each block's residuals into one m x n array. The rows are checked
whole first, so errors are those of an unblocked call, and a block holds
at most _STACK_BLOCK_CELLS cells of an m x rows x d stack, so memory no
longer grows with the row count: under tracemalloc, one embedding of 50k
README S-curve rows peaked at 3.5 MB through a linear model (50 MB with
all rows stacked at once) and at 8 MB through a 300-row rbf model
(131 MB, its n x 300 cross-kernels built whole). At d <= 3 each row's
latent and residuals are those of one call over all rows, bit for bit,
as long as the BLAS products that build the stacks round each row the
same way in a block as over all rows; block row counts are multiples of
_BLOCK_ROWS for that reason. OpenBLAS 0.3 also switches dgemm kernels
once a product exceeds about 1e6 multiply-adds, so a block can round
differently when only the product over all rows crosses that size: a
kernel model's K_v A_v (rows x n_train x d) at n_train = 300 and d = 3
crosses it from 1152 rows, a linear P_v = Z_v W_v at D_v = 2 and d = 3
from about 167k rows. No benchmark workload's product crosses it. At
d >= 4 the product X G_v in `residual_sq_from_stacks` can round a row by
its batch in any case.

`objective_full` values this same objective for any model and latents,
so it equals a fit's last recorded objective. `l2_fit`, the squared-error
baseline, needs no alternation: its optimum is one soft-thresholded SVD
of the concatenated views.
"""

from __future__ import annotations

from collections import deque

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
from .errors import DivergenceDetected, NonFiniteInput, ShapeMismatch, SingularSystem
from .estimators import rho_sq, weight_sq

# A half step may exceed exact descent only through round-off; anything
# beyond this relative slack is treated as a bug.
DIVERGENCE_REL_TOL = 1e-6

# The gauge step skips itself when an SPD matrix it factors has an
# eigenvalue ratio at or below this.
GAUGE_RCOND = 1e-12

# The Anderson step extrapolates over this many differences of the last
# ANDERSON_DEPTH + 1 outer iterations.
ANDERSON_DEPTH = 3

# An Anderson candidate is kept only if it lowers the objective by more than
# this, relative: a smaller gain is round-off in the objective's sum, and
# keeping it would let the order of the views decide the fit.
ANDERSON_MIN_GAIN = 1e-12

# The in-loop latent block takes one reweighted step per row while such a
# step lowers the objective by more than this, relative to max(1, |J|) as
# tol_obj is; from the first step that lowers it by less, the block is
# solved to tol_x in every outer iteration.
ONE_STEP_DECREASE = 1e-3

# Embedding and scoring (`_stack_blocks`) build the stacks of at most this
# many cells of an m x rows x d stack at once: 2368 rows at m d = 27.
_STACK_BLOCK_CELLS = 1 << 16

# A stack block's row count is a multiple of this. A BLAS product rounds
# the last (rows mod unroll) rows of its result with an edge kernel that
# sums in another order, so blocks of whole unrolls put the same rows at
# the edge as one product over all rows does (module docstring).
_BLOCK_ROWS = 64

# The start clips each column of the inputs to its median +/- this many
# MAD-based robust scales.
WINSOR_SCALES = 3.0

_NOT_SPD = (
    "reweighted system is not positive definite; "
    "a positive regularizer guarantees solvability"
)


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------

def _map_solve(H: np.ndarray, B: np.ndarray) -> np.ndarray:
    """B H^-1 for symmetric positive-definite H: one (d, d) system with B
    of shape (k, d), or a stack (m, d, d) with B of shape (m, k, d).

    The map block's one solver (`fit_view_map`, `_ridge_maps`): each map
    is W_v = (Z_v^T Q_v X) H_v^-1, k = D rows against a d x d system.
    NumPy's Cholesky factorization certifies that H is positive definite
    (SingularSystem when it is not); the d x d inverse is then one
    batched call and W one batched product. The stacked solve this
    replaces copied its D-column right-hand side a column at a time: at
    the rbf-kernel shape (m = 9, n = 100, D = 77, d = 3) it took 66 us,
    the inverse and the product take 8 and 20 us (one BLAS thread).
    """
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(_NOT_SPD) from exc
    return B @ np.linalg.inv(H)


def _solve_rows(H: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve n >= 1 SPD systems of size d at once, in place, and return rhs.

    H (d, d, n) holds entry (i, j) of every system as one row H[i, j],
    and rhs (d, n) their right-hand sides. An unrolled Cholesky
    factorization overwrites H's lower triangle with the factors, and
    the forward and back substitutions overwrite rhs with the solutions.
    Every operation is elementwise across the n systems, one vector
    expression per factor entry, so a system's solution never depends on
    the others in the batch; at the latent sweep's thousands of 3 x 3
    systems this is several times faster than LAPACK's per-matrix calls.
    Raises SingularSystem when a pivot is not positive (NaN included).
    """
    d = rhs.shape[0]
    L = [list(row) for row in H]  # L[i][j]: entry (i, j) of every system
    for j in range(d):
        pivot = L[j][j]
        for k in range(j):
            pivot -= L[j][k] * L[j][k]
        if not pivot.min() > 0.0:
            raise SingularSystem(_NOT_SPD)
        np.sqrt(pivot, out=pivot)
        for i in range(j + 1, d):
            for k in range(j):
                L[i][j] -= L[i][k] * L[j][k]
            L[i][j] /= pivot
    b = list(rhs)
    for j in range(d):
        for k in range(j):
            b[j] -= L[j][k] * b[k]
        b[j] /= L[j][j]
    for j in reversed(range(d)):
        for k in range(j + 1, d):
            b[j] -= L[k][j] * b[k]
        b[j] /= L[j][j]
    return rhs


# ---------------------------------------------------------------------------
# residuals, stacks and the objective
# ---------------------------------------------------------------------------

def _view_stacks(views, W_list):
    """Per-view quantities the latent sweep and the objective read:
    G_v = W_v^T W_v, P_v = Z_v W_v, and squared row norms of Z_v."""
    m, n, d = len(views), len(views[0]), W_list[0].shape[1]
    G, P, znorm = np.empty((m, d, d)), np.empty((m, n, d)), np.empty((m, n))
    for v, (Z, Wv) in enumerate(zip(views, W_list)):  # in place: no stacked copies
        np.matmul(Wv.T, Wv, out=G[v])
        np.matmul(Z, Wv, out=P[v])
        np.einsum("ij,ij->i", Z, Z, out=znorm[v])
    return G, P, znorm


def _as_rows(view_rows, dims) -> list:
    """One float row matrix per view, checked against the model's widths,
    for equal row counts and for finite entries."""
    rows = [np.atleast_2d(np.asarray(Z, dtype=np.float64)) for Z in view_rows]
    if len(rows) != len(dims):
        raise ShapeMismatch(f"got {len(rows)} views for a model with {len(dims)}")
    for v, (Z, D) in enumerate(zip(rows, dims)):
        if Z.shape[1] != D:
            raise ShapeMismatch(f"view {v} has {Z.shape[1]} columns, model expects {D}")
        if Z.shape[0] != rows[0].shape[0]:
            raise ShapeMismatch(
                f"view {v} has {Z.shape[0]} rows, view 0 has {rows[0].shape[0]}"
            )
        if not np.isfinite(Z).all():
            raise NonFiniteInput(f"view {v} contains NaN or infinite entries")
    return rows


def _as_latent(x, G) -> np.ndarray:
    """One latent point as a finite float row (1 x d), checked against the
    width d of a model's G stack, which serves both modes."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    if x.shape[1] != G.shape[-1]:
        raise ShapeMismatch(
            f"latent point has {x.shape[1]} coordinates, model has d = {G.shape[-1]}"
        )
    if not np.isfinite(x).all():
        raise NonFiniteInput("latent point contains NaN or infinite entries")
    return x


def _example_stacks(view_rows, model: IntactModel):
    """Stacks of examples given as one row matrix (or, for one example, one
    vector) per view, in either mode: explicit maps in linear mode,
    cross-kernels against the retained training views and the cached G
    stack in kernel mode. Outside the fitter this and `_stack_blocks` are
    the only readers of a model's maps; with zero rows per view it yields
    the model's G stack."""
    return _row_stacks(_as_rows(view_rows, model.view_dims), model)


def _row_stacks(rows, model: IntactModel):
    """`_example_stacks` of rows `_as_rows` has already checked."""
    if model.mode == "kernel":
        return model.kernel_part.stacks(rows)
    return _view_stacks(rows, model.W)


def _stack_blocks(view_rows, model: IntactModel, n=None):
    """Yield (row slice, stacks) over the examples of one call, block by
    block, so the m x rows x d stacks and every sweep temporary stay
    bounded however many rows the call has.

    The rows are checked once, whole, before the first block is built
    (`_as_rows`, and against n rows when n is given), so every error keeps
    the type and message of an unblocked call. A block holds at most
    _STACK_BLOCK_CELLS cells of an m x rows x d stack, rounded down to a
    multiple of _BLOCK_ROWS, and at least _BLOCK_ROWS rows. Zero rows still
    yield one (empty) block, which carries the model's G stack.
    """
    rows = _as_rows(view_rows, model.view_dims)
    total = rows[0].shape[0]
    if n is not None and total != n:
        raise ShapeMismatch(f"view 0 has {total} rows, expected {n}")
    cells = len(rows) * model.hyperparams.d
    step = max(_BLOCK_ROWS, _STACK_BLOCK_CELLS // cells // _BLOCK_ROWS * _BLOCK_ROWS)
    for lo in range(0, max(total, 1), step):
        block = slice(lo, lo + step)
        yield block, _row_stacks([Z[block] for Z in rows], model)


def residual_sq_from_stacks(G, P, znorm, X) -> np.ndarray:
    """Squared residual of each example on each view, shape (m, n):
    ||z||^2 + sum_j x_j (G x - 2 p)_j.

    The sum over the d columns runs in place, one column at a time in a
    fixed order, so every entry is rounded the same way whatever the
    batch around it; two einsum reductions over the length-d axis took
    1.4-2.3 times as long at (m, n, d) from (3, 150, 3) to (9, 6000, 3).
    Tiny negative values from cancellation are clamped to zero.
    """
    Y = X @ G
    Y -= P  # twice, in place: a 2 P temporary cost more than the sum at n = 6000
    Y -= P
    Y *= X
    s = Y[..., 0] + znorm
    for j in range(1, X.shape[1]):
        s += Y[..., j]
    return np.maximum(s, 0.0, out=s)


def data_term(s, c: float) -> float:
    """Mean loss over a block of squared residual norms: the data term of
    every objective in the package."""
    return float(rho_sq(s, c).sum()) / s.size


def _objective(s, G, X, hp: Hyperparams) -> float:
    """Alternation objective from the squared residuals s (m x n) and the
    map stacks G; the map penalty ||W_v||_F^2 is trace(G_v) in both modes."""
    m, n = s.shape
    reg_w = float(np.trace(G, axis1=1, axis2=2).sum())
    reg_x = float(np.sum(X * X))
    return data_term(s, hp.c) + hp.C1 * reg_w / m + hp.C2 * reg_x / n


def alternation_objective(views, W_list, X, hp: Hyperparams) -> float:
    """The objective both sweeps block-minimize: mean reconstruction loss
    plus per-view-averaged C1 penalty and per-example-averaged C2 penalty."""
    G, P, znorm = _view_stacks(views, W_list)
    return _objective(residual_sq_from_stacks(G, P, znorm, X), G, X, hp)


def _model_residual_sq(dataset, model: IntactModel, X):
    """Squared residuals (m x n) of a dataset under a model of either mode,
    and the model's G stack. The latents X must be finite rows of the
    model's width d. The stacks are built one row block at a time
    (`_stack_blocks`), each block's residuals written into the one
    (m x n) result."""
    d = model.hyperparams.d
    if X.ndim != 2:
        raise ShapeMismatch(f"latents have shape {X.shape}, expected rows of d = {d}")
    if X.shape[1] != d:
        raise ShapeMismatch(f"latents have {X.shape[1]} columns, model has d = {d}")
    if not np.isfinite(X).all():
        raise NonFiniteInput("latents contain NaN or infinite entries")
    s = np.empty((len(model.view_dims), X.shape[0]))
    for block, stacks in _stack_blocks(getattr(dataset, "views", dataset), model, len(X)):
        s[:, block] = residual_sq_from_stacks(*stacks, X[block])
    return s, stacks[0]


def objective_full(dataset, model: IntactModel, X) -> float:
    """The objective every fit minimizes (see the module docstring), for a
    model of either mode at the latent points X of the dataset's rows."""
    X = as_matrix(X)
    return _objective(*_model_residual_sq(dataset, model, X), X, model.hyperparams)


# ---------------------------------------------------------------------------
# the batched latent step, and its n = 1 restrictions
# ---------------------------------------------------------------------------

def _latent_system(G, P, znorm, X, c, C2):
    """Squared residuals at X and every row's reweighted ridge system
    (sum_v q_v G_v + m C2 I) x = sum_v q_v P_v, weights q_v taken at X,
    laid out for `_solve_rows`: H is (d, d, n) and rhs (d, n).

    Each solution is the row's next latent iterate: the minimizer of the
    quadratic majorant of its objective at X.
    """
    m = G.shape[0]
    s = residual_sq_from_stacks(G, P, znorm, X)
    Q = weight_sq(s, c)
    H = np.einsum("vn,vij->ijn", Q, G)
    rhs = np.einsum("vn,vnd->dn", Q, P)
    pivots = np.einsum("iin->in", H)  # a writeable view of every diagonal
    pivots += m * C2
    return s, H, rhs


def _latent_step(G, P, znorm, X, c, C2) -> np.ndarray:
    """One reweighted update of every row of X, as an (n x d) view of the
    solved right-hand sides."""
    _, H, rhs = _latent_system(G, P, znorm, X, c, C2)
    return _solve_rows(H, rhs).T


def _example_objectives(stacks, X, c: float, C2: float) -> np.ndarray:
    """Per-example objective of one example's stacks (n = 1) at each row
    of X: mean Cauchy loss across views + C2 ||x||^2, shape (len(X),)."""
    s = residual_sq_from_stacks(*stacks, X)
    return rho_sq(s, c).sum(axis=0) / len(s) + C2 * (X * X).sum(axis=1)


def _example_system(z_views, model: IntactModel, x):
    """Stacks, reweighted system (H, rhs) and latent point of one example at x."""
    hp = model.hyperparams
    stacks = _example_stacks(z_views, model)
    x = _as_latent(x, stacks[0])
    _, H, rhs = _latent_system(*stacks, x, hp.c, hp.C2)
    return stacks, H[..., 0], rhs[:, 0], x[0]


def objective_x(z_views, model: IntactModel, x) -> float:
    """Per-example objective: mean Cauchy loss across views + C2 ||x||^2."""
    stacks = _example_stacks(z_views, model)
    x = _as_latent(x, stacks[0])
    hp = model.hyperparams
    return float(_example_objectives(stacks, x, hp.c, hp.C2)[0])


def grad_x(z_views, model: IntactModel, x) -> np.ndarray:
    """Gradient of objective_x at x: (2/m)(H x - rhs) for the reweighted
    system at x."""
    stacks, H, rhs, x = _example_system(z_views, model, x)
    return 2.0 * (H @ x - rhs) / len(stacks[0])


def update_x_once(z_views, model: IntactModel, x_current) -> np.ndarray:
    """One reweighted update of a latent point.

    Weights 1/(c^2 + ||z^v - W_v x||^2) are evaluated at x_current, then
    the weighted ridge system (sum_v Q_v W_v^T W_v + m C2 I) x =
    sum_v Q_v W_v^T z^v is solved in closed form: the latent sweep's
    step on one row.
    """
    stacks = _example_stacks(z_views, model)
    hp = model.hyperparams
    return _latent_step(*stacks, _as_latent(x_current, stacks[0]), hp.c, hp.C2)[0]


def majorant_curvature(z_views, model: IntactModel, x_k) -> np.ndarray:
    """Curvature matrix of the quadratic upper bound at x_k:
    (1/m) sum_v W_v^T W_v / (c^2 + ||z^v - W_v x_k||^2) + C2 I."""
    stacks, H, _, _ = _example_system(z_views, model, x_k)
    return H / len(stacks[0])


def majorant_value(x, x_k, z_views, model: IntactModel) -> float:
    """Quadratic bound psi(x; x_k) tangent to the per-example objective at x_k.

    Because log(1+s) is concave in s >= 0 the bound dominates the
    objective everywhere, and its closed-form minimizer is exactly the
    reweighted update.
    """
    hp = model.hyperparams
    stacks, H, rhs, x_k = _example_system(z_views, model, x_k)
    delta = _as_latent(x, stacks[0])[0] - x_k
    J = float(_example_objectives(stacks, x_k[None], hp.c, hp.C2)[0])
    return J + float(delta @ (2.0 * (H @ x_k - rhs) + H @ delta)) / len(stacks[0])


# ---------------------------------------------------------------------------
# batched sweeps and the alternation driver
# ---------------------------------------------------------------------------

def sweep_latents(G, P, znorm, X0, c, C2, tol_x, max_inner):
    """Solve every example's latent subproblem in one batched IRR sweep.

    Each row iterates until it moves by at most tol_x (or max_inner
    times) and then drops out of the batch; the stacks of the rows still
    active are compacted only when some row drops out (`np.compress` on
    the row axis: 146 us against 382 us for a boolean index at
    9 x 6000 x 3). Embedding calls this once per row block of
    `_stack_blocks`, so P and znorm are one block's. Rows are
    independent, bit for bit, at d <= 3: the latent step is elementwise
    across rows, but at larger d the product X @ G in
    `residual_sq_from_stacks` is a BLAS GEMM whose rounding of a row can
    depend on the batch around it. Returns the new latents, each row's
    inner iteration count, and the squared residuals (m x n) at the new
    latents.
    """
    X = np.array(X0, dtype=np.float64)
    n, d = X.shape
    iters = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    Pa, za, Xa = P, znorm, X
    for k in range(max_inner):
        if idx.size == 0:
            break
        X_new = _latent_step(G, Pa, za, Xa, c, C2)
        dX = X_new - Xa
        dX *= dX
        step = dX[:, 0]
        for j in range(1, d):
            step = step + dX[:, j]
        moved = np.sqrt(step) > tol_x
        X[idx] = X_new
        iters[idx] = k + 1
        if k + 1 < max_inner and not moved.all():
            idx, X_new = idx[moved], X_new[moved]
            Pa, za = np.compress(moved, Pa, axis=1), np.compress(moved, za, axis=1)
        Xa = np.ascontiguousarray(X_new)
    s_final = residual_sq_from_stacks(G, P, znorm, X)
    return X, iters, s_final


def _map_products(Z, W):
    """G_v = W_v^T W_v and P_v = Z_v W_v for a stack of padded maps W
    (m x D x d, or a list of m equal-shape maps) and the padded stack Z
    (m x n x D), each as one batched product."""
    W = np.asarray(W)
    return W.transpose(0, 2, 1) @ W, Z @ W


def fit_view_map(Z, znorm, X, W0, c, C1, tol_x, max_inner):
    """Solve every view's map subproblem in one stacked IRR sweep, the
    map-side twin of `sweep_latents`.

    Z (m x n x D) holds the views zero-padded to the widest, znorm (m x n)
    their squared row norms and W0 (m x D x d) the starting maps, whose
    padded rows must be zero. Each iteration weights the residuals
    `residual_sq_from_stacks` reads from G_v = W_v^T W_v and P_v = Z_v W_v
    and solves W_v = (sum_i q_i z_i x_i^T)(sum_i q_i x_i x_i^T + n C1 I)^-1
    for all views at once. A view whose map moves by at most tol_x
    (Frobenius), or has iterated max_inner times, leaves the batch.
    Padded columns of Z give zero right-hand sides, so padded map rows
    stay exactly 0, and znorm may carry more than ||Z_v,i||^2 (kernel
    mode's diag K_v). Returns the maps (m x D x d) and each view's
    iteration count.
    """
    m, n, d = Z.shape[0], X.shape[0], X.shape[1]
    W = np.array(W0, dtype=np.float64)
    ridge = n * C1 * np.eye(d)
    Xt = np.ascontiguousarray(X.T)
    iters = np.zeros(m, dtype=np.int64)
    idx = np.arange(m)
    Za, za, Wa = Z, znorm, W
    for k in range(max_inner):
        s = residual_sq_from_stacks(*_map_products(Za, Wa), za, X)
        QXt = weight_sq(s, c)[:, None, :] * Xt  # (m, d, n): X^T Q_v
        W_new = _map_solve(QXt @ X + ridge, (QXt @ Za).transpose(0, 2, 1))
        dW = W_new - Wa
        moved = np.sqrt(np.einsum("vij,vij->v", dW, dW)) > tol_x
        W[idx] = W_new
        iters[idx] = k + 1
        if not moved.all():
            idx = idx[moved]
            if idx.size == 0:
                break
            Za, za = Za[moved], za[moved]
            W_new = W_new[moved]
        Wa = W_new
    return W, iters


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


def _pad_views(views) -> np.ndarray:
    """The views as one zero-padded (m x n x max D_v) stack."""
    Z = np.zeros((len(views), len(views[0]), max(V.shape[1] for V in views)))
    for v, V in enumerate(views):
        Z[v, :, : V.shape[1]] = V
    return Z


def _anderson_candidate(pairs):
    """Anderson extrapolation (Walker & Ni 2011, type II) from pairs
    (x_j, F(x_j)) of (maps, X) states, oldest first.

    With residuals f_j = F(x_j) - x_j, gamma minimizes
    ||f_k - sum_j gamma_j (f_{j+1} - f_j)|| over the X blocks alone, the
    one block every map parametrization shares; the candidate is then
    F(x_k) - sum_j gamma_j (F(x_{j+1}) - F(x_j)) over maps and X alike.
    Returns (maps, X, gamma).
    """
    pairs = list(pairs)
    f = [Fx[1] - x[1] for x, Fx in pairs]
    dF = np.stack([(b - a).ravel() for a, b in zip(f, f[1:])], axis=1)
    gamma = np.linalg.lstsq(dF, f[-1].ravel(), rcond=None)[0]
    maps, X = pairs[-1][1]
    for g, (_, (maps_a, X_a)), (_, (maps_b, X_b)) in zip(gamma, pairs, pairs[1:]):
        X = X - g * (X_b - X_a)
        maps = [M - g * (B - A) for M, A, B in zip(maps, maps_a, maps_b)]
    return maps, X, gamma


def alternate(maps, X, stacks, map_sweep, hp: Hyperparams):
    """Alternate latent and map sweeps until the objective stalls.

    `stacks(maps)` returns the (G, P, znorm) stacks of the maps and
    `map_sweep(X, maps)` returns (new maps, most inner iterations of any
    view); nothing else depends on the mode. Every outer iteration but the
    first opens with `balance_gauge`. From the fourth on, a safeguarded
    Anderson step follows it: the balanced state F(x_k) that the sweeps
    and the gauge step made of the state x_k the last iteration started
    from is extrapolated over the last ANDERSON_DEPTH + 1 pairs
    (x_j, F(x_j)) (`_anderson_candidate`). The candidate is kept, and
    balanced, only if its objective is lower than that of F(x_k) by more
    than ANDERSON_MIN_GAIN (relative); otherwise the iteration starts
    from F(x_k). The decrease of both steps is recorded with the latent
    block that follows them. The latent block takes one reweighted step
    per row, a majorize-minimize step whose block descent converges to
    stationary points as block successive minimization (BSUM, Razaviyayn,
    Hong & Luo 2013), until such a step lowers the objective by at most
    ONE_STEP_DECREASE (relative to max(1, |J|)); that step is redone as a
    sweep to tol_x, and so is every later block. The map block is solved to
    tol_x. Each half step's objective is audited for descent and recorded. A
    final latent sweep to tol_x runs after the outer loop so the stored
    latents are the exact per-example minimizers for the returned maps.
    Returns (maps, X, FitHistory).
    """
    G, P, znorm = stacks(maps)
    s = residual_sq_from_stacks(G, P, znorm, X)
    J_prev = J0 = _objective(s, G, X, hp)
    trace = []
    inner = []
    stop_reason = "max_iter"
    pairs = deque(maxlen=ANDERSON_DEPTH + 1)  # (x_k, F(x_k)), oldest first
    start = None
    extrapolations = 0
    steps = 1  # latent steps per row; max_inner once a step gains little

    def record(kind, J):
        _audit_descent(trace[-1][1] if trace else J0, J)
        trace.append((kind, J))

    def latent_block(X, steps):
        X, x_iters, s = sweep_latents(G, P, znorm, X, hp.c, hp.C2, hp.tol_x, steps)
        return X, int(np.max(x_iters)), _objective(s, G, X, hp)

    for it in range(hp.max_outer):
        if it > 0:
            maps, X, G, P = balance_gauge(maps, X, G, P, hp)
            if start is not None:
                pairs.append((start, (maps, X)))
            if len(pairs) > 1:
                maps_c, X_c, gamma = _anderson_candidate(pairs)
                G_c, P_c, _ = stacks(maps_c)
                s_c = residual_sq_from_stacks(G_c, P_c, znorm, X_c)
                # s, from the last map sweep, is unchanged by the gauge step
                J_F = _objective(s, G, X, hp)
                if _objective(s_c, G_c, X_c, hp) < J_F - ANDERSON_MIN_GAIN * abs(J_F):
                    maps, X, G, P = balance_gauge(maps_c, X_c, G_c, P_c, hp)
                    s = s_c
                    extrapolations += bool(gamma.any())
            start = maps, X
        scale = max(1.0, abs(J_prev))
        X_new, x_iters, J_x = latent_block(X, steps)
        # s holds the residuals of the state the block started from
        if steps < hp.max_inner and (
            _objective(s, G, X, hp) - J_x <= ONE_STEP_DECREASE * scale
        ):
            steps = hp.max_inner
            X_new, x_iters, J_x = latent_block(X, steps)
        X = X_new
        record("x-update", J_x)

        maps, w_iters = map_sweep(X, maps)
        G, P, znorm = stacks(maps)
        s = residual_sq_from_stacks(G, P, znorm, X)
        J = _objective(s, G, X, hp)
        record("W-update", J)
        inner.append((x_iters, int(w_iters)))

        if abs(J - J_prev) <= hp.tol_obj * scale:
            stop_reason = "objective_tol"
            break
        J_prev = J

    X, x_iters, J_x = latent_block(X, hp.max_inner)
    record("x-update", J_x)
    inner.append((x_iters, 0))

    history = FitHistory(
        objective_trace=tuple(trace),
        inner_iterations=tuple(inner),
        converged=stop_reason == "objective_tol",
        stop_reason=stop_reason,
        extrapolations=extrapolations,
    )
    return maps, X, history


def _winsorize_columns(Z: np.ndarray) -> np.ndarray:
    """Clip each column to median +/- WINSOR_SCALES robust scales (MAD-based).

    Leaves well-behaved data essentially untouched but keeps gross
    outliers from dominating the principal directions used only for
    initialization.
    """
    med = np.median(Z, axis=0)
    mad = np.median(np.abs(Z - med), axis=0) * 1.4826
    fallback = np.where(Z.std(axis=0) > 0, Z.std(axis=0), 1.0)
    scale = np.where(mad > 0, mad, fallback)
    return np.clip(Z, med - WINSOR_SCALES * scale, med + WINSOR_SCALES * scale)


def default_init(views, hp: Hyperparams):
    """Initialization: latents from the top-d principal directions of the
    concatenated views; maps from one ridge solve against those latents.

    The principal directions are computed on winsorized, per-column
    standardized data so that contaminated entries can neither hijack the
    starting basin nor outvote clean columns by sheer variance. The
    latents are `_principal_latents` of its SVD, with signs fixed on Vt so
    that the result is invariant to view ordering.
    """
    Zc = _winsorize_columns(np.hstack([np.asarray(Z) for Z in views]))
    Zc = Zc - Zc.mean(axis=0)
    sd = Zc.std(axis=0)
    Zc = Zc / np.where(sd > 0, sd, 1.0)
    U, S, Vt = np.linalg.svd(Zc, full_matrices=False)
    X0 = _principal_latents(U, S, Vt, hp)
    return X0, _ridge_maps(X0, views, hp.C1)


def _principal_latents(U, S, sign_rows, hp: Hyperparams) -> np.ndarray:
    """Starting latents U_r diag(S_r) from the leading r = min(d, rank)
    principal pairs (U's columns, S descending).

    The rank counts S above 1e-12 of max(1, S[0]). Column j's sign makes
    the largest-magnitude entry of sign_rows[j] positive. Missing rank is
    filled with seeded Gaussian columns scaled by 1/sqrt(d).
    """
    n, d = U.shape[0], hp.d
    rank = int(np.sum(S > 1e-12 * max(1.0, S[0] if S.size else 0.0)))
    r = min(d, rank)
    X0 = np.zeros((n, d))
    for j in range(r):
        lead = np.argmax(np.abs(sign_rows[j]))
        sign = 1.0 if sign_rows[j, lead] >= 0 else -1.0
        X0[:, j] = sign * U[:, j] * S[j]
    if r < d:
        rng = np.random.default_rng(hp.seed)
        X0[:, r:] = rng.normal(size=(n, d - r)) / np.sqrt(d)
    return X0


def _ridge_maps(X, views, C1: float) -> list:
    """Each view's map from one ridge solve against the latents X:
    W_v = Z_v^T X (X^T X + n C1 I)^-1, with the inverse formed once."""
    n, d = X.shape
    XH = _map_solve(X.T @ X + n * C1 * np.eye(d), X)  # X H^-1, H shared
    return [np.asarray(Z).T @ XH for Z in views]


def _fit_stack(Z, znorm, X, maps, hp: Hyperparams):
    """The one fit path of both modes: `alternate` from the latents X and
    the per-view maps, on the zero-padded (m x n x max D_v) feature stack Z
    and its fixed squared row norms znorm (m x n).

    The maps are padded once to the stack's width; the driver's stacks are
    `_map_products` of Z and the padded maps, and its map sweep is one
    `fit_view_map` call, so padded map rows stay exactly 0 throughout.
    Returns (maps at their own widths, X, FitHistory).
    """
    W = np.zeros((Z.shape[0], Z.shape[2], X.shape[1]))
    for v, M in enumerate(maps):
        W[v, : len(M)] = M

    def map_sweep(X, W):
        W, iters = fit_view_map(Z, znorm, X, W, hp.c, hp.C1, hp.tol_x, hp.max_inner)
        return W, int(iters.max())

    W, X, history = alternate(
        W, X, lambda W: _map_products(Z, W) + (znorm,), map_sweep, hp
    )
    return [Wv[: len(M)] for Wv, M in zip(W, maps)], X, history


def fit(dataset: MultiViewDataset, hp: Hyperparams):
    """Fit the linear model: `default_init`, then `_fit_stack` on the views
    padded to the widest, with their squared row norms.

    Returns (IntactModel, IntactEmbedding, FitHistory). A final latent
    sweep runs after the outer loop so the stored embedding is the exact
    per-example minimizer for the returned maps, which makes
    out-of-sample embedding of a training example reproduce its stored
    coordinate. The result depends only on (dataset, hp).
    """
    views = dataset.views
    X, W = default_init(views, hp)
    znorm = np.stack([np.einsum("ij,ij->i", Z, Z) for Z in views])
    W, X, history = _fit_stack(_pad_views(views), znorm, X, W, hp)
    model = IntactModel(
        mode="linear",
        W=tuple(freeze_array(Wv) for Wv in W),
        kernel_part=None,
        hyperparams=hp,
    )
    return model, IntactEmbedding(X), history


def l2_fit(dataset: MultiViewDataset, hp: Hyperparams):
    """The squared-error baseline: the exact minimizer of the alternation
    objective with squared error in place of the Cauchy loss (Cai, Candes
    & Shen 2010; Mazumder, Hastie & Tibshirani 2010).

    With a = C1/m and b = C2/n it keeps the top d singular values of the
    concatenated views shrunk by tau = sqrt(ab) m n, clipped at 0, and
    factors them at the balanced gauge: X = U sqrt(S) (a/b)^(1/4) and
    [W_1; ...; W_m] = V sqrt(S) (b/a)^(1/4). With C1 or C2 zero, tau is 0
    and the gauge the unit one, as `balance_gauge` skips itself there.
    Columns past min(n, sum_v D_v), or shrunk to 0, are exactly 0.
    Returns (IntactModel, IntactEmbedding).
    """
    m, n, d = len(dataset.views), dataset.n, hp.d
    a, b = hp.C1 / m, hp.C2 / n
    U, S, Vt = np.linalg.svd(np.hstack(dataset.views), full_matrices=False)
    r = min(d, S.size)
    root = np.sqrt(np.maximum(S[:r] - np.sqrt(a * b) * m * n, 0.0))
    gauge = (a / b) ** 0.25 if a > 0.0 and b > 0.0 else 1.0
    X, W = np.zeros((n, d)), np.zeros((Vt.shape[1], d))
    X[:, :r] = U[:, :r] * (root * gauge)
    W[:, :r] = Vt[:r].T * (root / gauge)
    model = IntactModel(
        mode="linear",
        W=tuple(map(freeze_array, np.split(W, np.cumsum(dataset.view_dims)[:-1]))),
        kernel_part=None,
        hyperparams=hp,
    )
    return model, IntactEmbedding(X)
