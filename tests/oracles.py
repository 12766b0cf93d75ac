"""Independent reference computations the implementation is tested against.

Everything here is deliberately naive (plain loops, math.log, dense grids)
and shares no code path with the library, except two drivers.
`kernel_fit_atoms` runs the library's alternation driver, so that its
outer iterations can be compared one to one, with a map solver and stacks
of its own. `alternate_plain` is that driver without its extrapolation
step, on the library's sweeps, gauge step and objective.
"""

import math

import numpy as np


def objective_terms_bruteforce(views, W_list, X, c, C1, C2):
    """Term-by-term summation of the joint objective (sum-form regularizers)."""
    m = len(views)
    n = len(X)
    total = 0.0
    for v in range(m):
        for i in range(n):
            r = np.asarray(views[v][i], dtype=float) - np.asarray(W_list[v]) @ X[i]
            total += math.log(1.0 + float(r @ r) / (c * c))
    total /= m * n
    for W in W_list:
        total += C1 * float(np.sum(np.square(W)))
    for i in range(n):
        total += C2 * float(np.dot(X[i], X[i]))
    return total


def objective_x_bruteforce(z_list, W_list, x, c, C2):
    """Per-example objective by direct summation."""
    m = len(z_list)
    total = 0.0
    for z, W in zip(z_list, W_list):
        r = np.asarray(z, dtype=float) - np.asarray(W) @ np.asarray(x, dtype=float)
        total += math.log(1.0 + float(r @ r) / (c * c))
    return total / m + C2 * float(np.dot(x, x))


def fd_gradient(f, x, h=1e-6):
    """Central finite differences with per-coordinate scaled steps."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for j in range(x.size):
        step = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        g[j] = (f(xp) - f(xm)) / (2.0 * step)
    return g


def grid_min_scalar(f, lo, hi, num=200001):
    """Dense 1-D grid minimizer."""
    grid = np.linspace(lo, hi, num)
    vals = np.array([f(t) for t in grid])
    return float(grid[int(np.argmin(vals))])


def knn_classify_dense(train_X, train_labels, test_X, k=3):
    """k-NN predictions from a full test x train distance matrix and one
    stable argsort per test row; vote ties go to the smaller summed
    distance, then to the lowest label."""
    train_X = np.atleast_2d(np.asarray(train_X, dtype=np.float64))
    test_X = np.atleast_2d(np.asarray(test_X, dtype=np.float64))
    labels = np.asarray(train_labels)
    d2 = (
        np.einsum("ij,ij->i", test_X, test_X)[:, None]
        + np.einsum("ij,ij->i", train_X, train_X)[None, :]
        - 2.0 * test_X @ train_X.T
    )
    d2 = np.maximum(d2, 0.0)
    preds = []
    for row in d2:
        order = np.argsort(row, kind="stable")[:k]
        neigh_labels = labels[order]
        neigh_d = np.sqrt(row[order])
        uniq = np.unique(neigh_labels)
        counts = np.array([(neigh_labels == u).sum() for u in uniq])
        best = uniq[counts == counts.max()]
        if len(best) > 1:
            sums = np.array(
                [neigh_d[neigh_labels == u].sum() for u in best], dtype=np.float64
            )
            best = best[sums == sums.min()]
        preds.append(np.sort(best)[0])
    return np.asarray(preds)


def load_matrix_csv_lines(path):
    """Matrix from a CSV of comma- or space-separated numbers, parsed one
    line and one float() at a time; blank and '#' lines are skipped.
    Raises ValueError naming the first bad line as `line_number`."""
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                row = [float(p) for p in text.replace(",", " ").split()]
            except ValueError:
                row = None
            if row is None or (width is not None and len(row) != width):
                err = ValueError(f"line {lineno}")
                err.line_number = lineno
                raise err
            width = len(row)
            rows.append(row)
    if not rows:
        return np.zeros((0, 0))
    return np.asarray(rows, dtype=np.float64)


def fit_view_map(Z, X, W0, c, C1, tol_x, max_inner, offset=0.0):
    """Reweighted solve of one view map against fixed latents, one view at
    a time: residuals formed explicitly as Z - X W^T, plus `offset` (scalar
    or per row), weights at the current map, then
    W = (Z^T Q X)(X^T Q X + n C1 I)^{-1}, until the map moves by at most
    tol_x (Frobenius). Returns (W, iterations)."""
    n, d = X.shape
    W = W0.copy()
    for k in range(max_inner):
        R = Z - X @ W.T
        s = np.sum(R * R, axis=1) + offset
        q = 1.0 / (c * c + s)
        QX = X * q[:, None]
        W_new = np.linalg.solve(X.T @ QX + n * C1 * np.eye(d), QX.T @ Z).T
        delta = float(np.linalg.norm(W_new - W))
        W = W_new
        if delta <= tol_x:
            return W, k + 1
    return W, max_inner


def _atom_stacks(A_list, grams):
    """Stacks in atom coordinates: A^T K A, K A and diag(K) per view."""
    KA = [K @ A for A, K in zip(A_list, grams)]
    G = np.stack([A.T @ P for A, P in zip(A_list, KA)])
    return G, np.stack(KA), np.stack([np.diag(K) for K in grams])


def fit_atoms(K, X, A0, c, C1, tol_x, max_inner):
    """Reweighted solve of one view's atom matrix against fixed latents:
    A = diag(Q) X (X^T diag(Q) X + n C1 I)^{-1}, weights Q at the current
    atoms, until the atoms move by at most tol_x (Frobenius)."""
    n, d = X.shape
    A = A0.copy()
    for k in range(max_inner):
        KA = K @ A
        s = np.diag(K) - 2.0 * np.sum(KA * X, axis=1) + np.sum((X @ (A.T @ KA)) * X, axis=1)
        s = np.maximum(s, 0.0)
        q = 1.0 / (c * c + s)
        QX = X * q[:, None]
        A_new = np.linalg.solve(X.T @ QX + n * C1 * np.eye(d), QX.T).T
        delta = float(np.linalg.norm(A_new - A))
        A = A_new
        if delta <= tol_x:
            return A, k + 1
    return A, max_inner


def feature_start(grams, d):
    """U_d Lambda_d^{1/2} from the full eigendecomposition of sum_v K_v,
    top d pairs, each column of U signed so its largest-magnitude entry is
    positive (full rank assumed: no fill columns)."""
    lam, U = np.linalg.eigh(sum(grams))
    X = np.zeros((len(lam), d))
    for j in range(d):
        u = U[:, -1 - j]
        sign = 1.0 if u[np.argmax(np.abs(u))] >= 0 else -1.0
        X[:, j] = sign * u * math.sqrt(max(lam[-1 - j], 0.0))
    return X


def kernel_fit_atoms(dataset, hp, kernel):
    """Kernel fit in atom coordinates: the library's Grams and driver
    (`optimizer.alternate`), with `fit_atoms` as the map solver and the
    atoms started at X (X^T X + n C1 I)^{-1}. A linear kernel starts from
    the library's `default_init`; an rbf kernel from `feature_start`.
    Returns (atoms, grams, X, FitHistory)."""
    from intact.kernel import KernelSpec, gram, median_heuristic_gamma
    from intact.optimizer import alternate, default_init

    grams = []
    for Z in dataset.views:
        g = None
        if kernel.kind == "rbf":
            g = kernel.gamma if kernel.gamma is not None else median_heuristic_gamma(Z)
        grams.append(gram(Z, KernelSpec(kernel.kind, g)))
    if kernel.kind == "rbf":
        X = feature_start(grams, hp.d)
    else:
        X = default_init(dataset.views, hp)[0]
    n, d = X.shape
    A_shared = np.linalg.solve(X.T @ X + n * hp.C1 * np.eye(d), X.T).T

    def sweep(X, A_list):
        out = [
            fit_atoms(K, X, A, hp.c, hp.C1, hp.tol_x, hp.max_inner)
            for K, A in zip(grams, A_list)
        ]
        return [A for A, _ in out], max(k for _, k in out)

    A, X, history = alternate(
        [A_shared.copy() for _ in grams], X,
        lambda A: _atom_stacks(A, grams), sweep, hp,
    )
    return A, grams, X, history


def alternate_plain(maps, X, stacks, map_sweep, hp):
    """`optimizer.alternate` without the Anderson step: every outer
    iteration but the first opens with the gauge step, then one latent
    sweep and one map sweep, until the objective changes by at most
    tol_obj (relative); a final latent sweep follows. Returns
    (maps, X, FitHistory), with every half step audited for descent."""
    from intact.core import FitHistory
    from intact.optimizer import (
        _audit_descent,
        _objective,
        balance_gauge,
        residual_sq_from_stacks,
        sweep_latents,
    )

    G, P, znorm = stacks(maps)
    J_prev = J0 = _objective(residual_sq_from_stacks(G, P, znorm, X), G, X, hp)
    trace, inner = [], []
    stop_reason = "max_iter"

    def record(kind, J):
        _audit_descent(trace[-1][1] if trace else J0, J)
        trace.append((kind, J))

    def latent_sweep(X):
        X, x_iters, s = sweep_latents(
            G, P, znorm, X, hp.c, hp.C2, hp.tol_x, hp.max_inner
        )
        record("x-update", _objective(s, G, X, hp))
        return X, int(np.max(x_iters))

    for it in range(hp.max_outer):
        if it > 0:
            maps, X, G, P = balance_gauge(maps, X, G, P, hp)
        X, x_iters = latent_sweep(X)
        maps, w_iters = map_sweep(X, maps)
        G, P, znorm = stacks(maps)
        J = _objective(residual_sq_from_stacks(G, P, znorm, X), G, X, hp)
        record("W-update", J)
        inner.append((x_iters, int(w_iters)))
        if abs(J - J_prev) <= hp.tol_obj * max(1.0, abs(J_prev)):
            stop_reason = "objective_tol"
            break
        J_prev = J

    X, x_iters = latent_sweep(X)
    inner.append((x_iters, 0))
    history = FitHistory(
        objective_trace=tuple(trace),
        inner_iterations=tuple(inner),
        converged=stop_reason == "objective_tol",
        stop_reason=stop_reason,
    )
    return maps, X, history


def l2_objective(views, W_list, X, C1, C2):
    """The alternation objective with squared error in place of the
    Cauchy loss, from explicit residuals Z_v - X W_v^T."""
    m, n = len(views), len(X)
    total = 0.0
    for Z, W in zip(views, W_list):
        R = np.asarray(Z, dtype=float) - X @ np.asarray(W).T
        total += float(np.sum(R * R)) / (m * n) + C1 / m * float(np.sum(np.square(W)))
    return total + C2 / n * float(np.sum(X * X))


def svt_objective(views, d, C1, C2):
    """Minimum of the L2 alternation objective over rank-d factorizations,
    from the singular values of the concatenated views.

    With a = C1/m and b = C2/n, the two penalties of X and the maps are
    at least 2 sqrt(ab) times the nuclear norm of their product, with
    equality at the balanced factorization. The problem is then
    ||Z - M||_F^2 / (m n) + 2 sqrt(ab) ||M||_* over rank-d M, solved by
    the top-d singular values shrunk by tau = sqrt(ab) m n (Cai, Candes &
    Shen 2010); the value is summed one singular value at a time.
    """
    m = len(views)
    Z = np.hstack([np.asarray(V, dtype=float) for V in views])
    n = Z.shape[0]
    tau = math.sqrt(C1 / m * C2 / n) * m * n
    total = 0.0
    for j, sigma in enumerate(np.linalg.svd(Z, compute_uv=False)):
        kept = max(sigma - tau, 0.0) if j < d else 0.0
        total += (sigma - kept) ** 2 / (m * n) + 2.0 * tau / (m * n) * kept
    return total
