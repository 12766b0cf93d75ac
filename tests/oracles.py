"""Independent reference computations the implementation is tested against.

Everything here is deliberately naive (plain loops, math.log, dense grids)
and shares no code path with the library, except `kernel_fit_atoms`: it
runs the library's alternation driver, so that its outer iterations can
be compared one to one, with a map solver and stacks of its own.
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


def _atom_stacks(A_list, grams):
    """Stacks in atom coordinates: A^T K A, K A and diag(K) per view."""
    KA = [K @ A for A, K in zip(A_list, grams)]
    G = np.stack([A.T @ P for A, P in zip(A_list, KA)])
    return G, np.stack(KA), np.stack([np.diag(K) for K in grams])


def fit_atoms(K, X, A0, c, C1, tol_x, max_inner, loss="cauchy"):
    """Reweighted solve of one view's atom matrix against fixed latents:
    A = diag(Q) X (X^T diag(Q) X + n C1 I)^{-1}, weights Q at the current
    atoms, until the atoms move by at most tol_x (Frobenius)."""
    n, d = X.shape
    A = A0.copy()
    for k in range(max_inner):
        KA = K @ A
        s = np.diag(K) - 2.0 * np.sum(KA * X, axis=1) + np.sum((X @ (A.T @ KA)) * X, axis=1)
        s = np.maximum(s, 0.0)
        q = np.ones(n) if loss == "l2" else 1.0 / (c * c + s)
        QX = X * q[:, None]
        A_new = np.linalg.solve(X.T @ QX + n * C1 * np.eye(d), QX.T).T
        delta = float(np.linalg.norm(A_new - A))
        A = A_new
        if delta <= tol_x:
            return A, k + 1
    return A, max_inner


def kernel_fit_atoms(dataset, hp, kernel, loss="cauchy"):
    """Kernel fit in atom coordinates: the library's Grams, latent
    initialization and driver (`optimizer.alternate`), with `fit_atoms` as
    the map solver and the atoms started at X (X^T X + n C1 I)^{-1}.
    Returns (atoms, grams, X, FitHistory)."""
    from intact.kernel import KernelSpec, gram, median_heuristic_gamma
    from intact.optimizer import alternate, default_init

    grams = []
    for Z in dataset.views:
        g = None
        if kernel.kind == "rbf":
            g = kernel.gamma if kernel.gamma is not None else median_heuristic_gamma(Z)
        grams.append(gram(Z, KernelSpec(kernel.kind, g)))
    X = default_init(dataset.views, hp)[0]
    n, d = X.shape
    A_shared = np.linalg.solve(X.T @ X + n * hp.C1 * np.eye(d), X.T).T

    def sweep(X, A_list):
        out = [
            fit_atoms(K, X, A, hp.c, hp.C1, hp.tol_x, hp.max_inner, loss)
            for K, A in zip(grams, A_list)
        ]
        return [A for A, _ in out], max(k for _, k in out)

    A, X, history = alternate(
        [A_shared.copy() for _ in grams], X,
        lambda A: _atom_stacks(A, grams), sweep, hp, loss,
    )
    return A, grams, X, history
