"""Independent reference computations the implementation is tested against.

Everything here is deliberately naive (plain loops, math.log, dense grids)
and shares no code path with the library.
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
