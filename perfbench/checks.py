"""Output checks computed apart from the program.

Nothing here imports `intact`: model files, CSVs and metrics are parsed
with this module's own readers, and every expected value comes from this
module's own formulas (objective, Gram, least squares, k-NN) or from a
property the method must have (monotone trace, first-order optimality,
robustness ratio). Each check raises `CheckFailed` with a reason.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

# Tolerances, each stated next to the property it guards.
MONOTONE_REL = 1e-9        # the CLI's own descent audit in `train`
OBJECTIVE_REL = 1e-9       # recomputed objective vs last trace value
REEMBED_ABS = 1e-6         # embed(training rows) vs stored embedding
GRAD_ABS = 1e-6            # per-example gradient norm at an embedded row
ALIGN_REL = 1e-9           # own least squares vs eval's alignment
RATIO_CEILING = 0.5        # Cauchy/L2 ceiling of acceptance test 5


class CheckFailed(AssertionError):
    """An output disagrees with its independent computation."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def read_matrix(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", comments="#", ndmin=2))


def read_labels(path) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return np.array([s.strip() for s in lines if s.strip() and not s.startswith("#")])


def read_views(manifest_path) -> list:
    manifest_path = Path(manifest_path)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    return [read_matrix(manifest_path.parent / name) for name in manifest["views"]]


def read_history(path) -> np.ndarray:
    vals = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            vals.append(float(line.split(",")[2]))
    return np.array(vals)


@dataclass
class Model:
    mode: str
    d: int
    c: float
    C1: float
    C2: float
    means: list
    scales: list
    W: list          # linear mode
    A: list          # kernel mode
    Z: list          # kernel mode: standardized training views
    kind: str
    gammas: list

    @property
    def m(self):
        return len(self.W) if self.mode == "linear" else len(self.A)

    def standardize(self, views):
        if not self.means:
            return [np.asarray(Z, dtype=np.float64) for Z in views]
        return [(Z - mu) / sc for Z, mu, sc in zip(views, self.means, self.scales)]


def read_model(path) -> Model:
    """Parse the plain-text model format written by `intact train`."""
    lines = [ln.split() for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln.strip()]
    _require(lines[0] == ["intact-model-v1"], f"{path}: bad magic")
    pos = 1
    head = {}
    means, scales, W, A, Z, gammas = [], [], [], [], [], []
    kind = None

    def block(rows, cols):
        nonlocal pos
        M = np.array([[float(x) for x in lines[pos + i]] for i in range(rows)])
        _require(M.shape == (rows, cols), f"{path}: block shape {M.shape}")
        pos += rows
        return M

    while pos < len(lines):
        key, rest = lines[pos][0], lines[pos][1:]
        pos += 1
        if key == "mean":
            means.append(np.array([float(x) for x in rest[1:]]))
        elif key == "scale":
            scales.append(np.array([float(x) for x in rest[1:]]))
        elif key in ("W", "A", "Z"):
            {"W": W, "A": A, "Z": Z}[key].append(block(int(rest[1]), int(rest[2])))
        elif key == "kernel":
            kind = rest[0]
        elif key == "gamma":
            gammas.append(None if rest[1] == "none" else float(rest[1]))
        elif key == "end":
            break
        else:
            head[key] = rest
    return Model(
        mode=head["mode"][0], d=int(head["d"][0]), c=float(head["c"][0]),
        C1=float(head["C1"][0]), C2=float(head["C2"][0]),
        means=means, scales=scales, W=W, A=A, Z=Z, kind=kind, gammas=gammas,
    )


# ---------------------------------------------------------------------------
# the benchmark's own formulas
# ---------------------------------------------------------------------------

def median_gamma(Z) -> float:
    """1 / median pairwise squared distance (the rbf median heuristic)."""
    med = float(np.median(pdist(Z, "sqeuclidean")))
    return 1.0 / med if med > 0 else 1.0


def kernel_matrix(Za, Zb, kind, gamma) -> np.ndarray:
    if kind == "linear":
        return Za @ Zb.T
    return np.exp(-gamma * cdist(Za, Zb, "sqeuclidean"))


def training_grams(model: Model) -> list:
    return [kernel_matrix(Zv, Zv, model.kind, g) for Zv, g in zip(model.Z, model.gammas)]


def linear_objective(model: Model, views, X) -> float:
    """(1/mn) sum log(1 + |z - Wx|^2 / c^2) + (C1/m) sum |W|^2 + (C2/n) sum |x|^2."""
    m, n = len(views), X.shape[0]
    data = 0.0
    for Zv, Wv in zip(views, model.W):
        R = Zv - X @ Wv.T
        data += float(np.log1p((R * R).sum(axis=1) / model.c ** 2).sum())
    reg_w = sum(float((Wv * Wv).sum()) for Wv in model.W)
    return data / (m * n) + model.C1 * reg_w / m + model.C2 * float((X * X).sum()) / n


def kernel_objective(model: Model, grams, X) -> float:
    """The same objective in atom coordinates, through the given Grams:
    |phi(z_i) - map(x_i)|^2 = K_ii - 2 (K A)_i x_i + x_i' A'KA x_i."""
    m, n = len(grams), X.shape[0]
    data = 0.0
    reg_w = 0.0
    for K, Av in zip(grams, model.A):
        KA = K @ Av
        G = Av.T @ KA
        s = np.diag(K) - 2.0 * (KA * X).sum(axis=1) + ((X @ G) * X).sum(axis=1)
        data += float(np.log1p(np.maximum(s, 0.0) / model.c ** 2).sum())
        reg_w += float(np.trace(G))
    return data / (m * n) + model.C1 * reg_w / m + model.C2 * float((X * X).sum()) / n


def _example_terms(model: Model, rows):
    """Per view: (G_v, P_v, kself_v) for new rows, so that the squared
    residual of row i at x is kself_i - 2 P_i x + x' G x."""
    out = []
    if model.mode == "linear":
        for Zv, Wv in zip(rows, model.W):
            out.append((Wv.T @ Wv, Zv @ Wv, (Zv * Zv).sum(axis=1)))
        return out
    for Zv, Av, Ztr, g in zip(rows, model.A, model.Z, model.gammas):
        Kx = kernel_matrix(Zv, Ztr, model.kind, g)
        K = kernel_matrix(Ztr, Ztr, model.kind, g)
        kself = (Zv * Zv).sum(axis=1) if model.kind == "linear" else np.ones(len(Zv))
        out.append((Av.T @ K @ Av, Kx @ Av, kself))
    return out


def example_gradients(model: Model, rows, X) -> np.ndarray:
    """Gradient of (1/m) sum_v log(1 + s_v(x)/c^2) + C2 |x|^2 at each row."""
    terms = _example_terms(model, rows)
    g = 2.0 * model.C2 * X
    for G, P, kself in terms:
        s = kself - 2.0 * (P * X).sum(axis=1) + ((X @ G) * X).sum(axis=1)
        g += (2.0 / len(terms)) * (X @ G - P) / (model.c ** 2 + np.maximum(s, 0.0))[:, None]
    return g


def affine_alignment(X_est, X_true) -> float:
    """Relative residual of the least-squares affine map X_est -> X_true (QR)."""
    aug = np.column_stack([X_est, np.ones(len(X_est))])
    Q, R = np.linalg.qr(aug)
    coef = np.linalg.solve(R, Q.T @ X_true)
    return float(np.linalg.norm(X_true - aug @ coef) / np.linalg.norm(X_true))


def knn_accuracy(X, labels, seed, k=3, train_fraction=0.5) -> float:
    """3-NN accuracy on the split `intact eval` documents: a permutation
    from numpy's default_rng(seed), the first floor(frac * n) rows train.
    Ties in the vote go to the smaller summed neighbour distance, then to
    the lowest label."""
    perm = np.random.default_rng(seed).permutation(len(X))
    n_tr = max(1, int(train_fraction * len(X)))
    tr, te = perm[:n_tr], perm[n_tr:]
    dist, idx = cKDTree(X[tr]).query(X[te], k=k)
    dist, idx = dist.reshape(len(te), k), idx.reshape(len(te), k)
    neigh = labels[tr][idx]
    correct = 0
    for row_lab, row_d, truth in zip(neigh, dist, labels[te]):
        best = None
        for lab in sorted(set(row_lab)):
            key = (-int((row_lab == lab).sum()), float(row_d[row_lab == lab].sum()), lab)
            best = key if best is None or key < best else best
        correct += best[2] == truth
    return correct / len(te)


def clean_view_residual(model: Model, clean_rows, X) -> float:
    """Relative reconstruction residual against the clean (noise-free)
    views, pooled over views, in the model's standardized units (feature
    space in kernel mode): sum |c - map(x)|^2 / sum |c|^2."""
    num = den = 0.0
    for (G, P, kself) in _example_terms(model, model.standardize(clean_rows)):
        s = kself - 2.0 * (P * X).sum(axis=1) + ((X @ G) * X).sum(axis=1)
        num += float(np.maximum(s, 0.0).sum())
        den += float(kself.sum())
    return num / den


# ---------------------------------------------------------------------------
# checks on command outputs
# ---------------------------------------------------------------------------

def check_history(hist: np.ndarray):
    _require(hist.size >= 2 and np.all(np.isfinite(hist)), "history is empty or non-finite")
    prev = hist[:-1]
    worst = float(np.max((hist[1:] - prev) / np.maximum(1.0, np.abs(prev))))
    _require(worst <= MONOTONE_REL, f"history rises by {worst:.3e} relative")


def check_training_fit(model: Model, train_views, X, hist) -> float:
    """Standardization record, objective and (kernel) Grams against the
    benchmark's own computation; returns the recomputed objective."""
    check_history(hist)
    if model.means:
        for v, (Zv, mu, sc) in enumerate(zip(train_views, model.means, model.scales)):
            sd = Zv.std(axis=0)
            _require(np.allclose(mu, Zv.mean(axis=0), rtol=1e-12, atol=1e-12)
                     and np.allclose(sc, np.where(sd > 1e-12, sd, 1.0), rtol=1e-12),
                     f"standardization record of view {v} disagrees")
    std = model.standardize(train_views)
    if model.mode == "linear":
        J = linear_objective(model, std, X)
    else:
        for v, (Zs, Zm, g) in enumerate(zip(std, model.Z, model.gammas)):
            _require(np.allclose(Zs, Zm, rtol=0, atol=1e-12),
                     f"stored training view {v} is not the standardized input")
            if model.kind == "rbf":
                _require(abs(g - median_gamma(Zm)) <= 1e-9 * g,
                         f"gamma of view {v} is not the median heuristic")
        J = kernel_objective(model, training_grams(model), X)
    rel = abs(J - hist[-1]) / max(abs(hist[-1]), 1e-300)
    _require(rel <= OBJECTIVE_REL,
             f"recomputed objective {J!r} vs trace {hist[-1]!r} ({rel:.2e} relative)")
    return J


def check_reembed(X_stored, X_again):
    _require(X_stored.shape == X_again.shape, "re-embedded shape differs")
    err = float(np.max(np.abs(X_stored - X_again)))
    _require(err <= REEMBED_ABS, f"re-embedding the training rows moves them by {err:.2e}")


def check_optimality(model: Model, raw_rows, X):
    g = example_gradients(model, model.standardize(raw_rows), X)
    worst = float(np.max(np.linalg.norm(g, axis=1)))
    _require(worst <= GRAD_ABS, f"embedded row gradient norm {worst:.2e} > {GRAD_ABS}")


def check_alignment(X_est, X_true, reported, ceiling=None) -> float:
    mine = affine_alignment(X_est, X_true)
    _require(abs(mine - reported) <= ALIGN_REL * max(mine, 1e-300),
             f"alignment {reported!r} vs recomputed {mine!r}")
    if ceiling is not None:
        _require(mine <= ceiling, f"alignment residual {mine:.4f} above {ceiling}")
    return mine


def check_knn(X, labels, seed, reported, k=3):
    mine = knn_accuracy(X, labels, seed, k)
    _require(mine == reported, f"k-NN accuracy {reported!r} vs recomputed {mine!r}")


def read_bench(path):
    rows = [ln.split(",") for ln in Path(path).read_text(encoding="utf-8").splitlines()[1:]]
    return np.array([[float(x) for x in r] for r in rows])


def check_bench(table: np.ndarray, rates):
    _require(table.shape == (len(rates), 4), f"bench table shape {table.shape}")
    _require(np.allclose(table[:, 0], rates), "bench rates differ from the config")
    _require(np.all(table[:, 1:3] > 0), "bench errors must be positive")
    top = table[np.argmax(table[:, 0])]
    _require(top[3] <= RATIO_CEILING,
             f"Cauchy/L2 ratio {top[3]:.4f} at rate {top[0]} above {RATIO_CEILING}")
