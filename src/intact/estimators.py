"""The Cauchy loss of the fitter.

`rho_sq` and `weight_sq` are the one definition of the Cauchy loss
log(1 + s/c^2) of a squared residual norm s and of its IRR weight
1/(c^2 + s); every objective and solver uses them. Both broadcast
elementwise and skip argument checks because they sit on the fitter's
hot path; `Hyperparams` rejects a scale c <= 0 where it is set. The
squared-error baseline of `robustness_benchmark` needs neither: it is
fitted in closed form by `optimizer.l2_fit`.
"""

from __future__ import annotations

import numpy as np


def rho_sq(s, c: float):
    """Cauchy loss of squared residual norms s: log(1 + s/c^2)."""
    return np.log1p(s / (c * c))


def weight_sq(s, c: float):
    """IRR weight of squared residual norms s, the derivative of rho_sq in
    s: 1/(c^2 + s)."""
    return 1.0 / (c * c + s)
