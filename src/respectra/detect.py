"""Resampling detector: sliding-view eigenvalue statistic with a fixed
theoretical threshold.

For every N x K sliding view (columns of Z and of Z^T) the K-th largest
eigenvalue of the renormalized sample autocorrelation is compared against
the Marchenko-Pastur support of the quantization noise. Genuine blocks keep
that eigenvalue above the noise support; upscaled blocks are rank deficient
and drop it inside. The test statistic kappa aggregates over views and the
block is labeled upscaled when kappa falls below sigma_w2 (1 + sqrt(beta))^2.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidConfig
from .spectra import mp_edges


@dataclass(frozen=True)
class DetectorConfig:
    """Detector settings: view width K, quantization step delta and the
    decision threshold (None selects the theoretical MP upper edge)."""

    k: int = 9
    delta: float = 1.0
    threshold: float = None

    def __post_init__(self):
        if self.k < 2:
            raise InvalidConfig(f"K must be at least 2, got {self.k}")
        if self.delta <= 0:
            raise InvalidConfig(f"delta must be positive, got {self.delta}")

    @property
    def sigma_w2(self):
        return self.delta ** 2 / 12.0


@dataclass(frozen=True)
class DetectionResult:
    """Full per-view diagnostics of one detector run.

    is_upscaled holds exactly when kappa < threshold. below_set lists the
    views whose K-th eigenvalue fell under the lower MP edge;
    lambda0_per_view holds the smallest eigenvalue above that edge (NaN for
    views whose whole spectrum sits at the noise floor).
    """

    kappa: float
    threshold: float
    is_upscaled: bool
    per_view_lambda: np.ndarray
    below_set: np.ndarray
    lambda0_per_view: np.ndarray
    beta: float
    sigma_w2: float
    mp_lower: float
    mp_upper: float

    def to_dict(self):
        return {
            "kappa": float(self.kappa),
            "threshold": float(self.threshold),
            "is_upscaled": bool(self.is_upscaled),
            "per_view_lambda": [float(v) for v in self.per_view_lambda],
            "below_set": [int(v) for v in self.below_set],
            "lambda0_per_view": [float(v) for v in self.lambda0_per_view],
            "beta": float(self.beta),
            "sigma_w2": float(self.sigma_w2),
            "mp_lower": float(self.mp_lower),
            "mp_upper": float(self.mp_upper),
        }


def lower_median(values):
    """Median along the last axis with the deterministic lower-middle
    convention: element at 1-based index ceil(n/2) of the sorted sequence."""
    v = np.sort(np.asarray(values, dtype=float), axis=-1)
    if v.shape[-1] == 0:
        raise InvalidConfig("median of an empty set")
    return v[..., (v.shape[-1] + 1) // 2 - 1]


def view_eigenvalues(z, k):
    """Descending eigenvalues of (1/N) Z_K Z_K^T for every sliding view.

    View 2c takes columns c .. c+K-1 of the N x N matrix Z, view 2c+1 the
    same columns of Z^T (rows of Z), so there are V = 2 (N - K + 1) views.
    The views are one (2, V/2, N, K) stack of strided windows over the
    pair (Z, Z^T), so no view is copied. Their spectra come from the K x K
    Grams (1/N) Z_K^T Z_K, which share the nonzero eigenvalues of the
    N x N form, formed by one batched product and solved by one stacked
    eigvalsh. Returns a (V, K) array.
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    views = sliding_window_view(np.stack((z, z.T)), (n, k), axis=(1, 2))[:, 0]
    gram = (views.swapaxes(-1, -2) @ views) / n
    return np.linalg.eigvalsh(gram.swapaxes(0, 1).reshape(-1, k, k))[:, ::-1]


def detect(z, cfg):
    """Run the resampling detector on an N x N block.

    Per view: Lambda_v is the K-th largest eigenvalue of the view's sample
    autocorrelation. Views with Lambda_v below the lower MP edge form the
    set S. kappa is min(Lambda_v) when S is empty, the (lower) median of
    Lambda_v over views outside S when S is a proper subset, and otherwise
    the minimum over views of the smallest eigenvalue above the lower edge.
    If in that last branch no view has any eigenvalue above the edge, the
    spectrum is all noise floor and kappa = 0 (strongest upscaling evidence).
    """
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise InvalidConfig(f"detector expects a square block, got {z.shape}")
    if cfg.k > n:
        raise InvalidConfig(f"K={cfg.k} exceeds block size N={n}")
    beta = cfg.k / n
    edges = mp_edges(cfg.sigma_w2, beta)
    threshold = edges.upper if cfg.threshold is None else cfg.threshold

    eig = view_eigenvalues(z, cfg.k)
    lam = eig[:, -1]
    below = lam < edges.lower
    below_set = np.nonzero(below)[0]

    # fmin skips the masked entries and leaves NaN for rows with none left
    lambda0 = np.fmin.reduce(np.where(eig > edges.lower, eig, np.nan), axis=1)

    n_below = len(below_set)
    if n_below == 0:
        kappa = float(lam.min())
    elif n_below < len(eig):
        kappa = float(lower_median(lam[~below]))
    else:  # NaN: no view has an eigenvalue above the edge, kappa = 0
        kappa = float(np.nan_to_num(np.fmin.reduce(lambda0)))
    return DetectionResult(
        kappa=kappa,
        threshold=float(threshold),
        is_upscaled=bool(kappa < threshold),
        per_view_lambda=lam,
        below_set=below_set,
        lambda0_per_view=lambda0,
        beta=beta,
        sigma_w2=cfg.sigma_w2,
        mp_lower=edges.lower,
        mp_upper=edges.upper,
    )
