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
from numpy.lib.stride_tricks import as_strided

from .errors import InputError, check_count, check_range
from .spectra import mp_edges


@dataclass(frozen=True)
class DetectorConfig:
    """Detector settings: view width K and quantization step delta. The
    decision threshold is the theoretical MP upper edge."""

    k: int = 9
    delta: float = 1.0

    def __post_init__(self):
        check_count("K", self.k, 2)
        check_range("delta", self.delta, 0, low_open=True)

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
        raise InputError("median of an empty set")
    return v[..., (v.shape[-1] + 1) // 2 - 1]


def _square_blocks(z, k, stack=False):
    """z as a float array once it is one square block, or with ``stack`` a
    (..., N, N) stack of them, every value finite, and 1 <= K <= N."""
    z = np.asarray(z, dtype=float)
    if (z.ndim < 2 if stack else z.ndim != 2) or z.shape[-1] != z.shape[-2]:
        raise InputError(f"expected a square block, got {z.shape}")
    if not np.isfinite(z).all():
        raise InputError("block holds NaN or infinite values")
    n = z.shape[-1]
    if not 1 <= k <= n:
        raise InputError(f"K={k} outside 1..N, block size N={n}")
    return z


def _beta(k, n):
    """Aspect ratio K/N of a detector or estimator run, which needs K < N:
    at K = N (beta = 1) the support of every law reaches zero and the
    genuine signal floor bound is negative at every SNR, so a genuine
    block cannot be told from an upscaled one."""
    if k >= n:
        raise InputError(f"K={k} must be below the block size N={n}")
    return k / n


def _view_spectra(z, k):
    """Descending view spectra of every block of a checked (..., N, N)
    stack, as ``view_eigenvalues`` forms them: returns (..., V, K)."""
    n = z.shape[-1]
    lead = z.shape[:-2]
    # the two products interleave row by row, so the pair stride (N) is
    # below the window stride (2N + 1) and eigvalsh lays its output out in
    # view order: the reshape below is a view, not a copy
    pair = np.empty(lead + (n, 2, n))
    np.matmul(z.swapaxes(-1, -2), z, out=pair[..., 0, :])
    np.matmul(z, z.swapaxes(-1, -2), out=pair[..., 1, :])
    pair /= n
    *s_lead, s_row, s_pair, s_col = pair.strides
    grams = as_strided(pair, shape=lead + (n - k + 1, 2, k, k),
                       strides=(*s_lead, s_row + s_col, s_pair, s_row, s_col),
                       writeable=False)
    return np.linalg.eigvalsh(grams).reshape(lead + (-1, k))[..., ::-1]


def view_eigenvalues(z, k):
    """Descending eigenvalues of (1/N) Z_K Z_K^T for every sliding view.

    View 2c takes columns c .. c+K-1 of the N x N matrix Z, view 2c+1 the
    same columns of Z^T (rows of Z), so there are V = 2 (N - K + 1) views.
    Their spectra come from the K x K Grams (1/N) Z_K^T Z_K, which share
    the nonzero eigenvalues of the N x N form. The Gram of view 2c is the
    K x K diagonal window at (c, c) of (1/N) Z^T Z and that of view 2c+1
    the same window of (1/N) Z Z^T, so the pair of products is formed once
    and every Gram is a read-only strided window of it, solved by one
    stacked eigvalsh. Returns a (V, K) array. ``block_kappas`` runs the
    same code over a stack of blocks, with one eigvalsh for all of them.
    """
    return _view_spectra(_square_blocks(z, k), k)


def _kappa(eig, lower):
    """kappa (see ``detect``) of each block of a (..., V, K) stack of view
    spectra, given the lower MP edge; returns an array of shape (...).
    The median and the noise-floor branches are evaluated only when some
    block needs them: a stack with no view in S pays for no sort."""
    lam = eig[..., -1]
    if lam.min() >= lower:
        return lam.min(-1)
    # the n views in S sort first (below the edge, the rest are not), so
    # the lower median of the other V - n sits at index (V - 1 + n) // 2
    v, n = lam.shape[-1], (lam < lower).sum(-1)
    mid = np.take_along_axis(np.sort(lam, -1), ((v - 1 + n) // 2)[..., None],
                             axis=-1)
    kappa = np.where(n > 0, mid[..., 0], lam.min(-1))
    full = n == v
    if not full.any():
        return kappa
    # NaN: no eigenvalue of any view above the edge, kappa = 0
    floor = np.fmin.reduce(np.where(eig > lower, eig, np.nan), axis=(-2, -1))
    return np.where(full, np.nan_to_num(floor), kappa)


def block_kappas(blocks, cfg):
    """kappa of every block of a (..., N, N) stack, as ``detect(block,
    cfg).kappa`` gives it, from one stacked eigvalsh; returns shape (...).
    """
    z = _square_blocks(blocks, cfg.k, stack=True)
    lower = mp_edges(cfg.sigma_w2, _beta(cfg.k, z.shape[-1])).lower
    return _kappa(_view_spectra(z, cfg.k), lower)


def detect(z, cfg):
    """Run the resampling detector on an N x N block.

    Per view: Lambda_v is the K-th largest eigenvalue of the view's sample
    autocorrelation. Views with Lambda_v below the lower MP edge form the
    set S. kappa is min(Lambda_v) when S is empty, the (lower) median of
    Lambda_v over views outside S when S is a proper subset, and otherwise
    the minimum over views of the smallest eigenvalue above the lower edge.
    If in that last branch no view has any eigenvalue above the edge, the
    spectrum is all noise floor and kappa = 0 (strongest upscaling evidence).
    The threshold is the upper MP edge. K must be below N.
    """
    eig = view_eigenvalues(z, cfg.k)  # checks the block and K
    beta = _beta(cfg.k, len(z))
    edges = mp_edges(cfg.sigma_w2, beta)
    kappa = float(_kappa(eig, edges.lower))
    lam = eig[:, -1]
    return DetectionResult(
        kappa=kappa,
        threshold=float(edges.upper),
        is_upscaled=bool(kappa < edges.upper),
        per_view_lambda=lam,
        below_set=np.nonzero(lam < edges.lower)[0],
        # fmin skips the masked entries and leaves NaN for rows with none left
        lambda0_per_view=np.fmin.reduce(
            np.where(eig > edges.lower, eig, np.nan), axis=1),
        beta=beta,
        sigma_w2=cfg.sigma_w2,
        mp_lower=edges.lower,
        mp_upper=edges.upper,
    )
