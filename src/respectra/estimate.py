"""Resampling-factor interval estimation from eigenvalue-ratio profiles.

Upscaling by xi leaves each sliding view's sample autocorrelation with a
signal subspace of dimension roughly (K-1)/xi + k_w, so the profile of
consecutive eigenvalue ratios Psi[i] = lambda_i / lambda_{i+1} spikes at the
signal/noise boundary. The per-view boundary votes are aggregated by
histogram mode and mapped back to an interval of compatible resampling
factors; when the peak-to-median ratio statistic mu signals a smeared gap,
the index closest to the MP upper edge is used instead and only the upper
interval endpoint is trusted.
"""

from dataclasses import dataclass

import numpy as np

from .detect import _beta, lower_median, view_eigenvalues
from .errors import NumericalError, check_count, check_range
from .spectra import mp_edges

RATIO_ZERO_CUTOFF = 1e-14


@dataclass(frozen=True)
class EstimatorConfig:
    """Estimator settings.

    ``k_w`` is the interpolation kernel width (2 x half-support) assumed
    when mapping the subspace boundary back to a factor; ``xi_max`` bounds
    the considered factors and fixes the searched index window; ``t_mu``
    separates sharp rank gaps (argmax vote) from smeared ones (MP-edge
    vote).
    """

    k: int = 16
    delta: float = 1.0
    k_w: int = 2
    xi_max: float = 2.0
    t_mu: float = 2.0

    def __post_init__(self):
        check_count("K", self.k, 3)
        check_range("delta", self.delta, 0, low_open=True)
        check_count("k_w", self.k_w, 1)
        check_range("xi_max", self.xi_max, 1, low_open=True)
        check_range("t_mu", self.t_mu, 0, low_open=True)
        check_range("floor(K / xi_max)", int(self.k / self.xi_max), 1)

    @property
    def sigma_w2(self):
        return self.delta ** 2 / 12.0


@dataclass(frozen=True)
class EstimationResult:
    """Outcome of one estimator run.

    ``interval`` is [xi_lower, xi_upper); ``p_hat`` the estimated signal
    subspace boundary (0 when no view produced a vote); ``psi`` the (V, K-1)
    ratio profiles with Psi[v, i-1] = lambda_i / lambda_{i+1};
    ``clamped`` flags intervals that fell back to [1, xi_max) because the
    analytic endpoint degenerated.
    """

    p_hat: int
    interval: tuple
    mu: float
    per_view_p: np.ndarray
    psi: np.ndarray
    below_set: np.ndarray
    mu_branch: str
    clamped: bool

    def to_dict(self):
        return {
            "p_hat": int(self.p_hat),
            "xi_lower": float(self.interval[0]),
            "xi_upper": float(self.interval[1]),
            "mu": float(self.mu),
            "per_view_p": [int(v) for v in self.per_view_p],
            "below_set": [int(v) for v in self.below_set],
            "mu_branch": self.mu_branch,
            "clamped": bool(self.clamped),
        }


def ratio_profile(eigenvalues):
    """Psi[..., i-1] = lambda_i / lambda_{i+1} along the last axis of
    descending eigenvalues (one profile per row of a (V, K) array).

    Eigenvalues at or below RATIO_ZERO_CUTOFF times the row's largest are
    treated as exact zeros: a positive/zero ratio is +inf (a maximal gap),
    a zero/zero ratio is 1 (no gap information).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    top = lam[..., :1]
    cut = np.where(top > 0, RATIO_ZERO_CUTOFF * top, 0.0)
    head, tail = lam[..., :-1], lam[..., 1:]
    psi = np.where(head > cut, np.inf, 1.0)
    return np.divide(head, tail, out=psi, where=tail > cut)


def estimate(z, cfg):
    """Estimate the resampling-factor interval of an N x N block.

    Implements the sliding-view vote: per view v outside the noise set S,
    the vote p_v is the argmax of Psi over the index window
    I = {floor(K/xi_max) .. K-1} when the gap statistic mu >= t_mu, or the
    index whose eigenvalue is closest to the MP upper edge when mu < t_mu;
    views in S vote 0. p_hat is the histogram mode over {0..K} (smallest
    index wins ties) and maps to
        [ (K-1)/((p_hat-k_w)+1), (K-1)/((p_hat-k_w)-1) )
    with the one-sided variant [1, (K-1)/((p_hat-k_w)-1)) when mu < t_mu
    and [1, xi_max) when p_hat = 0 or the endpoint degenerates.
    """
    k = cfg.k
    eig = view_eigenvalues(z, k)  # checks the block and K
    beta = _beta(k, len(z))
    edges = mp_edges(cfg.sigma_w2, beta)
    i_start = int(k / cfg.xi_max)          # 1-based window start
    window = slice(i_start - 1, k - 1)     # Psi indices for i in I

    psi = ratio_profile(eig)
    below = eig[:, -1] < edges.lower
    below_set = np.nonzero(below)[0]
    if below.all():
        raise NumericalError(
            "every view sits below the noise floor; mu is undefined")

    # descending profiles are >= 1, so med >= 1; a profile of all maximal
    # gaps (med = inf) has no contrast and contributes 1
    seg = psi[~below, window]
    med = lower_median(seg)
    terms = np.divide(seg.max(axis=1), med, out=np.ones_like(med),
                      where=~np.isinf(med))
    mu = float(np.mean(terms))

    if mu >= cfg.t_mu:
        votes = i_start + np.argmax(psi[:, window], axis=1)
    else:
        votes = np.argmin(np.abs(eig - edges.upper), axis=1) + 1  # 1-based
    p_v = np.where(below, 0, votes)

    counts = np.bincount(p_v, minlength=k + 1)
    p_hat = int(np.argmax(counts))         # smallest index wins ties

    clamped = False
    if p_hat == 0:
        interval = (1.0, cfg.xi_max)
    else:
        d = p_hat - cfg.k_w
        if d - 1 <= 0:
            interval = (1.0, cfg.xi_max)
            clamped = True
        elif mu < cfg.t_mu:
            interval = (1.0, (k - 1) / (d - 1))
        else:
            interval = (max(1.0, (k - 1) / (d + 1)), (k - 1) / (d - 1))
    return EstimationResult(
        p_hat=p_hat,
        interval=interval,
        mu=mu,
        per_view_p=p_v,
        psi=psi,
        below_set=below_set,
        mu_branch="argmax" if mu >= cfg.t_mu else "mp-edge",
        clamped=clamped,
    )
