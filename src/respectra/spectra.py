"""Closed-form asymptotic spectra and spectral laws.

Large symmetric Toeplitz matrices distribute their eigenvalues like the
Fourier transform of their generating sequence, so the Gram matrices of the
AR filter bank (and of its upscaled counterpart) admit closed-form limiting
spectra d(omega) and d'(omega). The spectral law of the matching random
variable is d applied to a uniform angle, plus a point mass at zero when the
polyphase operator is rank deficient. Also here: Marchenko-Pastur support
edges for the quantization noise and the signal/noise gap bounds built from
them.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, check_range
from .resample import ResampleSpec, kernel_autocorr

TWO_PI = 2.0 * np.pi


def d_genuine(omega, rho):
    """Limiting Toeplitz spectrum of the AR(1) Gram: 1/(1+rho^2-2 rho cos w),
    for rho in [0, 1)."""
    check_range("rho", rho, 0, 1, high_open=True)
    omega = np.asarray(omega, dtype=float)
    return 1.0 / (1.0 + rho * rho - 2.0 * rho * np.cos(omega))


def cosine_series(omega, r_hh):
    """sum_{n=-(k-1)}^{k-1} r_hh[|n|] cos(n w) for a symmetric sequence."""
    omega = np.asarray(omega, dtype=float)
    total = np.full_like(omega, r_hh[0])
    for n in range(1, len(r_hh)):
        total = total + 2.0 * r_hh[n] * np.cos(n * omega)
    return total


def d_upscaled(omega, rho, r_hh):
    """Limiting spectrum after upscaling: d_genuine times the r_hh series.

    The Toeplitz-averaging approximation can turn slightly negative near
    discontinuities of the true spectrum; a spectrum is nonnegative, so
    negative values are clamped to zero (SpectralLaw.negative_clamped
    counts them).
    """
    return np.clip(d_genuine(omega, rho) * cosine_series(omega, r_hh), 0.0, None)


@dataclass(frozen=True)
class SpectralLaw:
    """Law of a limiting-spectrum random variable, as data: the AR
    coefficient ``rho`` and, for an upscaled law, the ``spec`` that
    upscaled it (None for a genuine law). Laws compare and hash by these
    two values (the spec's quantization step included, though no law
    reads it); everything else is derived from them.

    A draw is 0 with probability ``zero_mass`` = 1 - 1/xi; otherwise an
    angle is drawn with the constant density ``angular_density`` =
    1/(2 pi xi) on (0, 2 pi) and mapped through ``transform``, the
    spectrum d' with the kernel autocorrelation ``r_hh`` (r_hh = [1] and
    xi = 1 for a genuine law, where d' is d). The transform is even
    around pi. ``negative_clamped`` counts the 4096 probe angles at which
    the raw spectrum is negative before clamping; it and ``r_hh`` are
    computed on first read. Raises InputError for rho outside [0, 1) or
    a spec with L = M.
    """

    rho: float
    spec: ResampleSpec = None

    def __post_init__(self):
        check_range("rho", self.rho, 0, 1, high_open=True)
        if self.spec is not None and self.spec.L == self.spec.M:
            raise InputError(f"upscaled law requires xi > 1, got xi={self.xi}")

    @property
    def xi(self):
        return 1.0 if self.spec is None else self.spec.xi

    @property
    def zero_mass(self):
        return 1.0 - 1.0 / self.xi

    @property
    def angular_density(self):
        return 1.0 / (TWO_PI * self.xi)

    @cached_property
    def r_hh(self):
        r_hh = np.ones(1) if self.spec is None else kernel_autocorr(self.spec)
        r_hh.flags.writeable = False  # every read shares it
        return r_hh

    def transform(self, omega):
        return d_upscaled(omega, self.rho, self.r_hh)

    @property
    def descriptor(self):
        if self.spec is None:
            return f"genuine(rho={self.rho})"
        return (f"upscaled(rho={self.rho}, xi={self.spec.L}/{self.spec.M}, "
                f"kernel={self.spec.kernel.name}, phi={self.spec.phi})")

    @cached_property
    def negative_clamped(self):
        probe = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        raw = d_genuine(probe, self.rho) * cosine_series(probe, self.r_hh)
        return int((raw < 0).sum())

    def mean(self, nodes, panel_weights):
        """E[value] using quadrature nodes on (0, pi), symmetry doubled; the
        point mass at zero adds nothing."""
        contribution = (panel_weights * self.transform(nodes)).sum()
        return 2.0 * self.angular_density * contribution


def law_genuine(rho):
    """Law of the AR(1) limiting spectrum: d(Omega), Omega uniform, no mass."""
    return SpectralLaw(rho)


def law_upscaled(rho, spec):
    """Mixed law after upscaling by xi > 1: P(value=0) = 1 - 1/xi, and the
    continuous branch maps a (2 pi xi)^-1-density angle through d'."""
    return SpectralLaw(rho, spec)


def afze(beta, xi=1.0):
    """Asymptotic fraction of zero eigenvalues: 1 - min(beta P(T!=0), P(D!=0)).

    Both limiting spectra are positive wherever the angle branch is taken,
    so P(nonzero) = 1/xi and the fraction reduces to 1 - beta for genuine
    fields and 1 - beta/xi after upscaling.
    """
    check_range("beta", beta, 0, 1, low_open=True)
    check_range("xi", xi, 1)
    return 1.0 - min(beta / xi, 1.0 / xi)


@dataclass(frozen=True)
class MpEdges:
    """Marchenko-Pastur support edges sigma_w2 (1 -+ sqrt(beta))^2."""

    lower: float
    upper: float
    sigma_w2: float
    beta: float


def mp_edges(sigma_w2, beta):
    """Limiting eigenvalue support of the quantization-noise autocorrelation."""
    check_range("sigma_w2", sigma_w2, 0, low_open=True)
    check_range("beta", beta, 0)
    root = np.sqrt(beta)
    return MpEdges(lower=sigma_w2 * (1.0 - root) ** 2,
                   upper=sigma_w2 * (1.0 + root) ** 2,
                   sigma_w2=sigma_w2, beta=beta)


def signal_floor_bound(sigma_s2, sigma_w2, beta, lambda_minus_y):
    """Lower bound on the weakest signal eigenvalue of the quantized matrix:
    sigma_s2 * lambda_-(Sigma_Y) - sigma_w2 (1 + sqrt(beta))^2."""
    return sigma_s2 * lambda_minus_y - mp_edges(sigma_w2, beta).upper


def gap_lower_bound(sigma_s2, sigma_w2, beta, lambda_minus_y):
    """Asymptotic lower bound on the signal/noise eigenvalue ratio:
    (sigma_s2/sigma_w2) * lambda_-(Sigma_Y) / (1+sqrt(beta))^2 - 1.

    Monotone increasing in the signal-to-noise ratio sigma_s2/sigma_w2.
    """
    snr = sigma_s2 / sigma_w2
    return snr * lambda_minus_y / (1.0 + np.sqrt(beta)) ** 2 - 1.0
