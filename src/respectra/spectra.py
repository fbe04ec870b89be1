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

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .resample import kernel_autocorr

TWO_PI = 2.0 * np.pi


def d_genuine(omega, rho):
    """Limiting Toeplitz spectrum of the AR(1) Gram: 1/(1+rho^2-2 rho cos w)."""
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
    negative values are clamped to zero (law_upscaled counts them).
    """
    return np.clip(d_genuine(omega, rho) * cosine_series(omega, r_hh), 0.0, None)


@dataclass(frozen=True)
class SpectralLaw:
    """Law of a limiting-spectrum random variable.

    A draw is 0 with probability ``zero_mass``; otherwise an angle is drawn
    with the constant density ``angular_density`` on (0, 2 pi) and mapped
    through ``transform``. The transform is even around pi for every law
    built here. ``negative_clamped`` counts probe points at which the raw
    upscaled spectrum was negative before clamping.
    """

    zero_mass: float
    transform: callable = field(repr=False)
    angular_density: float
    xi: float = 1.0
    descriptor: str = ""
    negative_clamped: int = 0

    def __post_init__(self):
        total = self.zero_mass + self.angular_density * TWO_PI
        if abs(total - 1.0) > 1e-12:
            raise InputError(f"law masses add to {total}, expected 1")

    def mean(self, nodes, panel_weights):
        """E[value] using quadrature nodes on (0, pi), symmetry doubled; the
        point mass at zero adds nothing."""
        contribution = (panel_weights * self.transform(nodes)).sum()
        return 2.0 * self.angular_density * contribution

    def sample(self, n, seed):
        """Monte Carlo draws from the law (testing aid)."""
        rng = np.random.Generator(np.random.PCG64(seed))
        omega = rng.uniform(0.0, TWO_PI, size=n)
        values = self.transform(omega)
        if self.zero_mass > 0:
            values = np.where(rng.uniform(size=n) < self.zero_mass, 0.0, values)
        return values


def law_genuine(rho):
    """Law of the AR(1) limiting spectrum: d(Omega), Omega uniform, no mass."""
    if not 0.0 <= rho < 1.0:
        raise InputError(f"rho must lie in [0, 1), got {rho}")
    return SpectralLaw(
        zero_mass=0.0,
        transform=lambda w: d_genuine(w, rho),
        angular_density=1.0 / TWO_PI,
        xi=1.0,
        descriptor=f"genuine(rho={rho})",
    )


def law_upscaled(rho, spec):
    """Mixed law after upscaling by xi > 1: P(value=0) = 1 - 1/xi, and the
    continuous branch maps a (2 pi xi)^-1-density angle through d'; clamps
    are counted on 4096 probe angles."""
    if not 0.0 <= rho < 1.0:
        raise InputError(f"rho must lie in [0, 1), got {rho}")
    xi = spec.xi
    if xi <= 1.0:
        raise InputError(f"upscaled law requires xi > 1, got xi={xi}")
    r_hh = kernel_autocorr(spec)
    probe = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    raw = d_genuine(probe, rho) * cosine_series(probe, r_hh)
    return SpectralLaw(
        zero_mass=1.0 - 1.0 / xi,
        transform=lambda w: d_upscaled(w, rho, r_hh),
        angular_density=1.0 / (TWO_PI * xi),
        xi=xi,
        descriptor=f"upscaled(rho={rho}, xi={spec.L}/{spec.M}, "
                   f"kernel={spec.kernel.name}, phi={spec.phi})",
        negative_clamped=int((raw < 0).sum()),
    )


def afze(beta, xi=1.0):
    """Asymptotic fraction of zero eigenvalues: 1 - min(beta P(T!=0), P(D!=0)).

    Both limiting spectra are positive wherever the angle branch is taken,
    so P(nonzero) = 1/xi and the fraction reduces to 1 - beta for genuine
    fields and 1 - beta/xi after upscaling.
    """
    if not 0.0 < beta <= 1.0:
        raise InputError(f"beta must lie in (0, 1], got {beta}")
    if xi < 1.0:
        raise InputError(f"xi must be >= 1, got {xi}")
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
    if sigma_w2 <= 0:
        raise InputError(f"sigma_w2 must be positive, got {sigma_w2}")
    if beta < 0:
        raise InputError(f"beta must be nonnegative, got {beta}")
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
