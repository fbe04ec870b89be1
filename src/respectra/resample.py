"""Interpolation kernels, polyphase upscaling operators and quantization.

Rational upscaling by xi = L/M (coprime, xi >= 1) evaluates a symmetric
kernel h on the output grid: H[i, j] = h(i*M/L + phi - j). Row i carries
polyphase component (i*M mod L). The kernel autocorrelation sequence
r_hh[n] averages the polyphase components of H^T H into the Toeplitz
matrix that drives the asymptotic spectrum of upscaled fields.
"""

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import InputError, check_range


def _h_linear(t):
    t = np.abs(t)
    return np.where(t < 1.0, 1.0 - t, 0.0)


def _h_catmull_rom(t):
    # Keys cubic with a = -1/2
    t = np.abs(t)
    inner = 1.5 * t ** 3 - 2.5 * t ** 2 + 1.0
    outer = -0.5 * t ** 3 + 2.5 * t ** 2 - 4.0 * t + 2.0
    return np.where(t <= 1.0, inner, np.where(t < 2.0, outer, 0.0))


def _h_bspline(t):
    t = np.abs(t)
    inner = 2.0 / 3.0 - t ** 2 + 0.5 * t ** 3
    outer = (2.0 - t) ** 3 / 6.0
    return np.where(t <= 1.0, inner, np.where(t < 2.0, outer, 0.0))


def _h_lanczos3(t):
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) < 3.0, np.sinc(t) * np.sinc(t / 3.0), 0.0)


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric interpolation kernel with finite half-support.

    ``evaluator`` maps t -> h(t), vanishing for |t| >= half_support. The
    linear and both cubic kernels form a partition of unity
    (sum_n h(t+n) = 1 for every t); lanczos3 only approximately so.
    """

    name: str
    half_support: float
    evaluator: callable

    def __call__(self, t):
        return self.evaluator(t)

    @property
    def width(self):
        """Kernel width k_w = 2a; r_hh has integer lags |n| <= k_w - 1."""
        return int(round(2 * self.half_support))


KERNELS = {
    "linear": KernelSpec("linear", 1.0, _h_linear),
    "catmull-rom": KernelSpec("catmull-rom", 2.0, _h_catmull_rom),
    "b-spline": KernelSpec("b-spline", 2.0, _h_bspline),
    "lanczos3": KernelSpec("lanczos3", 3.0, _h_lanczos3),
}

_KERNEL_ALIASES = {
    "bspline": "b-spline", "b_spline": "b-spline",
    "catmullrom": "catmull-rom", "catmull_rom": "catmull-rom",
    "lanczos": "lanczos3",
}


def get_kernel(name):
    key = name.lower()
    key = _KERNEL_ALIASES.get(key, key)
    if key not in KERNELS:
        raise InputError(f"unknown kernel {name!r}; choose from {sorted(KERNELS)}")
    return KERNELS[key]


@dataclass(frozen=True)
class ResampleSpec:
    """Rational upscaling description: factor xi = L/M, phase and kernel.

    ``delta`` is the optional quantization step applied after interpolation
    (None leaves the output unquantized). L and M must be coprime with
    xi >= 1 (xi = 1 is the identity resampler, accepted so the operators
    degenerate gracefully; the upscaled spectral law itself requires
    xi > 1).
    """

    L: int
    M: int
    phi: float = 0.0
    kernel: KernelSpec = KERNELS["linear"]
    delta: float = None

    def __post_init__(self):
        check_range("L", self.L, 0, low_open=True)
        check_range("M", self.M, 0, low_open=True)
        if gcd(self.L, self.M) != 1:
            raise InputError(f"L={self.L} and M={self.M} must be coprime")
        if self.L < self.M:
            raise InputError(f"xi = L/M must be >= 1, got {self.L}/{self.M}")
        check_range("phase", self.phi, 0, 1, high_open=True)
        if self.delta is not None:
            check_range("quantization step", self.delta, 0, low_open=True)
        if isinstance(self.kernel, str):
            object.__setattr__(self, "kernel", get_kernel(self.kernel))

    @property
    def xi(self):
        return self.L / self.M


def build_polyphase(spec, out_rows, in_rows, row0=0, col0=0):
    """Polyphase interpolation matrix H with H[i, j] = h(i*M/L + phi - j).

    Rows near the input boundary are zero padded (no reflection); they are a
    vanishing fraction of the matrix as sizes grow. ``row0`` and ``col0``
    select a window: the result holds rows row0 .. row0+out_rows-1 and
    columns col0 .. col0+in_rows-1 of the matrix, bit-identical to the same
    slice of the full one. The last row may not exceed
    ceil((col0 + in_rows) * xi), past which rows have no support at all.

    Row i is nonzero only where |i*M/L + phi - j| < a, a the kernel
    half-support, so h is evaluated only on each row's band of 2a + 2
    columns from floor(i*M/L + phi) - a; every kernel is exactly 0.0 for
    |t| >= a, so the zeros elsewhere are the values the full evaluation
    gives.
    """
    if out_rows <= 0 or in_rows <= 0:
        raise InputError(f"need positive sizes, got {out_rows}x{in_rows}")
    if row0 + out_rows > int(np.ceil((col0 + in_rows) * spec.xi)):
        raise InputError(
            f"{row0 + out_rows} output rows exceed "
            f"ceil({col0 + in_rows} * {spec.xi})")
    a = int(np.ceil(spec.kernel.half_support))
    i = np.arange(row0, row0 + out_rows)[:, None]
    pos = i * spec.M / spec.L + spec.phi
    j = np.floor(pos).astype(int) - a + np.arange(2 * a + 2)
    r, k = np.nonzero((j >= col0) & (j < col0 + in_rows))
    h = np.zeros((out_rows, in_rows))
    h[r, j[r, k] - col0] = spec.kernel(pos - j)[r, k]
    return h


def support_columns(spec, row0, out_rows, in_rows):
    """Input columns [lo, hi) outside which rows row0 .. row0+out_rows-1 of
    the polyphase matrix are zero.

    Row i is nonzero only at columns j with |i*M/L + phi - j| < a, a the
    kernel half-support; the result is clipped to [0, in_rows).
    """
    a = int(np.ceil(spec.kernel.half_support))
    first = row0 * spec.M / spec.L + spec.phi
    last = (row0 + out_rows - 1) * spec.M / spec.L + spec.phi
    lo = max(0, int(np.floor(first)) + 1 - a)
    hi = min(in_rows, int(np.ceil(last)) + a)
    return lo, hi


def kernel_autocorr(spec):
    """Kernel autocorrelation r_hh[n] for n = 0 .. k_w - 1.

    r_hh[n] = (1/M) sum_k h(k/L + phi') h(k/L + phi' + n) over the full
    kernel support, where phi' is the phase reduced modulo the 1/L grid
    step (integer row shifts do not change the sample grid). The sequence
    is symmetric, r_hh[-n] = r_hh[n], and r_hh[0] dominates.
    """
    kern, L, M = spec.kernel, spec.L, spec.M
    a = kern.half_support
    kw = kern.width
    off = spec.phi % (1.0 / L)
    lo = int(np.floor((-a - kw) * L)) - 1
    hi = int(np.ceil(a * L)) + 1
    x = np.arange(lo, hi + 1) / L + off
    base = kern(x)
    return np.array([(base * kern(x + n)).sum() / M for n in range(kw)])


def quantize(y, delta):
    """Uniform mid-tread quantization delta * round(y / delta)."""
    check_range("quantization step", delta, 0, low_open=True)
    return delta * np.round(np.asarray(y, dtype=float) / delta)


def upscale(field, spec):
    """Separable upscale Y = H X H^T, quantized when the spec carries delta.

    The output is floor(R * xi) x floor(R * xi) for an R x R input.
    """
    x = np.asarray(field, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise InputError(f"expected a square field, got {x.shape}")
    r = x.shape[0]
    n = int(np.floor(r * spec.xi))
    if n < 2:
        raise InputError(f"upscaled output {n}x{n} is smaller than 2x2")
    h = build_polyphase(spec, n, r)
    y = h @ x @ h.T
    if spec.delta is not None:
        y = quantize(y, spec.delta)
    return y
