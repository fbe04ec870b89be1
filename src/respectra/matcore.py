"""Dense matrix primitives: seeded Gaussian sampling and the Toeplitz
matrices of the truncated AR(1) filter bank.

Matrices are plain float64 numpy arrays in row-major (C) order. Randomness
comes from numpy's PCG64 generator; a given 64-bit seed always reproduces the
same stream, and all sampling is linear in the requested standard deviation
(scaled standard normals), so fields scale exactly with sigma.
"""

import numpy as np

from .errors import InputError, check_range


def rng_from_seed(seed):
    """PCG64 generator for a 64-bit integer seed (or a SeedSequence)."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_seeds(seed, n):
    """Derive ``n`` independent child seeds from one master seed."""
    return [s.generate_state(1)[0] for s in np.random.SeedSequence(seed).spawn(n)]


def gaussian_matrix(rows, cols, sigma, seed):
    """i.i.d. N(0, sigma^2) matrix, deterministic per seed."""
    if rows <= 0 or cols <= 0:
        raise InputError(f"matrix dimensions must be positive, got {rows}x{cols}")
    check_range("sigma", sigma, 0, low_open=True)
    return sigma * rng_from_seed(seed).standard_normal((rows, cols))


def ar_u_matrix(rho, n, q):
    """n x (n+q-1) banded Toeplitz filter matrix: row i holds the causal
    AR(1) synthesis taps u[k] = rho^(q-1-k), k = 0..q-1, at columns i+k."""
    out = np.zeros((n, n + q - 1))
    rows, taps = np.arange(n)[:, None], np.arange(q)[None, :]
    out[rows, rows + taps] = rho ** np.arange(q - 1, -1, -1, dtype=float)
    return out


def ar_gram_sequence(rho, q, length):
    """Lag sequence of U U^T for the truncated AR(1) filter bank.

    Closed form (1 - rho^(2(q-k))) * rho^k / (1 - rho^2) at lag k < q, and
    exactly zero at lags k >= q where the shifted taps no longer overlap.
    For rho = 0 the filter is an impulse and the Gram matrix is the identity.
    """
    k = np.arange(length, dtype=float)
    if rho == 0.0:
        seq = np.zeros(length)
        seq[0] = 1.0
        return seq
    seq = (1.0 - rho ** (2.0 * (q - k))) * rho ** k / (1.0 - rho * rho)
    seq[k >= q] = 0.0
    return seq


def ar_gram_matrix(rho, q, n):
    """Dense n x n U U^T Gram matrix of the truncated AR(1) filter bank."""
    seq = ar_gram_sequence(rho, q, n)
    return seq[np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])]
