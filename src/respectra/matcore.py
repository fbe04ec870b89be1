"""Dense matrix primitives: seeded Gaussian sampling, symmetric eigenvalues,
and Toeplitz builders shared by the field model and the resampling operators.

Matrices are plain float64 numpy arrays in row-major (C) order. Randomness
comes from numpy's PCG64 generator; a given 64-bit seed always reproduces the
same stream, and all sampling is linear in the requested standard deviation
(scaled standard normals), so fields scale exactly with sigma.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrix, InvalidShape

SYMMETRY_RTOL = 1e-9


def rng_from_seed(seed):
    """PCG64 generator for a 64-bit integer seed (or a SeedSequence)."""
    return np.random.Generator(np.random.PCG64(seed))


def spawn_seeds(seed, n):
    """Derive ``n`` independent child seeds from one master seed."""
    return [s.generate_state(1)[0] for s in np.random.SeedSequence(seed).spawn(n)]


def gaussian_matrix(rows, cols, sigma, seed):
    """i.i.d. N(0, sigma^2) matrix, deterministic per seed."""
    if rows <= 0 or cols <= 0:
        raise InvalidShape(f"matrix dimensions must be positive, got {rows}x{cols}")
    if sigma <= 0:
        raise InvalidShape(f"sigma must be positive, got {sigma}")
    return sigma * rng_from_seed(seed).standard_normal((rows, cols))


def sym_eigenvalues(m):
    """All eigenvalues of a symmetric matrix, sorted descending.

    The input must be square and symmetric within a relative tolerance of
    1e-9; otherwise InvalidMatrix is raised.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    if scale > 0 and np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
        raise InvalidMatrix("matrix is not symmetric within 1e-9 relative tolerance")
    return np.linalg.eigvalsh(m)[::-1].copy()


@dataclass(frozen=True)
class ToeplitzSpec:
    """Constant-diagonal matrix description.

    ``center`` is the value on the main diagonal (lag 0) and ``lags`` holds
    the values at lags 1, 2, ... For ``symmetric`` specs the materialized
    matrix depends on |i-j| only; otherwise the lags run one-sided toward the
    upper triangle (entry at column offset j-i >= 0) and the lower triangle
    is zero, which is the shape of a causal filter bank.
    """

    center: float
    lags: tuple
    symmetric: bool = True

    def sequence(self):
        return np.concatenate([[self.center], np.asarray(self.lags, dtype=float)])


def toeplitz_materialize(spec, rows, cols):
    """Materialize a ToeplitzSpec into a dense rows x cols matrix.

    Entries outside the band covered by the spec's lags are zero.
    """
    if rows <= 0 or cols <= 0:
        raise InvalidShape(f"matrix dimensions must be positive, got {rows}x{cols}")
    seq = spec.sequence()
    offsets = np.arange(cols)[None, :] - np.arange(rows)[:, None]
    if spec.symmetric:
        offsets = np.abs(offsets)
    padded = np.zeros(max(rows, cols) + len(seq))
    padded[: len(seq)] = seq
    out = np.where((offsets >= 0) & (offsets < len(seq)),
                   padded[np.clip(offsets, 0, None)], 0.0)
    return out


def ar_u_sequence(rho, q):
    """Truncated causal AR(1) synthesis taps u[n] = rho^(q-1-n), n = 0..q-1."""
    return rho ** np.arange(q - 1, -1, -1, dtype=float)


def ar_u_matrix(rho, n, q):
    """n x (n+q-1) banded Toeplitz filter matrix built from ar_u_sequence."""
    u = ar_u_sequence(rho, q)
    spec = ToeplitzSpec(center=u[0], lags=tuple(u[1:]), symmetric=False)
    return toeplitz_materialize(spec, n, n + q - 1)


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
    spec = ToeplitzSpec(center=seq[0], lags=tuple(seq[1:]), symmetric=True)
    return toeplitz_materialize(spec, n, n)
