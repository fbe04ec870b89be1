"""Causal 2D autoregressive random fields and their sample autocorrelation.

The field model is X = U S U^T where U is the banded Toeplitz filter
matrix of a truncated AR(1) recursion (equal row/column correlation rho)
and S holds i.i.d. Gaussian innovations; fields are drawn with that law
from the closed-form Gram matrix U U^T. Renormalized sample
autocorrelation matrices (1/N) B B^T of N x K submatrices are the objects
whose eigenvalue spectra the rest of the package analyzes.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, check_range
from .matcore import ar_gram_matrix, gaussian_matrix


@dataclass(frozen=True)
class ArParams:
    """Parameters of the causal 2D-AR(1) field model.

    rho is the one-step correlation coefficient shared by rows and columns,
    sigma_s2 the innovation variance, q the truncation length of the AR
    filter (None means q = n, long enough for the closed-form Gram
    expressions to apply), and n the side length of the generated field.
    Eigenvalues of any derived autocorrelation matrix scale linearly in
    sigma_s2.
    """

    rho: float
    n: int
    sigma_s2: float = 1.0
    q: int = None

    def __post_init__(self):
        check_range("rho", self.rho, 0, 1, high_open=True)
        check_range("sigma_s2", self.sigma_s2, 0, low_open=True)
        check_range("field side length", self.n, 2)
        if self.q is not None:
            check_range("AR truncation length", self.q, 1)

    @property
    def q_eff(self):
        return self.n if self.q is None else self.q


# Monte Carlo trials draw many small blocks from a few parameter sets, so
# parameter-only factors of at most _MEMO_SIDE x _MEMO_SIDE entries are
# kept, read-only, in LRU memos of _MEMO_SIZE entries (at most 32 KiB
# each). Larger fields build theirs per call and keep nothing alive.
_MEMO_SIDE = 64
_MEMO_SIZE = 64


def ar_gram_cholesky(rho, q, n):
    """Lower Cholesky factor of the n x n Gram matrix U U^T of memory q.

    For n <= 64 the factor is read-only and shared: it comes from an LRU
    memo keyed by (rho, q, n), bit-identical to a fresh factorization.
    """
    if n <= _MEMO_SIDE:
        return _memo_cholesky(rho, q, n)
    return _cholesky(rho, q, n)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo_cholesky(rho, q, n):
    c = _cholesky(rho, q, n)
    c.flags.writeable = False
    return c


def _cholesky(rho, q, n):
    try:
        return np.linalg.cholesky(ar_gram_matrix(rho, q, n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"AR Gram matrix is not positive definite "
            f"(rho={rho}, q={q}, n={n})") from exc


def generate_field(params, seed):
    """Sample an n x n field with the law of X = U S U^T.

    U is n x (n+q-1) with taps rho^(q-1-k) and S is i.i.d. N(0, sigma_s2),
    so cov(vec X) = sigma_s2 (U U^T) kron (U U^T). The field is drawn as
    C G C^T with C = chol(U U^T) from the closed-form Gram matrix and G an
    n x n i.i.d. N(0, sigma_s2) matrix, which has exactly that law without
    materializing U or S. U U^T is Toeplitz, so an (n, q) field has the law
    of any n x n interior crop of a larger field with memory q. The sample
    is exactly linear in sqrt(sigma_s2): a field generated with
    sigma_s2 = c is sqrt(c) times the sigma_s2 = 1 field for the same seed.
    """
    n = params.n
    c = ar_gram_cholesky(params.rho, params.q_eff, n)
    g = gaussian_matrix(n, n, np.sqrt(params.sigma_s2), seed)
    return c @ g @ c.T


@dataclass(frozen=True)
class SampleAutocorr:
    """Renormalized sample autocorrelation (1/N) B B^T of an N x K block."""

    matrix: np.ndarray
    beta: float

    def eigenvalues(self):
        """Eigenvalues sorted descending (PSD up to roundoff)."""
        return np.linalg.eigvalsh(self.matrix)[::-1].copy()


def standardize(block):
    """The block reduced to zero mean and unit standard deviation over all
    entries, the preprocessing applied to real image blocks before spectral
    analysis. A constant block cannot be standardized."""
    b = np.asarray(block, dtype=float)
    sd = b.std()
    if sd == 0:
        raise InputError("cannot standardize a constant block")
    return (b - b.mean()) / sd


def sample_autocorr(block):
    """(1/N) B B^T for an N x K block, with beta = K/N. Synthetic zero-mean
    fields are analyzed raw; image blocks go through standardize first."""
    b = np.asarray(block, dtype=float)
    n, k = b.shape
    if k > n:
        raise InputError(f"block must have K <= N, got {n}x{k}")
    return SampleAutocorr(matrix=(b @ b.T) / n, beta=k / n)
