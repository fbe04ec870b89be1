import numpy as np
import pytest

from respectra import (InputError, ar_gram_matrix, ar_gram_sequence,
                       ar_u_matrix, gaussian_matrix)


class TestGaussianMatrix:
    def test_deterministic_per_seed(self):
        a = gaussian_matrix(2, 2, 1.0, seed=7)
        b = gaussian_matrix(2, 2, 1.0, seed=7)
        assert np.array_equal(a, b)

    def test_seed_changes_stream(self):
        assert not np.array_equal(gaussian_matrix(2, 2, 1.0, seed=7),
                                  gaussian_matrix(2, 2, 1.0, seed=8))

    def test_law_of_large_numbers(self):
        m = gaussian_matrix(1000, 1000, 1.0, seed=42)
        assert abs(m.mean()) < 0.01
        assert abs(m.var() - 1.0) < 0.05

    def test_linear_in_sigma(self):
        a = gaussian_matrix(8, 8, 1.0, seed=3)
        b = gaussian_matrix(8, 8, 2.5, seed=3)
        assert np.allclose(b, 2.5 * a)

    def test_rejects_zero_sigma(self):
        with pytest.raises(InputError, match="sigma must be positive"):
            gaussian_matrix(4, 4, 0.0, seed=1)

    def test_rejects_zero_dims(self):
        with pytest.raises(InputError, match="dimensions must be positive"):
            gaussian_matrix(0, 4, 1.0, seed=1)


class TestToeplitz:
    def test_ar_row_pattern(self):
        # u_Q[n] = rho^(Q-1-n): Q=3, rho=0.5 -> [0.25, 0.5, 1.0]
        m = ar_u_matrix(0.5, 2, 3)
        assert np.array_equal(m, [[0.25, 0.5, 1.0, 0.0],
                                  [0.0, 0.25, 0.5, 1.0]])

    def test_symmetric_closed_form(self):
        # d[n] = rho^n/(1-rho^2) at rho=1/2, q large enough that the
        # truncation factor 1 - rho^(2(q-n)) is 1 to rounding
        m = ar_gram_matrix(0.5, 64, 3)
        third = 1.0 / 3.0
        want = np.array([[4 * third, 2 * third, third],
                         [2 * third, 4 * third, 2 * third],
                         [third, 2 * third, 4 * third]])
        assert np.allclose(m, want)

    def test_band_is_zero_outside(self):
        # lags at or beyond q vanish in U U^T, and U is zero off its band
        q, n = 3, 6
        gram = ar_gram_matrix(0.8, q, n)
        lag = np.abs(np.arange(n)[None, :] - np.arange(n)[:, None])
        assert np.all(gram[lag >= q] == 0)
        assert np.all(gram[lag < q] > 0)
        u = ar_u_matrix(0.8, 4, q)
        offset = np.arange(4 + q - 1)[None, :] - np.arange(4)[:, None]
        assert np.all(u[(offset < 0) | (offset >= q)] == 0)

    def test_symmetric_matrix_is_symmetric(self):
        n = 7
        m = ar_gram_matrix(0.9, 5, n)
        assert np.array_equal(m, m.T)
        seq = ar_gram_sequence(0.9, 5, n)
        for i in range(n):
            for j in range(n):
                assert m[i, j] == seq[abs(i - j)]


class TestArGram:
    def test_finite_q_closed_form(self):
        # U U^T must match (1-rho^(2(Q-|i-j|))) rho^|i-j| / (1-rho^2)
        rho, n = 0.8, 12
        for q in (n, 2 * n):
            u = ar_u_matrix(rho, n, q)
            gram = u @ u.T
            assert np.allclose(gram, ar_gram_matrix(rho, q, n), atol=1e-10)

    def test_rho_zero_identity(self):
        assert np.allclose(ar_gram_matrix(0.0, 8, 8), np.eye(8))
