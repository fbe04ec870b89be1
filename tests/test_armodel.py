import numpy as np
import pytest

import respectra.armodel
from respectra import (ArParams, InputError, NumericalError, ar_gram_matrix,
                       generate_field, sample_autocorr, standardize)
from respectra.armodel import MAX_SIDE, ar_gram_cholesky


def lag1_row_correlation(x):
    a, b = x[:, :-1].ravel(), x[:, 1:].ravel()
    return np.corrcoef(a, b)[0, 1]


class TestGenerateField:
    def test_white_noise_when_rho_zero(self):
        x = generate_field(ArParams(rho=0.0, n=512), seed=1)
        assert abs(lag1_row_correlation(x)) < 0.05

    def test_lag1_correlation_tracks_rho(self):
        # Monte Carlo oracle over 20 seeds
        rho = 0.97
        corrs = [lag1_row_correlation(generate_field(ArParams(rho=rho, n=512),
                                                     seed=s))
                 for s in range(20)]
        assert abs(np.mean(corrs) - rho) < 0.02

    def test_separable_variance_oracle(self):
        # product of two 1-D AR(1) variances: 1/(1-rho^2)^2
        x = generate_field(ArParams(rho=0.5, n=512, q=512), seed=2)
        want = 1.0 / (1.0 - 0.25) ** 2
        assert abs(x.var() / want - 1.0) < 0.10

    def test_row_covariance_kronecker_oracle(self):
        # cov(vec X) = G kron G with G = U U^T, so E[X X^T] / n = tr(G)/n G.
        # 4000 draws of a 6 x 6 field give a standard error of about 0.02 of
        # the largest entry; the tolerance is 0.1 of it (about 5 standard
        # errors).
        rho, n, q, draws = 0.9, 6, 40, 4000
        gram = ar_gram_matrix(rho, q, n)
        want = np.trace(gram) / n * gram
        acc = np.zeros((n, n))
        for s in range(draws):
            x = generate_field(ArParams(rho=rho, n=n, q=q), seed=s)
            acc += x @ x.T / n
        err = np.abs(acc / draws - want).max()
        assert err <= 0.1 * np.abs(want).max()

    def test_singular_gram_raises_numerical_error(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        # a memoized factor from an earlier test would skip the factorization
        respectra.armodel._memo_cholesky.cache_clear()
        with pytest.raises(NumericalError) as info:
            generate_field(ArParams(rho=0.9, n=8, q=16), seed=1)
        assert "rho=0.9" in str(info.value)
        assert "q=16" in str(info.value) and "n=8" in str(info.value)

    def test_side_length_bound(self):
        # checked when the parameters are built, before anything is drawn
        assert ArParams(rho=0.5, n=MAX_SIDE).n == MAX_SIDE
        with pytest.raises(InputError, match="at most 4096"):
            ArParams(rho=0.5, n=MAX_SIDE + 1)

    def test_eigenvalue_scaling_in_sigma(self):
        p1 = ArParams(rho=0.9, n=64, sigma_s2=1.0)
        p4 = ArParams(rho=0.9, n=64, sigma_s2=4.0)
        e1 = sample_autocorr(generate_field(p1, seed=5)[:, :32]).eigenvalues()
        e4 = sample_autocorr(generate_field(p4, seed=5)[:, :32]).eigenvalues()
        assert np.allclose(e4, 4.0 * e1, rtol=1e-9, atol=1e-12)

    def test_rank_bound(self):
        x = generate_field(ArParams(rho=0.9, n=64), seed=3)
        ev = sample_autocorr(x[:, :16]).eigenvalues()
        assert (ev < 1e-9 * ev[0]).sum() == 64 - 16

    def test_scree_dominance_over_gaussian(self):
        # AR leading eigenvalue beats the white-noise one (majority of seeds)
        wins = 0
        for s in range(20):
            ar = generate_field(ArParams(rho=0.945, n=128), seed=s)
            g = generate_field(ArParams(rho=0.0, n=128, q=1), seed=1000 + s)
            lam_ar = sample_autocorr(standardize(ar)).eigenvalues()
            lam_g = sample_autocorr(standardize(g)).eigenvalues()
            wins += lam_ar[0] > lam_g[0]
        assert wins > 10


class TestArGramCholeskyMemo:
    # (0.9, 16, 8) and (0.9, 32, 8) share rho and n, (0.97, 64, 8) and
    # (0.97, 64, 16) share rho and q: a key missing q or n returns a
    # factor of another Gram
    KEYS = ((0.9, 16, 8), (0.9, 32, 8), (0.97, 64, 8), (0.97, 64, 16),
            (0.0, 1, 8), (0.97, 512, 32), (0.97, 512, 64))

    def test_factor_is_read_only_fresh_factorization(self):
        respectra.armodel._memo_cholesky.cache_clear()
        for _ in ("miss", "hit"):
            for rho, q, n in self.KEYS:
                got = ar_gram_cholesky(rho, q, n)
                want = np.linalg.cholesky(ar_gram_matrix(rho, q, n))
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    got[0, 0] = 1.0
        info = respectra.armodel._memo_cholesky.cache_info()
        assert (info.misses, info.hits) == (len(self.KEYS), len(self.KEYS))

    def test_shared_up_to_64_fresh_above(self):
        assert ar_gram_cholesky(0.9, 64, 64) is ar_gram_cholesky(0.9, 64, 64)
        respectra.armodel._memo_cholesky.cache_clear()
        big = ar_gram_cholesky(0.9, 65, 65)
        again = ar_gram_cholesky(0.9, 65, 65)
        assert big is not again and big.flags.writeable
        assert big.tobytes() == again.tobytes()
        assert respectra.armodel._memo_cholesky.cache_info().currsize == 0

    def test_memo_has_a_fixed_size(self):
        info = respectra.armodel._memo_cholesky.cache_info()
        assert info.maxsize == 64


class TestSampleAutocorr:
    def test_zero_block(self):
        out = sample_autocorr(np.zeros((8, 4)))
        assert np.all(out.matrix == 0)
        assert out.beta == 0.5

    def test_orthogonal_rows_give_identity(self):
        n = 6
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
        block = q * np.sqrt(n)
        assert np.allclose(sample_autocorr(block).matrix, np.eye(n))

    def test_trace_identity(self):
        # E[tr Sigma] / N = beta for unit-variance entries
        rng = np.random.default_rng(8)
        vals = []
        for _ in range(30):
            b = rng.standard_normal((32, 9))
            vals.append(np.trace(sample_autocorr(b).matrix) / 32)
        assert abs(np.mean(vals) / (9 / 32) - 1.0) < 0.15

    def test_rejects_wide_block(self):
        with pytest.raises(InputError, match="K <= N"):
            sample_autocorr(np.ones((4, 8)))

    def test_standardize_flag(self):
        rng = np.random.default_rng(4)
        b = 3.0 + 2.0 * rng.standard_normal((16, 8))
        z = standardize(b)
        assert z.mean() == pytest.approx(0.0, abs=1e-12)
        assert z.std() == pytest.approx(1.0)
        assert sample_autocorr(z).matrix.shape == (16, 16)
        with pytest.raises(InputError, match="constant"):
            standardize(np.full((4, 2), 7.0))

    def test_eigenvalues_descending(self):
        rng = np.random.default_rng(11)
        ev = sample_autocorr(rng.standard_normal((20, 12))).eigenvalues()
        assert np.all(np.diff(ev) <= 0)

    def test_eigenvalues_psd(self):
        rng = np.random.default_rng(7)
        ev = sample_autocorr(rng.standard_normal((30, 15))).eigenvalues()
        assert ev.min() >= -1e-10

    def test_eigenvalues_gram_duality(self):
        # nonzero spectra of (1/N) B B^T and (1/N) B^T B coincide
        rng = np.random.default_rng(9)
        b = rng.standard_normal((24, 10))
        big = sample_autocorr(b).eigenvalues()[:10]
        small = np.linalg.eigvalsh(b.T @ b / 24)[::-1]
        assert np.allclose(big, small, rtol=1e-8)
