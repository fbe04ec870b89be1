import numpy as np
import pytest

from respectra import (DetectorConfig, InvalidConfig, ResampleSpec, detect,
                       genuine_block, mp_edges, upscaled_block)
from respectra.detect import lower_median, view_eigenvalues

SNR = 1.2e4  # sigma_s2 = 1000 at delta = 1


class TestConfig:
    def test_threshold_matches_mp_upper_edge(self):
        cfg = DetectorConfig(k=9, delta=1.0)
        res = detect(np.random.default_rng(0).standard_normal((32, 32)), cfg)
        edges = mp_edges(1.0 / 12.0, 9.0 / 32.0)
        assert res.threshold == pytest.approx(0.19516, abs=5e-6)
        assert res.mp_lower == pytest.approx(0.01838, abs=5e-6)
        assert res.beta == pytest.approx(9 / 32)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidConfig):
            DetectorConfig(k=1, delta=1.0)
        with pytest.raises(InvalidConfig):
            detect(np.zeros((4, 4)), DetectorConfig(k=9, delta=1.0))

    def test_custom_threshold(self):
        z = genuine_block(0.97, 1000.0, 32, 1.0, seed=3)
        res = detect(z, DetectorConfig(k=9, delta=1.0, threshold=1e9))
        assert res.is_upscaled  # everything is below an absurd threshold


class TestLowerMedian:
    def test_odd_count(self):
        assert lower_median([3.0, 1.0, 2.0]) == 2.0

    def test_even_count_takes_lower_middle(self):
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0

    def test_rows_of_2d_input(self):
        rows = np.array([[4.0, 1.0, 3.0, 2.0], [9.0, 7.0, 8.0, 5.0],
                         [0.5, np.inf, 0.25, np.inf]])
        med = lower_median(rows)
        assert np.array_equal(med, [lower_median(r) for r in rows])
        assert np.array_equal(med, [2.0, 7.0, 0.5])


class TestViewEigenvalues:
    def test_view_count_paper_configuration(self):
        z = np.random.default_rng(0).standard_normal((32, 32))
        assert view_eigenvalues(z, 9).shape == (48, 9)

    @pytest.mark.parametrize("n,k", [(32, 9), (64, 16), (32, 32), (40, 2)])
    def test_view_order_matches_per_view_loop(self, n, k):
        # view 2c: columns c..c+K-1 of Z; view 2c+1: the same columns of Z^T
        z = np.random.default_rng(n + k).standard_normal((n, n))
        ref = []
        for c in range(n - k + 1):
            for m in (z, z.T):
                zk = m[:, c:c + k]
                ref.append(np.linalg.eigvalsh((zk.T @ zk) / n)[::-1])
        np.testing.assert_allclose(view_eigenvalues(z, k), ref, rtol=1e-12)


class TestDecision:
    def test_genuine_blocks_pass(self):
        hits = sum(
            detect(genuine_block(0.97, 1000.0, 32, 1.0, seed=s),
                   DetectorConfig(k=9, delta=1.0)).is_upscaled
            for s in range(40))
        assert hits <= 2  # FAR small at high SNR

    @pytest.mark.parametrize("kernel", ["linear", "catmull-rom", "b-spline",
                                        "lanczos3"])
    def test_upscaled_blocks_flagged(self, kernel):
        spec = ResampleSpec(L=2, M=1, kernel=kernel, delta=1.0)
        hits = sum(
            detect(upscaled_block(0.97, 1000.0, 32, spec, seed=s),
                   DetectorConfig(k=9, delta=1.0)).is_upscaled
            for s in range(40))
        assert hits >= 38

    def test_diagnostics_shape(self):
        z = genuine_block(0.97, 1000.0, 32, 1.0, seed=9)
        res = detect(z, DetectorConfig(k=9, delta=1.0))
        assert len(res.per_view_lambda) == 48
        assert len(res.lambda0_per_view) == 48
        assert res.is_upscaled == (res.kappa < res.threshold)
        d = res.to_dict()
        assert set(d) >= {"kappa", "threshold", "is_upscaled",
                          "per_view_lambda", "below_set", "lambda0_per_view"}


class TestInvariants:
    def test_gram_duality_of_lambda_k(self):
        # K-th largest of the N x N form equals the smallest of the K x K form
        z = genuine_block(0.9, 100.0, 24, 1.0, seed=5)
        k = 7
        zk = z[:, :k]
        big = np.linalg.eigvalsh(zk @ zk.T / 24)[::-1][k - 1]
        small = np.linalg.eigvalsh(zk.T @ zk / 24)[0]
        assert big == pytest.approx(small, rel=1e-8, abs=1e-10)

    def test_kappa_invariant_to_transpose(self):
        z = genuine_block(0.95, 400.0, 24, 1.0, seed=6)
        cfg = DetectorConfig(k=7, delta=1.0)
        assert detect(z, cfg).kappa == pytest.approx(detect(z.T, cfg).kappa,
                                                     rel=1e-12)

    def test_high_snr_unquantized_stays_above_threshold(self):
        # unquantized genuine AR input: Lambda_v clears the threshold
        # computed for any delta at most 1/1000 of the working scale
        z = genuine_block(0.97, 1e6, 32, 1e-9, seed=8)
        cfg = DetectorConfig(k=9, delta=np.sqrt(1e6) / 1e3)
        res = detect(z, cfg)
        assert res.per_view_lambda.min() > res.threshold
        assert not res.is_upscaled

    def test_lambda0_matches_per_view_loop(self):
        # a strong corner leaves some views entirely at the noise floor
        z = np.zeros((40, 40))
        z[:12, :12] = np.round(
            np.random.default_rng(5).standard_normal((12, 12)) * 100)
        res = detect(z, DetectorConfig(k=9, delta=1.0))
        ref = []
        for ev in view_eigenvalues(z, 9):
            above = ev[ev > res.mp_lower]
            ref.append(above.min() if len(above) else np.nan)
        assert np.isnan(ref).any() and not np.isnan(ref).all()
        np.testing.assert_array_equal(res.lambda0_per_view, ref)

    def test_all_noise_floor_gives_kappa_zero(self):
        res = detect(np.zeros((16, 16)), DetectorConfig(k=5, delta=1.0))
        assert res.kappa == 0.0
        assert res.is_upscaled
