import warnings

import numpy as np
import pytest

from respectra import (ArParams, DetectorConfig, EstimatorConfig, InputError,
                       ResampleSpec, detect, estimate, generate_field,
                       genuine_block, mp_edges, quantize, spawn_seeds,
                       upscaled_block)
from respectra.detect import (_view_spectra, block_kappas, lower_median,
                              view_eigenvalues)

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
        with pytest.raises(InputError, match="K must be at least 2"):
            DetectorConfig(k=1, delta=1.0)
        with pytest.raises(InputError, match=r"K=9 outside 1\.\.N"):
            detect(np.zeros((4, 4)), DetectorConfig(k=9, delta=1.0))

    def test_rejects_k_equal_to_n(self):
        # at K = N (beta = 1) the genuine signal floor bound is negative at
        # every SNR; view_eigenvalues still computes the spectra there
        z = genuine_block(0.97, 1000.0, 16, 1.0, seed=3)
        match = "K=16 must be below the block size N=16"
        with pytest.raises(InputError, match=match):
            detect(z, DetectorConfig(k=16, delta=1.0))
        with pytest.raises(InputError, match=match):
            estimate(z, EstimatorConfig(k=16, delta=1.0))
        with pytest.raises(InputError, match=match):
            block_kappas(np.stack([z, z]), DetectorConfig(k=16, delta=1.0))
        assert view_eigenvalues(z, 16).shape == (2, 16)

    @pytest.mark.parametrize("z", [np.float64(1.0), np.ones(32),
                                   np.ones((32, 31))])
    def test_rejects_input_that_is_not_a_square_block(self, z):
        with pytest.raises(InputError, match="expected a square block"):
            detect(z, DetectorConfig(k=9, delta=1.0))


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

    @pytest.mark.parametrize("shape,k", [((32, 32), 9), ((64, 64), 16),
                                         ((3, 2, 32, 32), 9), ((5, 5), 5)])
    def test_spectra_are_a_view_of_the_eigensolve(self, monkeypatch, shape,
                                                  k):
        # eigvalsh returns the spectra in view order, so no copy is made
        outs = []
        eigvalsh = np.linalg.eigvalsh

        def kept(a):
            outs.append(eigvalsh(a))
            return outs[-1]

        monkeypatch.setattr(np.linalg, "eigvalsh", kept)
        z = np.random.default_rng(k).standard_normal(shape)
        got = _view_spectra(z, k)
        assert outs[0].flags.c_contiguous
        assert np.shares_memory(got, outs[0])

    @pytest.mark.parametrize("shape,k", [((8, 8), 9), ((8, 8), 0),
                                         ((8, 9), 3), ((8,), 3),
                                         ((2, 8, 8), 3)])
    def test_rejects_widths_and_shapes_outside_the_block(self, shape, k):
        # the Grams are strided windows of one product; a bad K or shape
        # must raise before any window could reach past it
        with pytest.raises(InputError,
                           match=r"expected a square block|outside 1\.\.N"):
            view_eigenvalues(np.ones(shape), k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_values_that_are_not_finite(self, bad):
        # eigvalsh ended in numpy's LinAlgError on such a block
        cfg = DetectorConfig(k=3, delta=1.0)
        with pytest.raises(InputError, match="NaN or infinite"):
            detect(np.full((8, 8), bad), cfg)
        blocks = np.random.default_rng(1).standard_normal((2, 8, 8))
        blocks[1, 4, 4] = bad
        with pytest.raises(InputError, match="NaN or infinite"):
            block_kappas(blocks, cfg)

    def test_rejects_blocks_whose_grams_overflow(self):
        # finite values past about 1e154 overflow the Gram products, on
        # which eigvalsh ended in numpy's LinAlgError; the overflow warning
        # is silenced, as quantize silences its own
        z = np.random.default_rng(0).standard_normal((32, 32)) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: detect(z, DetectorConfig()),
                         lambda: estimate(z, EstimatorConfig()),
                         lambda: block_kappas(z[None], DetectorConfig())):
                with pytest.raises(InputError, match="Gram products overflow"):
                    call()


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


def kappa_oracle(eig, lower):
    """kappa of one block's (V, K) view spectra, branch by branch."""
    lam = eig[:, -1]
    below = lam < lower
    if not below.any():
        return lam.min()
    if not below.all():
        return lower_median(lam[~below])
    above = eig[eig > lower]
    return above.min() if above.size else 0.0


class TestStackedBlocks:
    @pytest.mark.parametrize("shape,k", [((5, 2, 32, 32), 9),
                                         ((3, 64, 64), 16)])
    def test_stacked_spectra_equal_per_block_calls(self, shape, k):
        z = np.random.default_rng(k).standard_normal(shape)
        got = _view_spectra(z, k)
        assert got.shape == shape[:-2] + (2 * (shape[-1] - k + 1), k)
        for idx in np.ndindex(shape[:-2]):
            assert np.array_equal(got[idx], view_eigenvalues(z[idx], k))

    def test_block_kappas_equal_detect_on_every_branch(self):
        # fig7's unit-variance blocks at SNR 0.003 .. 1e3: the lowest point
        # quantizes some blocks to all zeros (kappa 0) and leaves others
        # with every view below the edge, the middle ones mix blocks with
        # some views below and blocks with none, the highest has none below
        cfg = DetectorConfig(k=9, delta=1.0)
        spec = ResampleSpec(L=3, M=2, kernel="linear")
        seeds = spawn_seeds(5, 16)
        blocks = np.array([
            [generate_field(ArParams(rho=0.97, n=32, q=512), seeds[2 * i]),
             upscaled_block(0.97, 1.0, 32, spec, seeds[2 * i + 1])]
            for i in range(8)])
        branches = set()
        for snr in (0.003, 0.03, 0.3, 1e3):
            q = quantize(np.sqrt(snr * cfg.sigma_w2) * blocks, cfg.delta)
            got = block_kappas(q, cfg)
            assert got.shape == (8, 2)
            for idx in np.ndindex(8, 2):
                res = detect(q[idx], cfg)
                ref = kappa_oracle(view_eigenvalues(q[idx], 9), res.mp_lower)
                assert got[idx] == res.kappa == ref
                n = len(res.below_set)
                branches.add("none" if n == 0 else "some" if n < 48
                             else "all, zero" if ref == 0 else "all")
        assert branches == {"none", "some", "all", "all, zero"}

    @pytest.mark.parametrize("shape,k", [((4, 8, 8), 9), ((4, 8, 9), 3),
                                         ((8,), 3)])
    def test_block_kappas_rejects_bad_stacks(self, shape, k):
        with pytest.raises(InputError,
                           match=r"expected a square block|outside 1\.\.N"):
            block_kappas(np.ones(shape), DetectorConfig(k=k, delta=1.0))
