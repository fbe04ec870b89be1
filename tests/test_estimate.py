import numpy as np
import pytest

from respectra import (EstimatorConfig, InputError, NumericalError,
                       KERNELS, ResampleSpec, estimate, genuine_block,
                       mp_edges, upscaled_block)
from respectra.detect import lower_median, view_eigenvalues
from respectra.estimate import ratio_profile

HIGH_SNR = 1e8 / 12.0  # sigma_s2 for SNR 1e8 at delta = 1


class TestConfig:
    def test_index_window(self):
        # floor(K / xi_max) for K=9, xi_max=2 -> window {4..8}
        cfg = EstimatorConfig(k=9, delta=1.0, k_w=2, xi_max=2.0)
        assert int(cfg.k / cfg.xi_max) == 4

    def test_rejects_bad_window(self):
        with pytest.raises(InputError, match=r"floor\(K / xi_max\)"):
            EstimatorConfig(k=3, delta=1.0, k_w=2, xi_max=4.0)


class TestRatioProfile:
    def test_plain_ratios(self):
        psi = ratio_profile(np.array([8.0, 4.0, 1.0]))
        assert np.allclose(psi, [2.0, 4.0])

    def test_zero_tail(self):
        psi = ratio_profile(np.array([8.0, 2.0, 0.0, 0.0]))
        assert psi[0] == 4.0
        assert np.isinf(psi[1])
        assert psi[2] == 1.0

    def test_rows_match_row_by_row_profiles(self):
        # each row is cut against its own largest eigenvalue
        eig = np.array([[8.0, 4.0, 1.0, 0.5],
                        [8.0, 2.0, 0.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0],
                        [1e-20, 1e-21, 0.0, 0.0]])
        psi = ratio_profile(eig)
        assert np.array_equal(psi, [ratio_profile(r) for r in eig])
        assert np.array_equal(psi, [[2.0, 4.0, 2.0],
                                    [4.0, np.inf, 1.0],
                                    [1.0, 1.0, 1.0],
                                    [1e-20 / 1e-21, np.inf, 1.0]])

    def test_exact_rank_boundary_is_argmax(self):
        # synthetic fixed-rank views: argmax of the profile hits the rank
        rng = np.random.default_rng(2)
        n, k, p = 40, 12, 7
        b = rng.standard_normal((n, p)) @ rng.standard_normal((p, k))
        ev = np.linalg.eigvalsh(b.T @ b / n)[::-1]
        psi = ratio_profile(ev)
        assert int(np.argmax(psi)) + 1 == p


class TestEstimate:
    @pytest.mark.parametrize("kernel,lnum,m", [
        ("linear", 2, 1), ("linear", 3, 2),
        ("b-spline", 2, 1), ("b-spline", 3, 2),
    ])
    def test_interval_contains_true_factor(self, kernel, lnum, m):
        xi = lnum / m
        spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[kernel], delta=1.0)
        cfg = EstimatorConfig(k=16, delta=1.0, k_w=KERNELS[kernel].width)
        hits = 0
        trials = 25
        for s in range(trials):
            z = upscaled_block(0.97, HIGH_SNR, 64, spec, seed=s, field_n=128)
            res = estimate(z, cfg)
            lo, hi = res.interval
            hits += lo <= xi < hi
        assert hits / trials >= 0.7

    def test_scale_invariance_exact_for_binary_scale(self):
        # a power-of-two scale factor is exactly representable and passes
        # bitwise through the eigensolver: every output is identical
        spec = ResampleSpec(L=2, M=1, delta=1.0)
        z = upscaled_block(0.97, HIGH_SNR, 48, spec, seed=11, field_n=96)
        c = 32.0
        r1 = estimate(z, EstimatorConfig(k=12, delta=1.0, k_w=2))
        r2 = estimate(c * z, EstimatorConfig(k=12, delta=c * 1.0, k_w=2))
        assert r1.p_hat == r2.p_hat
        assert r1.mu == r2.mu
        assert np.array_equal(r1.per_view_p, r2.per_view_p)
        assert r1.interval == r2.interval

    def test_scale_invariance_discrete_outputs_general_scale(self):
        # arbitrary scales perturb eigenvalue roundoff, but the votes and
        # the interval are stable
        spec = ResampleSpec(L=2, M=1, delta=1.0)
        z = upscaled_block(0.97, HIGH_SNR, 48, spec, seed=11, field_n=96)
        c = 37.5
        r1 = estimate(z, EstimatorConfig(k=12, delta=1.0, k_w=2))
        r2 = estimate(c * z, EstimatorConfig(k=12, delta=c * 1.0, k_w=2))
        assert r1.p_hat == r2.p_hat
        assert np.array_equal(r1.per_view_p, r2.per_view_p)
        assert r1.interval == r2.interval

    def test_interval_brackets_point_estimate(self):
        spec = ResampleSpec(L=2, M=1, delta=1.0)
        z = upscaled_block(0.97, HIGH_SNR, 64, spec, seed=4, field_n=128)
        res = estimate(z, EstimatorConfig(k=16, delta=1.0, k_w=2))
        if res.p_hat - 2 > 1 and not res.clamped:
            point = 15 / (res.p_hat - 2)
            assert res.interval[0] <= point <= res.interval[1]

    def test_p_hat_zero_gives_full_interval(self):
        # a strong corner leaves a handful of full-rank views; the rest sit
        # at the noise floor and vote zero, which wins the histogram
        rng = np.random.default_rng(5)
        z = np.zeros((40, 40))
        z[:12, :12] = np.round(rng.standard_normal((12, 12)) * 100)
        res = estimate(z, EstimatorConfig(k=10, delta=1.0, k_w=2,
                                          xi_max=2.0))
        assert res.p_hat == 0
        assert res.interval == (1.0, 2.0)
        assert 0 < len(res.below_set) < len(res.per_view_p)

    def test_insufficient_views(self):
        with pytest.raises(NumericalError, match="below the noise floor"):
            estimate(np.zeros((24, 24)),
                     EstimatorConfig(k=8, delta=1.0, k_w=2))

    def test_result_dict_fields(self):
        spec = ResampleSpec(L=2, M=1, delta=1.0)
        z = upscaled_block(0.97, HIGH_SNR, 48, spec, seed=3, field_n=96)
        res = estimate(z, EstimatorConfig(k=12, delta=1.0, k_w=2))
        d = res.to_dict()
        assert set(d) >= {"p_hat", "xi_lower", "xi_upper", "mu",
                          "per_view_p", "mu_branch"}
        assert res.psi.shape == (2 * (48 - 12 + 1), 11)


def per_view_reference(z, cfg):
    """mu and the votes of estimate, computed one view at a time."""
    eig = view_eigenvalues(z, cfg.k)
    edges = mp_edges(cfg.sigma_w2, cfg.k / z.shape[0])
    i_start = int(cfg.k / cfg.xi_max)
    terms, candidates = [], []
    for ev in eig:
        if ev[-1] < edges.lower:
            candidates.append((0, 0))
            continue
        seg = ratio_profile(ev)[i_start - 1:]
        med, peak = lower_median(seg), seg.max()
        terms.append(1.0 if np.isinf(peak) and np.isinf(med) else peak / med)
        candidates.append((i_start + int(np.argmax(seg)),
                           int(np.argmin(np.abs(ev - edges.upper))) + 1))
    mu = float(np.mean(terms))
    return mu, [c[0] if mu >= cfg.t_mu else c[1] for c in candidates]


class TestPerViewReference:
    @pytest.mark.parametrize("kind", ["genuine", "upscaled", "corner",
                                      "maximal-gap"])
    def test_matches_per_view_loop(self, kind):
        # genuine blocks take the MP-edge vote, upscaled ones the argmax
        # vote, the corner block has views in the noise set, and a rank-2
        # block 1e7 above unit noise with a one-index window (K = 3,
        # xi_max = 1.4) has views whose only ratio is a maximal gap
        cfg = EstimatorConfig(k=10, delta=1.0, k_w=2)
        rng = np.random.default_rng(5)
        if kind == "genuine":
            z = genuine_block(0.97, 1000.0, 48, 1.0, seed=1, field_n=96)
        elif kind == "upscaled":
            spec = ResampleSpec(L=2, M=1, delta=1.0)
            z = upscaled_block(0.97, 1000.0, 48, spec, seed=1, field_n=96)
        elif kind == "corner":
            z = np.zeros((40, 40))
            z[:12, :12] = np.round(rng.standard_normal((12, 12)) * 100)
        else:
            cfg = EstimatorConfig(k=3, delta=1.0, k_w=1, xi_max=1.4)
            z = 1e7 * rng.standard_normal((16, 2)) @ \
                rng.standard_normal((2, 16)) + rng.standard_normal((16, 16))
        res = estimate(z, cfg)
        mu, votes = per_view_reference(z, cfg)
        assert res.mu == mu
        assert np.array_equal(res.per_view_p, votes)
        eig = view_eigenvalues(z, cfg.k)
        assert np.array_equal(res.psi, [ratio_profile(ev) for ev in eig])
        assert (len(res.below_set) > 0) == (kind == "corner")
        if kind == "maximal-gap":
            assert np.isinf(res.psi[:, -1]).any()
