import numpy as np
import pytest

from respectra import (ArParams, DetectorConfig, EstimatorConfig,
                       InputError, KERNELS, ResampleSpec, afze,
                       cosine_series, d_genuine, d_upscaled, eigen_pdf,
                       gap_lower_bound, gaussian_matrix, kernel_autocorr,
                       law_genuine, law_upscaled, mp_edges, quadrature_nodes,
                       quantize, run_figure, signal_floor_bound)

NAN = float("nan")
INF = float("inf")
# the four kernels at the factors 3/2, 2/1, 4/3 and 8/5
POLYPHASE_SPECS = [ResampleSpec(L=lnum, M=m, kernel=kernel)
                   for kernel in KERNELS.values()
                   for lnum, m in ((3, 2), (2, 1), (4, 3), (8, 5))]


class TestDGenuine:
    def test_peak_at_zero(self):
        assert d_genuine(0.0, 0.97) == pytest.approx(1.0 / 0.03 ** 2)

    def test_value_at_pi(self):
        assert d_genuine(np.pi, 0.97) == pytest.approx(1.0 / 1.97 ** 2)

    def test_flat_for_white_noise(self):
        w = np.linspace(0, 2 * np.pi, 50)
        assert np.allclose(d_genuine(w, 0.0), 1.0)

    @pytest.mark.parametrize("rho", [1.0, -0.1, NAN])
    def test_rejects_rho_outside_unit_interval(self, rho):
        # rho = 1 would divide by zero at omega = 0
        with pytest.raises(InputError, match=r"rho must lie in \[0, 1\)"):
            d_genuine(np.array([0.0, 1.0]), rho)

    def test_mean_is_ar_variance(self):
        # closed-form AR(1) spectrum integral: mean over omega = 1/(1-rho^2)
        for rho in (0.5, 0.9, 0.97):
            w = np.linspace(0, 2 * np.pi, 200001)
            mean = np.trapezoid(d_genuine(w, rho), w) / (2 * np.pi)
            assert mean == pytest.approx(1.0 / (1 - rho * rho), rel=1e-6)


class TestDUpscaled:
    def test_identity_sequence_reduces_to_genuine(self):
        w = np.linspace(0, 2 * np.pi, 64)
        assert np.allclose(d_upscaled(w, 0.97, np.array([1.0])),
                           d_genuine(w, 0.97))

    def test_linear_xi2_values(self):
        r = kernel_autocorr(ResampleSpec(L=2, M=1))
        # omega=0: 1111.11 * (1.5 + 2*0.25); omega=pi: 0.25766 * (1.5 - 0.5)
        assert d_upscaled(0.0, 0.97, r) == pytest.approx(
            (1 / 0.03 ** 2) * 2.0, rel=1e-9)
        assert d_upscaled(np.pi, 0.97, r) == pytest.approx(
            1 / 1.97 ** 2, rel=1e-9)

    def test_negative_values_clamped(self):
        # synthetic sequence with a sign-changing cosine series
        r = np.array([1.0, 0.6])
        w = np.linspace(0, 2 * np.pi, 400)
        assert cosine_series(w, r).min() < 0
        assert d_upscaled(w, 0.5, r).min() == 0.0


class TestLaws:
    def test_genuine_masses(self):
        law = law_genuine(0.97)
        assert law.zero_mass == 0.0
        assert law.angular_density == pytest.approx(1 / (2 * np.pi))

    def test_upscaled_mass_is_one_minus_inverse_xi(self):
        law = law_upscaled(0.97, ResampleSpec(L=2, M=1))
        assert law.zero_mass == pytest.approx(0.5)
        assert law.angular_density == pytest.approx(1 / (4 * np.pi))

    def test_upscaled_rejects_identity(self):
        with pytest.raises(InputError, match="requires xi > 1"):
            law_upscaled(0.97, ResampleSpec(L=1, M=1))

    def test_genuine_mean_closed_form(self):
        nodes, weights = quadrature_nodes()
        for rho in (0.0, 0.9, 0.97):
            law = law_genuine(rho)
            assert law.mean(nodes, weights) == pytest.approx(
                1.0 / (1.0 - rho * rho), rel=1e-10)

    def test_clamp_counter(self):
        # P(omega) >= 0 by the polyphase identity (TestPolyphaseIdentity),
        # so no probe angle of these laws is clamped
        assert law_genuine(0.9).negative_clamped == 0
        for spec in POLYPHASE_SPECS:
            assert law_upscaled(0.97, spec).negative_clamped == 0


class TestPolyphaseIdentity:
    @pytest.mark.parametrize("spec", POLYPHASE_SPECS,
                             ids=lambda s: f"{s.kernel.name}-{s.L}/{s.M}")
    def test_cosine_series_is_mean_polyphase_power(self, spec):
        # kernel_autocorr sums h(x) h(x + n) over the whole 1/L grid, so the
        # cosine series P(omega) is (1/M) sum_p |H_p(e^{i omega})|^2 with
        # h_p[j] = h(j + p/L), the p-th polyphase subsequence: P >= 0
        omega = np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False)
        p_omega = cosine_series(omega, kernel_autocorr(spec))
        a = int(np.ceil(spec.kernel.half_support))
        j = np.arange(-a - 1, a + 2)
        phases = np.exp(-1j * np.outer(omega, j))
        power = sum(np.abs(phases @ spec.kernel(j + p / spec.L)) ** 2
                    for p in range(spec.L)) / spec.M
        assert np.abs(p_omega - power).max() <= 1e-14 * p_omega.max()


class TestTraceConsistency:
    def test_law_mean_matches_finite_trace(self):
        # mean of the upscaled law equals lim tr(H Din H^T)/N of the finite
        # construction (within 5%; observed well under 1% already at R=300)
        from respectra import ar_gram_matrix, build_polyphase
        nodes, weights = quadrature_nodes()
        rho, r = 0.97, 300
        din = ar_gram_matrix(rho, r, r)
        for name in KERNELS:
            for (lnum, m) in ((4, 3), (2, 1)):
                spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
                n = int(np.floor(r * spec.xi))
                h = build_polyphase(spec, n, r)
                finite = np.trace(h @ din @ h.T) / n
                law = law_upscaled(rho, spec)
                assert law.mean(nodes, weights) == pytest.approx(finite,
                                                                 rel=0.05)


class TestAfze:
    def test_genuine_values(self):
        assert afze(0.5, 1.0) == pytest.approx(0.5)
        assert afze(1.0, 1.0) == 0.0

    def test_upscaled_value(self):
        assert afze(1.0, 2.0) == pytest.approx(0.5)

    def test_rejects_beta_above_one(self):
        with pytest.raises(InputError, match=r"beta must lie in \(0, 1\]"):
            afze(1.2, 1.0)


class TestMpEdges:
    def test_paper_configuration(self):
        e = mp_edges(1.0 / 12.0, 9.0 / 32.0)
        assert e.upper == pytest.approx(0.19516, abs=5e-6)
        assert e.lower == pytest.approx(0.01838, abs=5e-6)

    def test_degenerate_beta(self):
        e = mp_edges(2.0, 0.0)
        assert e.lower == e.upper == pytest.approx(2.0)
        assert mp_edges(2.0, 1.0).lower == 0.0


class TestGapBound:
    def test_beta_zero_limit(self):
        assert gap_lower_bound(10.0, 1.0, 0.0, 0.5) == pytest.approx(4.0)

    def test_arithmetic_oracle(self):
        # 1200 * 0.02 / (1 + sqrt(0.125))^2 - 1
        got = gap_lower_bound(1200.0, 1.0, 0.125, 0.02)
        assert got == pytest.approx(12.0997, abs=1e-3)

    def test_monotone_in_snr(self):
        vals = [gap_lower_bound(s, 1.0, 0.25, 0.1) for s in (10, 100, 1000)]
        assert vals[0] < vals[1] < vals[2]

    def test_signal_floor(self):
        assert signal_floor_bound(100.0, 1.0, 0.25, 0.1) == pytest.approx(
            100 * 0.1 - (1 + 0.5) ** 2)


RANGE_CHECKS = (
    ("ArParams.sigma_s2", lambda x: ArParams(rho=0.5, n=8, sigma_s2=x),
     "sigma_s2 must be positive"),
    ("quantize", lambda x: quantize(np.ones(3), x),
     "quantization step must be positive"),
    ("ResampleSpec.delta", lambda x: ResampleSpec(L=2, M=1, delta=x),
     "quantization step must be positive"),
    ("DetectorConfig.delta", lambda x: DetectorConfig(k=9, delta=x),
     "delta must be positive"),
    ("EstimatorConfig.delta", lambda x: EstimatorConfig(k=16, delta=x),
     "delta must be positive"),
    ("EstimatorConfig.xi_max", lambda x: EstimatorConfig(k=16, xi_max=x),
     "xi_max must exceed 1"),
    ("EstimatorConfig.t_mu", lambda x: EstimatorConfig(k=16, t_mu=x),
     "t_mu must be positive"),
    ("gaussian_matrix", lambda x: gaussian_matrix(2, 2, x, seed=1),
     "sigma must be positive"),
    ("mp_edges.sigma_w2", lambda x: mp_edges(x, 0.5),
     "sigma_w2 must be positive"),
    ("mp_edges.beta", lambda x: mp_edges(1.0, x), "beta must be nonnegative"),
)


# NaN fails every comparison and an infinity passes one side of it, so
# each check also asks for a finite value (errors.check_range)
@pytest.mark.parametrize("build,value,match", [
    (build, value, match) for value in (NAN, INF, -INF)
    for _, build, match in RANGE_CHECKS
], ids=[name if value is NAN else f"{name}={value}"
        for value in (NAN, INF, -INF) for name, _, _ in RANGE_CHECKS])
def test_nan_fails_range_checks(build, value, match):
    with pytest.raises(InputError, match=match):
        build(value)


COUNT_CHECKS = (
    ("eigen_pdf.points", lambda x: eigen_pdf(
        law_genuine(0.5), law_genuine(0.5), 0.5, points=x), "points"),
    ("run_figure.realizations", lambda x: run_figure(
        "fig7", "unwritten", params={"snr_grid": (1e2,)}, realizations=x),
     "realizations"),
    ("DetectorConfig.k", lambda x: DetectorConfig(k=x), "K"),
    ("EstimatorConfig.k", lambda x: EstimatorConfig(k=x), "K"),
    ("EstimatorConfig.k_w", lambda x: EstimatorConfig(k_w=x), "k_w"),
    ("ArParams.n", lambda x: ArParams(rho=0.5, n=x), "field side length"),
    ("ArParams.q", lambda x: ArParams(rho=0.5, n=8, q=x),
     "AR truncation length"),
    ("ResampleSpec.L", lambda x: ResampleSpec(L=x, M=1), "L"),
    ("ResampleSpec.M", lambda x: ResampleSpec(L=3, M=x), "M"),
)


# a fractional count used to end in a TypeError from numpy or math.gcd, or
# (k_w, n, q) to be accepted; an integral float is refused the same way
# (errors.check_count)
@pytest.mark.parametrize("build,value,name", [
    (build, value, name) for value in (2.5, 2.0)
    for _, build, name in COUNT_CHECKS
], ids=[f"{site}={value}" for value in (2.5, 2.0)
        for site, _, _ in COUNT_CHECKS])
def test_non_integer_count_raises_input_error(build, value, name):
    with pytest.raises(InputError,
                       match=f"^{name} must be an integer, got {value}$"):
        build(value)


def test_numpy_integer_counts_accepted():
    assert ArParams(rho=0.5, n=np.int64(8), q=np.int32(3)).n == 8
    assert DetectorConfig(k=np.int64(9)).k == 9
