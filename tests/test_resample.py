import numpy as np
import pytest

from respectra import (InputError, KERNELS, ResampleSpec, ar_gram_matrix,
                       build_polyphase, get_kernel, kernel_autocorr, quantize,
                       support_columns, upscale)


def brute_force_gram(spec, in_rows):
    """Direct double-sum oracle for the input-domain Gram matrix H^T H."""
    out_rows = int(np.floor(in_rows * spec.xi))
    h = spec.kernel
    g = np.zeros((in_rows, in_rows))
    for i in range(in_rows):
        for j in range(in_rows):
            total = 0.0
            for l in range(out_rows):
                total += h(l * spec.M / spec.L + spec.phi - i) \
                    * h(l * spec.M / spec.L + spec.phi - j)
            g[i, j] = total
    return g


def dense_polyphase(spec, out_rows, in_rows, row0=0, col0=0):
    """The kernel evaluated at every entry: H[i, j] = h(i*M/L + phi - j)."""
    i = np.arange(row0, row0 + out_rows)[:, None]
    j = np.arange(col0, col0 + in_rows)[None, :]
    return spec.kernel(i * spec.M / spec.L + spec.phi - j)


class TestKernels:
    def test_symmetry(self):
        t = np.linspace(0.0, 3.5, 200)
        for kern in KERNELS.values():
            assert np.allclose(kern(t), kern(-t))

    def test_support(self):
        for kern in KERNELS.values():
            a = kern.half_support
            assert kern(np.array([a, a + 0.5, -a])).max() == 0.0
            assert kern.width == int(2 * a)

    def test_partition_of_unity(self):
        # holds exactly for linear and the two cubics
        shifts = np.arange(-6, 7)
        for name in ("linear", "catmull-rom", "b-spline"):
            kern = KERNELS[name]
            for t in np.linspace(-0.5, 0.5, 41):
                assert abs(kern(t + shifts).sum() - 1.0) < 1e-9

    def test_interpolating_kernels_hit_samples(self):
        ints = np.arange(-3, 4)
        for name in ("linear", "catmull-rom", "lanczos3"):
            vals = KERNELS[name](ints.astype(float))
            assert vals[3] == pytest.approx(1.0)
            assert np.allclose(np.delete(vals, 3), 0.0, atol=1e-12)

    def test_aliases(self):
        assert get_kernel("bspline") is KERNELS["b-spline"]
        assert get_kernel("CATMULL-ROM") is KERNELS["catmull-rom"]
        with pytest.raises(InputError, match="unknown kernel 'nearest'"):
            get_kernel("nearest")


class TestResampleSpec:
    def test_rejects_non_coprime(self):
        with pytest.raises(InputError, match="must be coprime"):
            ResampleSpec(L=4, M=2)

    def test_rejects_downscale(self):
        with pytest.raises(InputError, match="must be >= 1"):
            ResampleSpec(L=2, M=3)


class TestBuildPolyphase:
    def test_xi2_linear_rows(self):
        spec = ResampleSpec(L=2, M=1)
        h = build_polyphase(spec, 8, 4)
        for i in range(0, 8, 2):
            row = np.zeros(4)
            row[i // 2] = 1.0
            assert np.allclose(h[i], row)
        assert np.allclose(h[1], [0.5, 0.5, 0.0, 0.0])
        assert np.allclose(h[3], [0.0, 0.5, 0.5, 0.0])

    def test_identity_for_interpolating_kernels(self):
        for name in ("linear", "catmull-rom", "lanczos3"):
            spec = ResampleSpec(L=1, M=1, kernel=KERNELS[name])
            assert np.allclose(build_polyphase(spec, 6, 6), np.eye(6),
                               atol=1e-12)

    def test_rank_fraction(self):
        spec = ResampleSpec(L=2, M=1)
        h = build_polyphase(spec, 1024, 512)
        assert abs(np.linalg.matrix_rank(h) / 1024 - 0.5) <= 1 / 1024

    def test_polyphase_row_energies_alternate(self):
        # xi=2 linear: even rows are impulses (energy 1), odd rows two
        # half taps (energy 0.5)
        h = build_polyphase(ResampleSpec(L=2, M=1), 16, 8)
        energies = (h ** 2).sum(axis=1)
        assert np.allclose(energies[2:-2:2], 1.0)
        assert np.allclose(energies[3:-2:2], 0.5)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_window_is_slice_of_full_matrix(self, name):
        # rows c .. c+B-1 and columns [lo, hi) of H, built on their own,
        # equal the slice of the full H bit for bit, and those rows of the
        # full H are exactly zero outside [lo, hi)
        for lnum, m in ((2, 1), (3, 2), (8, 5)):
            for phi in (0.0, 0.3):
                spec = ResampleSpec(L=lnum, M=m, phi=phi, kernel=KERNELS[name])
                r = int(np.ceil(96 / spec.xi))
                n_up = int(np.floor(r * spec.xi))
                full = build_polyphase(spec, n_up, r)
                for block_n in (32, n_up):
                    c = (n_up - block_n) // 2
                    lo, hi = support_columns(spec, c, block_n, r)
                    window = build_polyphase(spec, block_n, hi - lo,
                                             row0=c, col0=lo)
                    assert np.array_equal(window, full[c:c + block_n, lo:hi])
                    rows = full[c:c + block_n]
                    assert not rows[:, :lo].any() and not rows[:, hi:].any()

    def test_windowed_upscale_matches_crop(self):
        # H_w X[lo:hi, lo:hi] H_w^T equals the crop of H X H^T up to
        # summation order: relative error <= 1e-13 (observed ~3e-16)
        rng = np.random.default_rng(3)
        for name in KERNELS:
            spec = ResampleSpec(L=8, M=5, phi=0.3, kernel=KERNELS[name])
            r = 40
            n_up = int(np.floor(r * spec.xi))
            x = rng.standard_normal((r, r))
            h = build_polyphase(spec, n_up, r)
            c, block_n = 20, 24
            lo, hi = support_columns(spec, c, block_n, r)
            hw = build_polyphase(spec, block_n, hi - lo, row0=c, col0=lo)
            want = (h @ x @ h.T)[c:c + block_n, c:c + block_n]
            got = hw @ x[lo:hi, lo:hi] @ hw.T
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_band_matches_dense_evaluation(self, name):
        # (out_rows, in_rows, row0, col0): the whole matrix down to the last
        # allowed row ceil((col0 + in_rows) xi) - 1; a window whose row
        # bands cross both col0 and col0 + in_rows; a window ending at the
        # last allowed row; a single input column
        for lnum, m in ((2, 1), (3, 2), (5, 3), (4, 1), (7, 4)):
            for phi in (0.0, 0.3, 0.75):
                spec = ResampleSpec(L=lnum, M=m, phi=phi, kernel=KERNELS[name])
                xi = spec.xi
                last = int(np.ceil(12 * xi))
                windows = ((int(np.ceil(24 * xi)), 24, 0, 0),
                           (int(8 * xi), 6, int(3 * xi), 5),
                           (9, 5, last - 9, 7),
                           (int(np.ceil(5 * xi)) - int(2 * xi), 1,
                            int(2 * xi), 4))
                for window in windows:
                    got = build_polyphase(spec, *window)
                    want = dense_polyphase(spec, *window)
                    assert got.tobytes() == want.tobytes(), \
                        f"{lnum}/{m} phi={phi} window={window}"

    def test_too_many_output_rows(self):
        with pytest.raises(InputError, match="output rows exceed"):
            build_polyphase(ResampleSpec(L=2, M=1), 20, 8)


class TestKernelAutocorr:
    def test_linear_xi2_hand_oracle(self):
        # samples of the tent on the half-integer grid: {0.5, 1, 0.5};
        # r[0] = .25+1+.25 = 1.5, r[1] = .5*.5 + .5*.5 ... = 0.25
        r = kernel_autocorr(ResampleSpec(L=2, M=1))
        assert np.allclose(r, [1.5, 0.25])

    def test_identity_resampler(self):
        r = kernel_autocorr(ResampleSpec(L=1, M=1))
        assert np.allclose(r, [1.0, 0.0])

    def test_lag_zero_dominates(self):
        for name in KERNELS:
            for (lnum, m) in ((2, 1), (3, 2), (4, 3), (8, 5)):
                spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
                r = kernel_autocorr(spec)
                assert r[0] >= np.abs(r).max()

    def test_lag_count_is_kernel_width(self):
        for name in KERNELS:
            spec = ResampleSpec(L=3, M=2, kernel=KERNELS[name])
            assert len(kernel_autocorr(spec)) == KERNELS[name].width


def exact_gram(spec, in_rows):
    """Input-domain Gram matrix H^T H of the polyphase matrix built for the
    full output extent floor(in_rows * xi)."""
    h = build_polyphase(spec, int(np.floor(in_rows * spec.xi)), in_rows)
    return h.T @ h


class TestExactAutocorr:
    def test_matches_brute_force(self):
        for name in ("linear", "b-spline"):
            spec = ResampleSpec(L=3, M=2, kernel=KERNELS[name])
            got = exact_gram(spec, 12)
            assert np.allclose(got, brute_force_gram(spec, 12), atol=1e-12)

    def test_identity_resampler_gram(self):
        spec = ResampleSpec(L=1, M=1)
        assert np.allclose(exact_gram(spec, 6), np.eye(6))

    def test_xi2_interior_diagonal_is_rhh0(self):
        # M=1: the Gram is already Toeplitz; interior diagonal = r_hh[0]
        spec = ResampleSpec(L=2, M=1)
        g = exact_gram(spec, 32)
        assert np.allclose(np.diag(g)[2:-2], 1.5)

    def test_polyphase_averaged_diagonal_is_rhh0(self):
        # M consecutive interior diagonal entries average to r_hh[0]
        for name in ("linear", "catmull-rom", "lanczos3"):
            spec = ResampleSpec(L=3, M=2, kernel=KERNELS[name])
            g = exact_gram(spec, 48)
            r0 = kernel_autocorr(spec)[0]
            d = np.diag(g)
            for j in range(12, 36):
                assert np.mean(d[j:j + spec.M]) == pytest.approx(r0, abs=1e-10)


class TestUpscaleQuantize:
    def test_constant_field_preserved(self):
        for name in ("linear", "catmull-rom", "b-spline"):
            spec = ResampleSpec(L=2, M=1, kernel=KERNELS[name])
            y = upscale(np.full((16, 16), 3.0), spec)
            a = int(2 * KERNELS[name].half_support)
            inner = y[a:-a, a:-a]
            assert np.allclose(inner, 3.0, atol=1e-9)

    def test_bilinear_tent_replica(self):
        x = np.zeros((8, 8))
        x[4, 4] = 1.0
        y = upscale(x, ResampleSpec(L=2, M=1))
        assert y[8, 8] == pytest.approx(1.0)
        assert y[7, 8] == pytest.approx(0.5)
        assert y[8, 7] == pytest.approx(0.5)
        assert y[7, 7] == pytest.approx(0.25)
        assert y[9, 9] == pytest.approx(0.25)

    def test_quantization_noise_variance(self):
        rng = np.random.default_rng(10)
        y = rng.uniform(0, 1000, size=(400, 400))
        err = quantize(y, 1.0) - y
        assert abs(err.var() - 1 / 12) / (1 / 12) < 0.05

    def test_quantize_rejects_results_that_are_not_finite(self):
        # y / delta past the float range, or y already NaN or inf
        y = np.full((4, 4), 1e150)
        assert np.isfinite(quantize(y, 1.0)).all()
        for values, delta in ((y, 1e-300), (np.full(3, np.nan), 1.0),
                              (np.array([0.0, -np.inf]), 1.0)):
            with pytest.raises(InputError, match="not finite"):
                quantize(values, delta)

    def test_quantize_applied_by_spec(self):
        spec = ResampleSpec(L=2, M=1, delta=2.0)
        y = upscale(np.random.default_rng(1).standard_normal((8, 8)) * 10,
                    spec)
        assert np.allclose(y, 2.0 * np.round(y / 2.0))

    def test_output_size(self):
        y = upscale(np.zeros((10, 10)), ResampleSpec(L=3, M=2))
        assert y.shape == (15, 15)


class TestSpectrumOrdering:
    def test_afze_and_kernel_floor_ordering(self):
        # smallest nonzero eigenvalue of D: b-spline < linear < cubic pair
        rho, n = 0.97, 256
        floors = {}
        for name in KERNELS:
            spec = ResampleSpec(L=2, M=1, kernel=KERNELS[name])
            r = n // 2
            h = build_polyphase(spec, n, r)
            d = h @ ar_gram_matrix(rho, r, r) @ h.T
            ev = np.linalg.eigvalsh(d)[::-1]
            zero_frac = (ev < 1e-9 * ev[0]).sum() / n
            assert abs(zero_frac - 0.5) <= 2 / n
            floors[name] = ev[ev > 1e-9 * ev[0]].min()
        assert floors["b-spline"] < floors["linear"]
        assert floors["linear"] < floors["catmull-rom"]
        assert floors["linear"] < floors["lanczos3"]
