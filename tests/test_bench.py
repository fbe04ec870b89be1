import contextlib
import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import respectra.armodel
import respectra.bench
from respectra.bench import MAX_REALIZATIONS
from respectra import (KERNELS, ArParams, DetectorConfig, ExperimentSpec,
                       InputError, NumericalError, ResampleSpec,
                       ar_gram_matrix, build_polyphase, detect,
                       gaussian_matrix, generate_field, genuine_block,
                       get_kernel, parse_factor, quantize, roc_auc,
                       run_figure, run_snr_sweep, spawn_seeds,
                       support_columns, upscaled_block)


def mann_whitney_auc(genuine, upscaled):
    """U-statistic oracle: P(upscaled kappa < genuine kappa) with half
    credit for ties; positives are flagged by small kappa."""
    g = np.asarray(genuine, dtype=float)
    u = np.asarray(upscaled, dtype=float)
    wins = (u[:, None] < g[None, :]).sum()
    ties = (u[:, None] == g[None, :]).sum()
    return (wins + 0.5 * ties) / (len(g) * len(u))


def figure_in_subprocess(figure, out_dir, **env):
    """``figure``'s default dataset written by a fresh interpreter whose
    environment is this one's plus ``env``; returns its text columns as
    rows of strings and its numeric columns as a float array."""
    script = ("import sys, respectra\n"
              "print(respectra.run_figure(sys.argv[1], sys.argv[2]))\n")
    src = str(Path(respectra.__file__).resolve().parents[1])
    base = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", script, figure, str(out_dir)],
                         check=True, capture_output=True, text=True,
                         timeout=300, env=dict(base, **env))
    with open(run.stdout.strip(), newline="") as f:
        rows = list(csv.reader(f))[1:]
    numeric = [j for j, v in enumerate(rows[0])
               if re.fullmatch(r"[-+0-9.eE]+|nan|inf", v)]
    text = [[r[j] for j in range(len(r)) if j not in numeric] for r in rows]
    return text, np.array([[float(r[j]) for j in numeric] for r in rows])


def assert_within_1e_13_of_column_max(ref, other):
    # the reproducibility contract across BLAS threads and SIMD paths:
    # text columns equal, each numeric entry within 1e-13 of the largest
    # magnitude in its column
    assert ref[0] == other[0]
    assert ref[1].shape == other[1].shape
    assert np.all(np.abs(ref[1] - other[1])
                  <= 1e-13 * np.abs(ref[1]).max(axis=0))


def simd_extensions():
    """The SIMD extensions numpy found on this machine beyond its build
    baseline, as its runtime report (np.show_runtime) lists them."""
    report = io.StringIO()
    with contextlib.redirect_stdout(report):
        np.show_runtime()
    found = re.search(r"'found': \[([^\]]*)\]", report.getvalue())
    return re.findall(r"'(\w+)'", found[1])


class TestRocAuc:
    def test_perfect_separation(self):
        out = roc_auc([0.3, 0.4], [0.1, 0.2])
        assert out.auc == pytest.approx(1.0)

    def test_identical_distributions(self):
        vals = [0.1, 0.2, 0.3, 0.4]
        assert roc_auc(vals, vals).auc == pytest.approx(0.5)

    def test_rates_monotone(self):
        rng = np.random.default_rng(0)
        out = roc_auc(rng.uniform(0, 1, 50), rng.uniform(0, 0.7, 50))
        assert np.all(np.diff(out.far) >= 0)
        assert np.all(np.diff(out.detection) >= 0)
        assert 0.0 <= out.auc <= 1.0

    def test_matches_mann_whitney(self):
        rng = np.random.default_rng(1)
        g = rng.normal(1.0, 0.3, 80)
        u = rng.normal(0.5, 0.3, 60)
        assert roc_auc(g, u).auc == pytest.approx(mann_whitney_auc(g, u),
                                                  abs=1e-9)

    def test_with_ties_matches_mann_whitney(self):
        g = np.array([0.1, 0.2, 0.2, 0.5])
        u = np.array([0.2, 0.2, 0.05, 0.1])
        assert roc_auc(g, u).auc == pytest.approx(mann_whitney_auc(g, u),
                                                  abs=1e-9)

    def test_rejects_empty(self):
        with pytest.raises(InputError, match="must be nonempty"):
            roc_auc([], [0.1])

    @pytest.mark.parametrize("g,u", [
        ([0.1, 0.2, 0.2, 0.5], [0.2, 0.2, 0.05, 0.1]),   # ties across classes
        ([0.3, 0.3, 0.3], [0.3, 0.3]),                    # one value only
        ([0.0, 1.0, 1.0, 2.0, 2.0, 2.0], [1.0, 2.0, 2.0, 3.0]),
        ([5.0], [-1.0, 7.0, 7.0, 5.0])])
    def test_rates_equal_per_threshold_counts(self, g, u):
        # oracle: the per-threshold mean of stats < t, over the pooled
        # values and both infinite ends
        out = roc_auc(g, u)
        assert out.thresholds[0] == -np.inf and out.thresholds[-1] == np.inf
        far = np.array([(np.array(g) < t).mean() for t in out.thresholds])
        det = np.array([(np.array(u) < t).mean() for t in out.thresholds])
        assert np.array_equal(out.far, far)
        assert np.array_equal(out.detection, det)
        assert out.far[0] == out.detection[0] == 0.0
        assert out.far[-1] == out.detection[-1] == 1.0


class TestParseFactor:
    def test_fraction(self):
        assert parse_factor("3/2") == (3, 2)
        assert parse_factor("2") == (2, 1)
        assert parse_factor("1.5") == (3, 2)
        # the other factors in use, and the bound of 64 itself
        for lnum, m in ((1, 1), (4, 3), (6, 5), (8, 5), (9, 5), (64, 1),
                        (4095, 64)):
            assert parse_factor(f"{lnum}/{m}") == (lnum, m)

    def test_rejects_downscale(self):
        with pytest.raises(InputError, match="factor must be >= 1"):
            parse_factor("0.5")

    @pytest.mark.parametrize("text", ["1e20", "65", "4097/64"])
    def test_rejects_factor_above_64(self, text):
        with pytest.raises(InputError, match="at most 64"):
            parse_factor(text)

    @pytest.mark.parametrize("text", ["abc", "nan", "inf", "1/0", "1e400",
                                      "3/2.5", ""])
    def test_rejects_malformed(self, text):
        with pytest.raises(InputError, match="must be a finite number"):
            parse_factor(text)


class TestUpscaledBlockLaw:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_covariance_factor_matches_full_field(self, name, monkeypatch):
        # With the innovations G replaced by the identity, generate_field
        # returns its Gram matrix and upscaled_block returns the covariance
        # factor H_w Gram_w H_w^T of its law (cov(vec Y) is that factor
        # kron itself). It must equal the central crop of H Gram H^T of the
        # full source field: relative error <= 1e-12 (roundoff only).
        monkeypatch.setattr(respectra.armodel, "gaussian_matrix",
                            lambda rows, cols, sigma, seed:
                            sigma * np.eye(rows, cols))
        rho, field_n = 0.9, 64
        for lnum, m in ((2, 1), (3, 2), (8, 5)):
            for phi in (0.0, 0.3):
                spec = ResampleSpec(L=lnum, M=m, phi=phi, kernel=KERNELS[name])
                r = int(np.ceil(field_n / spec.xi))
                n_up = int(np.floor(r * spec.xi))
                h = build_polyphase(spec, n_up, r)
                full = h @ ar_gram_matrix(rho, r, r) @ h.T
                for block_n in (16, n_up):
                    off = (n_up - block_n) // 2
                    c = off - off % lnum
                    want = full[c:c + block_n, c:c + block_n]
                    got = upscaled_block(rho, 1.0, block_n, spec, seed=0,
                                         field_n=field_n)
                    assert np.abs(got - want).max() <= \
                        1e-12 * np.abs(want).max()


def clear_memos():
    respectra.armodel._memo_cholesky.cache_clear()
    respectra.bench._window_plan.cache_clear()


def drawn_without_memo(rho, sigma_s2, n, q, seed):
    c = np.linalg.cholesky(ar_gram_matrix(rho, q, n))
    return c @ gaussian_matrix(n, n, np.sqrt(sigma_s2), seed) @ c.T


def upscaled_without_memo(rho, sigma_s2, block_n, spec, seed, field_n):
    r = int(np.ceil(field_n / spec.xi))
    n_up = int(np.floor(r * spec.xi))
    off = (n_up - block_n) // 2
    c = off - off % spec.L
    lo, hi = support_columns(spec, c, block_n, r)
    x = drawn_without_memo(rho, sigma_s2, hi - lo, r, seed)
    h = build_polyphase(spec, block_n, hi - lo, row0=c, col0=lo)
    return quantize(h @ x @ h.T, spec.delta)


class TestBlockMemo:
    # each block is drawn twice (memo miss, then hit) at two field sizes
    # that share every other argument: a memo key missing the field size
    # (q of the AR factor, r of the window) returns the other one's factor
    FIELDS = (512, 128)

    @pytest.mark.parametrize("block_n", [32, 64])
    def test_genuine_block_matches_unmemoized_draw(self, block_n):
        clear_memos()
        for field_n in self.FIELDS:
            want = quantize(drawn_without_memo(0.97, 1000.0, block_n,
                                               field_n, 3), 1.0)
            for _ in ("miss", "hit"):
                got = genuine_block(0.97, 1000.0, block_n, 1.0, 3,
                                    field_n=field_n)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("phi", [0.0, 0.3])
    @pytest.mark.parametrize("block_n", [32, 64])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_upscaled_block_matches_unmemoized_draw(self, name, block_n,
                                                     phi):
        clear_memos()
        for lnum, m in ((2, 1), (3, 2)):
            spec = ResampleSpec(L=lnum, M=m, phi=phi, kernel=KERNELS[name],
                                delta=1.0)
            for field_n in self.FIELDS:
                want = upscaled_without_memo(0.97, 1000.0, block_n, spec, 5,
                                             field_n)
                for _ in ("miss", "hit"):
                    got = upscaled_block(0.97, 1000.0, block_n, spec, 5,
                                         field_n=field_n)
                    assert got.tobytes() == want.tobytes()
        info = respectra.bench._window_plan.cache_info()
        assert (info.misses, info.hits) == (4, 4)

    def test_window_memo_keeps_only_small_windows(self):
        spec = ResampleSpec(L=3, M=2, kernel=KERNELS["lanczos3"])
        plan = respectra.bench._window_plan
        small = plan(spec, 64, 512)[-1]
        assert small.shape[0] == 64 and small.shape[1] <= 64
        assert plan(spec, 64, 512)[-1] is small
        with pytest.raises(ValueError, match="read-only"):
            small[0, 0] = 1.0
        assert plan(spec, 96, 512)[-1] is None
        assert plan.cache_info().maxsize == 64
        # the public builder still hands out a fresh, writable matrix
        r, c, lo, hi, _ = plan(spec, 64, 512)
        fresh = build_polyphase(spec, 64, hi - lo, row0=c, col0=lo)
        assert fresh.flags.writeable and fresh.tobytes() == small.tobytes()


class TestSnrSweep:
    def test_auc_grows_with_snr(self):
        spec = ExperimentSpec(experiment="fig7",
                              params={"snr_grid": (1.0, 1e2, 1e4)},
                              base_seed=7, realizations=24)
        rows = run_snr_sweep(spec)
        aucs = [a for _, a in rows]
        assert 0.25 <= aucs[0] <= 0.8   # near chance at SNR 1
        assert aucs[2] >= 0.9           # near perfect at SNR 1e4
        assert aucs[2] >= aucs[0]

    def test_reproducible(self):
        spec = ExperimentSpec(experiment="fig7",
                              params={"snr_grid": (1e3,)},
                              base_seed=11, realizations=8)
        assert run_snr_sweep(spec) == run_snr_sweep(spec)

    def test_rows_equal_per_block_detection(self):
        # oracle: each block drawn, quantized and detected on its own
        spec = ExperimentSpec(experiment="fig7",
                              params={"snr_grid": (0.3, 10.0, 1e4)},
                              base_seed=13, realizations=10)
        cfg = DetectorConfig(k=9, delta=1.0)
        rspec = ResampleSpec(L=3, M=2, kernel=get_kernel("linear"))
        seeds = spawn_seeds(13, 20)
        pairs = [(generate_field(ArParams(rho=0.97, n=32, q=512),
                                 seeds[2 * i]),
                  upscaled_block(0.97, 1.0, 32, rspec, seeds[2 * i + 1]))
                 for i in range(10)]
        rows = []
        for snr in (0.3, 10.0, 1e4):
            scale = np.sqrt(snr * cfg.sigma_w2)
            kap = [[detect(quantize(scale * b, 1.0), cfg).kappa for b in pair]
                   for pair in pairs]
            rows.append((snr, roc_auc([k[0] for k in kap],
                                      [k[1] for k in kap]).auc))
        assert run_snr_sweep(spec) == rows

    def test_one_eigensolve_per_snr_point(self, monkeypatch):
        # every block of an SNR point goes through one stacked eigvalsh; a
        # fallback to per-block calls would make 2 R calls per point
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        spec = ExperimentSpec(experiment="fig7",
                              params={"snr_grid": (1.0, 1e2, 1e4)},
                              base_seed=7, realizations=6)
        run_snr_sweep(spec)
        assert calls == [(6, 2, 24, 2, 9, 9)] * 3


class TestRunFigure:
    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(InputError, match="unknown experiment 'fig99'"):
            run_figure("fig99", tmp_path)

    def test_fig1b_dataset(self, tmp_path):
        path = run_figure("fig1b", tmp_path, params={"n": 96}, base_seed=5)
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,lambda_ar,lambda_gauss"
        assert len(lines) == 97
        first = lines[1].split(",")
        # AR leading eigenvalue dominates the white-noise one
        assert float(first[1]) > float(first[2])

    def test_fig1b_within_1e_13_across_blas_threads(self, tmp_path):
        # fig1b's 512 x 512 products, Cholesky and eigvalsh are threaded,
        # so its columns may move; two interpreters whose environments
        # differ only in the thread counts
        pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")
        runs = [figure_in_subprocess("fig1b", tmp_path / threads,
                                     **dict.fromkeys(pins, threads))
                for threads in ("1", "2")]
        assert runs[0][1].shape == (512, 3)
        assert_within_1e_13_of_column_max(*runs)

    @pytest.mark.parametrize("figure", ["fig2", "fig4"])
    def test_density_figures_within_1e_13_at_baseline_simd(self, tmp_path,
                                                           figure):
        # numpy's SIMD loops sum and divide in other orders than its
        # baseline loops, so eigen_pdf's densities may move; two
        # interpreters, one with every extension numpy found disabled
        found = simd_extensions()
        if not found:
            pytest.skip("numpy runs its baseline SIMD loops already")
        runs = [figure_in_subprocess(figure, tmp_path / name, **env)
                for name, env in (("found", {}), ("baseline", {
                    "NPY_DISABLE_CPU_FEATURES": " ".join(found)}))]
        assert len(runs[0][1]) >= 3 * 512
        assert_within_1e_13_of_column_max(*runs)

    def test_fig2_dataset_normalization(self, tmp_path):
        path = run_figure("fig2", tmp_path,
                          params={"betas": (1.0,), "rho": 0.9}, base_seed=5)
        rows = np.loadtxt(path, delimiter=",", skiprows=1)
        lam, dens = rows[:, 1], rows[:, 2]
        # beta = 1: no zero mass, continuous part integrates to 1
        assert np.trapezoid(dens, lam) == pytest.approx(1.0, abs=1e-2)

    def test_fig3_rank_count(self, tmp_path):
        path = run_figure("fig3", tmp_path,
                          params={"n": 512, "kernels": ("linear",),
                                  "factors": ((2, 1),)}, base_seed=5)
        rows = path.read_text().splitlines()[1:]
        # xi=2 at N=512: exactly 256 tracked nonzero eigenvalues
        assert len(rows) == 256
        lam = np.array([float(r.split(",")[3]) for r in rows])
        dpr = np.array([float(r.split(",")[4]) for r in rows])
        mid = slice(26, 230)
        assert np.max(np.abs(lam[mid] / dpr[mid] - 1)) < 0.10

    def test_fig3_equals_dense_eigenvalues(self, tmp_path):
        # oracle: eigvalsh of the dense n x n H G H^T, top round(n/xi)
        # eigenvalues, within 1e-13 of each curve's largest
        n, rho = 96, 0.97
        path = run_figure("fig3", tmp_path,
                          params={"n": n, "kernels": ("lanczos3", "linear"),
                                  "factors": ((8, 5), (2, 1))})
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        for name in ("lanczos3", "linear"):
            for lnum, m in ((8, 5), (2, 1)):
                spec = ResampleSpec(L=lnum, M=m, kernel=get_kernel(name))
                r = int(np.ceil(n / spec.xi))
                h = build_polyphase(spec, n, r)
                want = np.linalg.eigvalsh(
                    h @ ar_gram_matrix(rho, r, r) @ h.T)[::-1]
                got = [(int(row[2]), float(row[3]))
                       for row in rows if row[:2] == [name, f"{lnum}/{m}"]]
                count = int(round(n / spec.xi))
                assert [i for i, _ in got] == list(range(1, count + 1))
                lam = np.array([v for _, v in got])
                assert np.abs(lam - want[:count]).max() <= 1e-13 * want[0]

    def test_fig3_gram_failure_is_numerical_error(self, tmp_path,
                                                  monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        # n = 64 keeps every factor memoized; clear it to reach the failure
        respectra.armodel._memo_cholesky.cache_clear()
        with pytest.raises(NumericalError, match="rho=0.97"):
            run_figure("fig3", tmp_path, params={"n": 64})

    def test_fig4_dataset(self, tmp_path):
        path = run_figure("fig4", tmp_path,
                          params={"betas": (0.5,), "factors": ((2, 1),),
                                  "kernels": ("linear",)}, base_seed=5)
        lines = path.read_text().splitlines()
        assert lines[0] == "kernel,xi,beta,lambda,density"
        rows = [l.split(",") for l in lines[1:]]
        lam = np.array([float(r[3]) for r in rows])
        dens = np.array([float(r[4]) for r in rows])
        # continuous mass beta/xi = 0.25
        assert np.trapezoid(dens, lam) == pytest.approx(0.25, abs=1e-2)

    def test_fig5_kernel_ordering(self, tmp_path):
        path = run_figure("fig5", tmp_path,
                          params={"rho_grid": (0.95,),
                                  "xi_grid": ((2, 1),)}, base_seed=5)
        rows = [r.split(",") for r in path.read_text().splitlines()[1:]]
        edge = {r[1]: float(r[4]) for r in rows if r[0] == "vs_rho"}
        assert edge["b-spline"] < edge["linear"]
        assert edge["linear"] < edge["catmull-rom"]
        assert edge["linear"] < edge["lanczos3"]

    # small params per figure, and one default spelled out on top of them
    SMALL = {
        "fig1b": ({"n": 16}, {"rho": 0.945}),
        "fig2": ({"betas": (0.5,)}, {"rho": 0.97}),
        "fig3": ({"n": 32, "kernels": ("linear",), "factors": ((2, 1),)},
                 {"rho": 0.97}),
        "fig4": ({"betas": (0.5,), "kernels": ("linear",),
                  "factors": ((2, 1),)}, {"rho": 0.97}),
        "fig5": ({"kernels": ("linear",), "rho_grid": (0.9,),
                  "xi_grid": ((2, 1),)}, {"beta": 0.125}),
        "fig7": ({"snr_grid": (1e2,), "block_n": 16, "field_n": 64},
                 {"k": 9}),
    }

    @pytest.mark.parametrize("figure", sorted(SMALL))
    def test_spelled_out_default_keeps_name_and_bytes(self, tmp_path,
                                                      figure):
        small, default = self.SMALL[figure]
        paths = [run_figure(figure, tmp_path / d, params=params, base_seed=3,
                            realizations=4)
                 for d, params in (("a", small), ("b", {**small, **default}))]
        assert paths[0].name == paths[1].name
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fig7_name_keeps_realization_count(self, tmp_path):
        small = self.SMALL["fig7"][0]
        names = {run_figure("fig7", tmp_path, params=small,
                            realizations=n).name for n in (4, 5)}
        assert len(names) == 2

    def test_fig7_calls_the_module_attribute(self, tmp_path, monkeypatch):
        # the benchmark traces bench.run_snr_sweep by replacing the module
        # attribute; fig7 must reach the replacement
        calls = []
        sweep = respectra.bench.run_snr_sweep
        monkeypatch.setattr(respectra.bench, "run_snr_sweep",
                            lambda spec: calls.append(spec) or sweep(spec))
        run_figure("fig7", tmp_path, params=self.SMALL["fig7"][0],
                   realizations=4)
        assert len(calls) == 1

    @pytest.mark.parametrize("count", [0, -3, 10 ** 12])
    def test_realization_count_out_of_range(self, tmp_path, monkeypatch,
                                            count):
        # unchecked, 0 ends in a numpy reshape ValueError, -3 in an
        # OverflowError from spawn_seeds, and 10**12 would spawn 2 * 10**12
        # seeds for 15 PiB of blocks; the check runs before the sweep starts
        # or the output directory is made
        calls = []
        monkeypatch.setattr(respectra.bench, "run_snr_sweep", calls.append)
        out = tmp_path / "out"
        with pytest.raises(InputError, match="realizations must be at least "
                           f"1 and at most {MAX_REALIZATIONS}, got {count}"):
            run_figure("fig7", out, params={"snr_grid": (1e2,)},
                       realizations=count)
        assert calls == [] and not out.exists()
        spec = ExperimentSpec(experiment="fig7",
                              realizations=MAX_REALIZATIONS)
        assert spec.realizations == 2 ** 13

    def test_deterministic_bytes(self, tmp_path):
        p1 = run_figure("fig7", tmp_path / "a",
                        params={"snr_grid": (1e2, 1e4)}, base_seed=3,
                        realizations=6)
        p2 = run_figure("fig7", tmp_path / "b",
                        params={"snr_grid": (1e2, 1e4)}, base_seed=3,
                        realizations=6)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.name == p2.name
