import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import respectra.armodel
from respectra import (KERNELS, ExperimentSpec, InputError, ResampleSpec,
                       ar_gram_matrix, build_polyphase, parse_factor, roc_auc,
                       run_figure, run_snr_sweep, upscaled_block)


def mann_whitney_auc(genuine, upscaled):
    """U-statistic oracle: P(upscaled kappa < genuine kappa) with half
    credit for ties; positives are flagged by small kappa."""
    g = np.asarray(genuine, dtype=float)
    u = np.asarray(upscaled, dtype=float)
    wins = (u[:, None] < g[None, :]).sum()
    ties = (u[:, None] == g[None, :]).sum()
    return (wins + 0.5 * ties) / (len(g) * len(u))


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


class TestParseFactor:
    def test_fraction(self):
        assert parse_factor("3/2") == (3, 2)
        assert parse_factor("2") == (2, 1)
        assert parse_factor("1.5") == (3, 2)

    def test_rejects_downscale(self):
        with pytest.raises(InputError, match="factor must be >= 1"):
            parse_factor("0.5")


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
        # the reproducibility contract across BLAS thread counts: fig1b's
        # 512 x 512 products, Cholesky and eigvalsh are threaded, so its
        # columns may move, by at most 1e-13 of each column's maximum; two
        # interpreters whose environments differ only in the thread counts
        script = ("import sys, respectra\n"
                  "print(respectra.run_figure('fig1b', sys.argv[1]))\n")
        src = str(Path(respectra.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")
        cols = []
        for threads in ("1", "2"):
            run = subprocess.run(
                [sys.executable, "-c", script, str(tmp_path / threads)],
                check=True, capture_output=True, text=True, timeout=300,
                env=dict(env, **dict.fromkeys(pins, threads)))
            cols.append(np.loadtxt(run.stdout.strip(), delimiter=",",
                                   skiprows=1))
        assert cols[0].shape == (512, 3)
        assert np.all(np.abs(cols[0] - cols[1])
                      <= 1e-13 * np.abs(cols[0]).max(axis=0))

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

    def test_deterministic_bytes(self, tmp_path):
        p1 = run_figure("fig7", tmp_path / "a",
                        params={"snr_grid": (1e2, 1e4)}, base_seed=3,
                        realizations=6)
        p2 = run_figure("fig7", tmp_path / "b",
                        params={"snr_grid": (1e2, 1e4)}, base_seed=3,
                        realizations=6)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.name == p2.name
