"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Monte Carlo pieces pin their seeds; tolerances are stated inline next to
each assertion.
"""

import numpy as np


from respectra import (ArParams, DetectorConfig, EstimatorConfig,
                       ExperimentSpec, KERNELS, ResampleSpec,
                       afze, build_polyphase, detect, eigen_pdf, estimate,
                       eta_transform, generate_field, genuine_block,
                       law_genuine, law_upscaled, roc_auc,
                       run_figure, run_snr_sweep, spawn_seeds,
                       support_lower_edge, upscaled_block)
from respectra.cli import main

RHO = 0.97
ALL_KERNELS = ("linear", "catmull-rom", "b-spline", "lanczos3")
FACTORS = {"1.5": (3, 2), "2": (2, 1)}


def report(num, name, detail):
    print(f"\n[PASS] criterion {num} ({name}): {detail}")


def mp_density(lam, beta, s2=1.0):
    """Closed-form MP oracle for the continuous part of the N x N law."""
    lo = s2 * (1 - np.sqrt(beta)) ** 2
    hi = s2 * (1 + np.sqrt(beta)) ** 2
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    m = (lam > lo) & (lam < hi)
    out[m] = np.sqrt((hi - lam[m]) * (lam[m] - lo)) / (2 * np.pi * s2 * lam[m])
    return out


def ks_distance(sorted_samples, pdf):
    emp = np.arange(1, len(sorted_samples) + 1) / len(sorted_samples)
    ana = np.interp(sorted_samples, pdf.lambda_grid, pdf.cdf_nonzero())
    return float(np.abs(emp - ana).max())


def nonzero_eigs_kxk(block, k, n):
    ev = np.linalg.eigvalsh(block[:, :k].T @ block[:, :k] / n)
    return ev[ev > 1e-9 * ev.max()]


def test_criterion_01_mp_closed_form_oracle(solver_settings):
    """rho=0, xi=1, sigma^2=1, solver tolerance 1e-9: density matches
    closed-form MP pointwise within 1% of the density max on the interior
    90% of the support; support edges within one grid step."""
    law = law_genuine(0.0)
    details = []
    with solver_settings(tolerance=1e-9):
        for beta in (0.25, 0.5, 1.0):
            pdf = eigen_pdf(law, law, beta)
            lo = (1 - np.sqrt(beta)) ** 2
            hi = (1 + np.sqrt(beta)) ** 2
            span = hi - lo
            inner = (pdf.lambda_grid > lo + 0.05 * span) \
                & (pdf.lambda_grid < hi - 0.05 * span)
            want = mp_density(pdf.lambda_grid[inner], beta)
            err = np.abs(pdf.density[inner] - want).max()
            fmax = mp_density(np.linspace(lo + 1e-9, hi, 4001), beta).max()
            assert err <= 0.01 * fmax, f"beta={beta}: {err} > 1% of {fmax}"
            log_step = np.diff(np.log(pdf.lambda_grid)).max()
            if beta < 1.0:
                edge = support_lower_edge(law, law, beta)
                assert abs(np.log(edge / lo)) <= log_step
            assert abs(np.log(pdf.lambda_plus() / hi)) <= log_step
            details.append(f"beta={beta}: max|err|={err:.2e} (1% cap "
                           f"{0.01 * fmax:.2e})")
    report(1, "MP closed-form oracle", "; ".join(details))


def test_criterion_02_eta_sanity():
    """eta(0) = 1 exactly; eta(1e8) equals the zero-eigenvalue fraction
    within 1e-3 for genuine (beta in {0.5, 1}) and upscaled (beta=1, xi=2)
    laws."""
    gen = law_genuine(RHO)
    assert eta_transform(gen, gen, 0.5, 0.0) == 1.0
    details = []
    for beta in (0.5, 1.0):
        got = eta_transform(gen, gen, beta, 1e8)
        want = afze(beta, 1.0)
        assert abs(got - want) <= 1e-3
        details.append(f"genuine beta={beta}: |{got:.5f}-{want}|")
    ups = law_upscaled(RHO, ResampleSpec(L=2, M=1))
    got = eta_transform(ups, ups, 1.0, 1e8)
    assert abs(got - afze(1.0, 2.0)) <= 1e-3
    details.append(f"upscaled beta=1 xi=2: |{got:.5f}-0.5|")
    report(2, "eta sanity", "; ".join(details))


def test_criterion_03_normalization_and_moment():
    """Over rho in {0.9, 0.97} x beta in {0.25, 0.5, 1} x xi in {1, 1.5, 2}
    x all kernels: zero_mass + integral = 1 within 1e-2 and first moment =
    beta E[D] E[T] within 1%."""
    from respectra import quadrature_nodes
    nodes, weights = quadrature_nodes()
    worst_mass, worst_mom = 0.0, 0.0
    cases = 0
    for rho in (0.9, 0.97):
        laws = [(law_genuine(rho), 1.0)]
        for name in ALL_KERNELS:
            for (lnum, m) in FACTORS.values():
                spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
                laws.append((law_upscaled(rho, spec), spec.xi))
        for law, xi in laws:
            mean = law.mean(nodes, weights)
            for beta in (0.25, 0.5, 1.0):
                pdf = eigen_pdf(law, law, beta, xi=xi)
                mass_err = abs(pdf.total_mass() - 1.0)
                mom_err = abs(pdf.first_moment() / (beta * mean * mean) - 1.0)
                assert mass_err <= 1e-2, f"{law.descriptor} beta={beta}"
                assert mom_err <= 0.01, f"{law.descriptor} beta={beta}"
                worst_mass = max(worst_mass, mass_err)
                worst_mom = max(worst_mom, mom_err)
                cases += 1
    report(3, "normalization + moment",
           f"{cases} cases; worst mass err {worst_mass:.2e}, "
           f"worst moment err {worst_mom:.2e}")


def test_criterion_04_szego_tracking():
    """Sorted nonzero eigenvalues of finite D (N=1024) against the sorted
    closed-form approximation: relative error <= 10% over the middle 80%
    quantiles, except the two combinations (linear at 4/3 and 8/5) where
    the Toeplitz-averaging approximation is known not to follow the
    spectrum's discontinuities; those are held to <= 25%."""
    from respectra import ar_gram_matrix, d_upscaled, kernel_autocorr
    n = 1024
    details = []
    for name in ALL_KERNELS:
        for (lnum, m) in ((4, 3), (8, 5), (2, 1)):
            spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
            xi = spec.xi
            r = int(np.ceil(n / xi))
            h = build_polyphase(spec, n, r)
            d = h @ ar_gram_matrix(RHO, r, r) @ h.T
            lam = np.linalg.eigvalsh(d)[::-1]
            count = int(round(n / xi))
            idx = np.arange(1, count + 1)
            omega = 2 * np.pi * (idx - 1) / (n / xi)
            approx = np.sort(
                d_upscaled(omega, RHO, kernel_autocorr(spec)))[::-1]
            s, e = int(0.10 * count), int(0.90 * count)
            rel = np.abs(lam[s:e] / approx[s:e] - 1.0).max()
            known_mismatch = name == "linear" and (lnum, m) in ((4, 3), (8, 5))
            cap = 0.25 if known_mismatch else 0.10
            assert rel <= cap, f"{name} xi={lnum}/{m}: {rel:.3f} > {cap}"
            details.append(f"{name}@{lnum}/{m}:{rel:.1%}"
                           + ("*" if known_mismatch else ""))
    report(4, "eigenvalue tracking (N=1024)",
           " ".join(details) + "  (*: documented linear-kernel mismatch, "
           "held to 25%)")


def test_criterion_05_monte_carlo_vs_analytic():
    """Pooled empirical CDFs of simulated nonzero eigenvalues at N=1024
    (20 seeds) against the analytic laws: sup distance <= 0.05 for genuine
    (beta in {0.25, 0.5, 1}), <= 0.07 for upscaled (beta = 0.5, both
    factors, all kernels)."""
    n, seeds = 1024, 20
    gen_seeds = spawn_seeds(505, seeds)
    fields = [generate_field(ArParams(rho=RHO, n=n), s) for s in gen_seeds]
    law = law_genuine(RHO)
    details = []
    for beta in (0.25, 0.5, 1.0):
        k = int(beta * n)
        pooled = np.sort(np.concatenate(
            [nonzero_eigs_kxk(x, k, n) for x in fields]))
        pdf = eigen_pdf(law, law, beta)
        ks = ks_distance(pooled, pdf)
        assert ks <= 0.05, f"genuine beta={beta}: KS={ks:.4f}"
        details.append(f"gen b={beta}:{ks:.3f}")
    del fields

    beta = 0.5
    k = int(beta * n)
    up_seeds = spawn_seeds(606, seeds)
    for key, (lnum, m) in FACTORS.items():
        xi = lnum / m
        r = int(np.ceil(n / xi))
        sources = [generate_field(ArParams(rho=RHO, n=r), s)
                   for s in up_seeds]
        for name in ALL_KERNELS:
            spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
            h = build_polyphase(spec, n, r)
            # only the first k columns of h x h^T are read
            pooled = np.sort(np.concatenate(
                [nonzero_eigs_kxk(h @ (x @ h[:k].T), k, n) for x in sources]))
            pdf = eigen_pdf(law_upscaled(RHO, spec), law_upscaled(RHO, spec),
                            beta, xi=xi)
            ks = ks_distance(pooled, pdf)
            assert ks <= 0.07, f"{name} xi={key}: KS={ks:.4f}"
            details.append(f"{name}@{key}:{ks:.3f}")
    report(5, "Monte Carlo vs analytic CDFs", " ".join(details))


def test_criterion_06_rank_afze():
    """Fraction of numerically-zero eigenvalues of the upscaled sample
    autocorrelation equals 1 - beta/xi within 2/K for K in {64, 128},
    xi in {1.5, 2} (all kernels, beta = 1/2)."""
    worst = 0.0
    for k in (64, 128):
        n = 2 * k
        for (lnum, m) in FACTORS.values():
            xi = lnum / m
            r = int(np.ceil(n / xi))
            x = generate_field(ArParams(rho=RHO, n=r), seed=11)
            for name in ALL_KERNELS:
                spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name])
                h = build_polyphase(spec, int(np.floor(r * xi)), r)
                y = (h @ x @ h.T)[:n, :n]
                ev = np.linalg.eigvalsh(y[:, :k].T @ y[:, :k] / n)[::-1]
                rank = int((ev > 1e-9 * ev[0]).sum())
                frac = (n - rank) / n
                want = 1.0 - (k / n) / xi
                err = abs(frac - want)
                assert err <= 2.0 / k, \
                    f"K={k} xi={xi} {name}: {frac} vs {want}"
                worst = max(worst, err * k / 2.0)
    report(6, "rank/AFZE", f"worst error at {worst:.2f} of the 2/K budget")


def test_criterion_07_detector_monte_carlo():
    """200 paired seeds, N=32 blocks with 512-grade correlation memory,
    K=9, delta=1, SNR >= 1e3 (sigma_s2 = 1000): FAR <= 5% on genuine,
    detection >= 90% at xi=2 for every kernel and >= 95% for b-spline;
    AUC(b-spline) >= AUC(catmull-rom) and >= AUC(lanczos3)."""
    trials, sigma_s2, delta = 200, 1000.0, 1.0
    cfg = DetectorConfig(k=9, delta=delta)
    seeds = spawn_seeds(707, trials)
    kappa_gen, flags_gen = [], 0
    for s in seeds:
        res = detect(genuine_block(RHO, sigma_s2, 32, delta, s, field_n=512),
                     cfg)
        kappa_gen.append(res.kappa)
        flags_gen += res.is_upscaled
    far = flags_gen / trials
    assert far <= 0.05, f"FAR {far:.3f}"

    aucs, rates = {}, {}
    for name in ALL_KERNELS:
        spec = ResampleSpec(L=2, M=1, kernel=KERNELS[name], delta=delta)
        kappa_up, hits = [], 0
        for s in seeds:
            res = detect(upscaled_block(RHO, sigma_s2, 32, spec, s,
                                        field_n=512), cfg)
            kappa_up.append(res.kappa)
            hits += res.is_upscaled
        rates[name] = hits / trials
        aucs[name] = roc_auc(kappa_gen, kappa_up).auc
        assert rates[name] >= 0.90, f"{name}: detection {rates[name]:.3f}"
    assert rates["b-spline"] >= 0.95
    assert aucs["b-spline"] >= aucs["catmull-rom"]
    assert aucs["b-spline"] >= aucs["lanczos3"]
    report(7, "detector Monte Carlo",
           f"FAR={far:.3f}; detection " +
           " ".join(f"{k}:{v:.2f}" for k, v in rates.items()) +
           "; AUC " + " ".join(f"{k}:{v:.3f}" for k, v in aucs.items()))


def test_criterion_08_snr_monotonicity():
    """AUC nondecreasing across the 6-point log SNR grid in 5 of 5 adjacent
    pairs (200 realizations, xi=3/2, linear, rho=0.97, N=512, delta=1);
    near-chance at SNR=1, >= 0.95 at SNR >= 1e4."""
    spec = ExperimentSpec(experiment="fig7", params={}, base_seed=808,
                          realizations=200)
    rows = run_snr_sweep(spec)
    aucs = [a for _, a in rows]
    pairs_ok = sum(b >= a for a, b in zip(aucs, aucs[1:]))
    assert pairs_ok == 5, f"only {pairs_ok}/5 nondecreasing"
    assert 0.4 <= aucs[0] <= 0.7, f"SNR=1 AUC {aucs[0]:.3f}"
    assert aucs[4] >= 0.95 and aucs[5] >= 0.95
    report(8, "SNR monotonicity",
           " ".join(f"{s:g}:{a:.3f}" for s, a in rows))


def test_criterion_09_estimator():
    """True factor inside the returned interval in >= 70% of 200 seeds at
    xi in {1.5, 2} for linear and b-spline kernels (K=16, N=64, high SNR);
    the scale-invariance property holds exactly for an exactly
    representable scale factor."""
    trials = 200
    sigma_s2 = 1e8 / 12.0  # SNR 1e8 at delta = 1: full signal rank visible
    details = []
    for name in ("linear", "b-spline"):
        cfg = EstimatorConfig(k=16, delta=1.0, k_w=KERNELS[name].width)
        for key, (lnum, m) in FACTORS.items():
            xi = lnum / m
            spec = ResampleSpec(L=lnum, M=m, kernel=KERNELS[name], delta=1.0)
            hits = 0
            for s in spawn_seeds(909 + lnum, trials):
                z = upscaled_block(RHO, sigma_s2, 64, spec, s, field_n=128)
                lo, hi = estimate(z, cfg).interval
                hits += lo <= xi < hi
            rate = hits / trials
            assert rate >= 0.70, f"{name} xi={key}: {rate:.2f}"
            details.append(f"{name}@{key}:{rate:.2f}")

    spec = ResampleSpec(L=2, M=1, delta=1.0)
    z = upscaled_block(RHO, sigma_s2, 64, spec, seed=42, field_n=128)
    c = 64.0
    r1 = estimate(z, EstimatorConfig(k=16, delta=1.0, k_w=2))
    r2 = estimate(c * z, EstimatorConfig(k=16, delta=c, k_w=2))
    assert r1.p_hat == r2.p_hat and r1.mu == r2.mu
    assert np.array_equal(r1.per_view_p, r2.per_view_p)
    assert r1.interval == r2.interval
    report(9, "estimator", " ".join(details) + "; scale invariance exact")


def test_criterion_10_determinism(tmp_path, capsys):
    """Identical seeds reproduce byte-identical CSV and JSON outputs."""
    p1 = run_figure("fig2", tmp_path / "a", params={"betas": (0.5,)},
                    base_seed=3)
    p2 = run_figure("fig2", tmp_path / "b", params={"betas": (0.5,)},
                    base_seed=3)
    assert p1.name == p2.name and p1.read_bytes() == p2.read_bytes()

    argv = ["detect", "--synthetic", "--n", "32", "--seed", "4"]
    assert main(argv) == 0
    out1 = capsys.readouterr().out
    assert main(argv) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    report(10, "determinism", f"{p1.name} and detect JSON byte-identical")
