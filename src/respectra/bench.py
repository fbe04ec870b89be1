"""Monte Carlo experiment harness: synthetic block pipelines, ROC/AUC
aggregation, and CSV datasets mirroring the reference experiments (scree
comparison, analytic densities, finite-size eigenvalue tracking, smallest
nonzero eigenvalue sweeps, detector AUC versus signal-to-noise ratio).

Every experiment is reproducible from its spec: all randomness derives from
one base seed through numpy SeedSequence spawning, and genuine/upscaled
pairs share realization seeds (common random numbers) so AUC comparisons
across conditions are variance reduced. Datasets are written as CSV with a
single documented header row, LF line endings and dot decimal separators,
named ``<figure>_<paramhash>.csv``.
"""

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .armodel import ArParams, generate_field, sample_autocorr, standardize
from .detect import DetectorConfig, detect
from .errors import InputError
from .matcore import ar_gram_matrix, spawn_seeds
from .resample import (ResampleSpec, build_polyphase, get_kernel,
                       kernel_autocorr, quantize, support_columns)
from .rmt import eigen_pdf, support_lower_edge
from .spectra import d_upscaled, law_genuine, law_upscaled

KERNEL_NAMES = ("linear", "catmull-rom", "b-spline", "lanczos3")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: id, parameter grid and seeding."""

    experiment: str
    params: dict = field(default_factory=dict)
    base_seed: int = 20240901
    realizations: int = 200


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep of the detector statistic.

    The positive (upscaled) class is declared when kappa < threshold, so
    both the false alarm rate and the detection rate are nondecreasing
    along the sweep.
    """

    thresholds: np.ndarray
    far: np.ndarray
    detection: np.ndarray
    auc: float


def roc_auc(genuine_stats, upscaled_stats):
    """ROC curve and AUC from detector statistics of both classes."""
    g = np.asarray(genuine_stats, dtype=float)
    u = np.asarray(upscaled_stats, dtype=float)
    if len(g) == 0 or len(u) == 0:
        raise InputError("both statistic lists must be nonempty")
    pool = np.unique(np.concatenate([g, u]))
    thresholds = np.concatenate([[-np.inf], pool, [np.inf]])
    far = np.array([(g < t).mean() for t in thresholds])
    det = np.array([(u < t).mean() for t in thresholds])
    auc = float(np.trapezoid(det, far))
    return RocCurve(thresholds=thresholds, far=far, detection=det, auc=auc)


def _aligned_center_offset(full, want, step):
    off = (full - want) // 2
    return off - (off % step)


def genuine_block(rho, sigma_s2, block_n, delta, seed, field_n=512):
    """Quantized genuine AR block with the correlation memory of a
    field_n-sized field: a block_n x block_n field with q = field_n has the
    law of an interior block of the large field, so only the block is
    drawn."""
    params = ArParams(rho=rho, n=block_n, sigma_s2=sigma_s2, q=field_n)
    x = generate_field(params, seed)
    return quantize(x, delta)


def _upscaled_window(rho, sigma_s2, block_n, spec, seed, field_n):
    """Unquantized phase-aligned central block of the upscaled field.

    The source field is r = ceil(field_n / xi) wide and upscales to
    n_up = floor(r * xi). Only source columns [lo, hi) reach the block's
    output rows, so the source window X_w (drawn with the source's memory
    q = r, the law of the crop of the full source) and the matching rows
    and columns H_w of the polyphase matrix give the block as
    H_w X_w H_w^T, with the law of the crop of H X H^T.
    """
    r = int(np.ceil(field_n / spec.xi))
    n_up = int(np.floor(r * spec.xi))
    if block_n > n_up:
        raise InputError(
            f"block size {block_n} exceeds upscaled extent {n_up}")
    c = _aligned_center_offset(n_up, block_n, spec.L)
    lo, hi = support_columns(spec, c, block_n, r)
    x = generate_field(ArParams(rho=rho, n=hi - lo, sigma_s2=sigma_s2, q=r),
                       seed)
    h = build_polyphase(spec, block_n, hi - lo, row0=c, col0=lo)
    return h @ x @ h.T


def upscaled_block(rho, sigma_s2, block_n, spec, seed, field_n=512):
    """Quantized upscaled AR block: the phase-aligned central block_n x
    block_n crop of a source field of memory ceil(field_n / xi) upscaled to
    about field_n, drawn from only the source window the crop depends on
    and quantized when the spec carries delta."""
    y = _upscaled_window(rho, sigma_s2, block_n, spec, seed, field_n)
    if spec.delta is not None:
        y = quantize(y, spec.delta)
    return y


def run_snr_sweep(spec):
    """Detector AUC as a function of the signal-to-noise ratio
    sigma_s2/sigma_w2, genuine versus xi = 3/2 linear-kernel upscaling.

    Unit-variance blocks (the genuine block and the upscaled central block
    of ``genuine_block``/``upscaled_block``, unquantized) are drawn once per
    realization and rescaled per SNR point before quantization, so the
    whole sweep shares random numbers. Returns a list of (snr, auc) rows.
    """
    p = {"rho": 0.97, "field_n": 512, "block_n": 32, "k": 9, "delta": 1.0,
         "snr_grid": tuple(10.0 ** e for e in range(6)),
         "L": 3, "M": 2, "kernel": "linear"}
    p.update(spec.params)
    delta = p["delta"]
    rspec = ResampleSpec(L=p["L"], M=p["M"], kernel=get_kernel(p["kernel"]))
    cfg = DetectorConfig(k=p["k"], delta=delta)

    seeds = spawn_seeds(spec.base_seed, 2 * spec.realizations)
    blocks = []
    for i in range(spec.realizations):
        gen = generate_field(
            ArParams(rho=p["rho"], n=p["block_n"], q=p["field_n"]), seeds[2 * i])
        ups = _upscaled_window(p["rho"], 1.0, p["block_n"], rspec,
                               seeds[2 * i + 1], p["field_n"])
        blocks.append((gen, ups))

    rows = []
    for snr in p["snr_grid"]:
        scale = np.sqrt(snr * cfg.sigma_w2)
        kap_g, kap_u = [], []
        for gen, ups in blocks:
            kap_g.append(detect(quantize(scale * gen, delta), cfg).kappa)
            kap_u.append(detect(quantize(scale * ups, delta), cfg).kappa)
        rows.append((snr, roc_auc(kap_g, kap_u).auc))
    return rows


def _param_hash(params):
    canon = repr(sorted(params.items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:10]


def format_csv(header, rows):
    """CSV text: one header row, LF line endings, floats with 17
    significant digits (round-trip exact), everything else via str()."""
    def fmt(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(format_csv(header, rows))
    return path


def _fig1b(spec, out_dir):
    p = {"rho": 0.945, "n": 512}
    p.update(spec.params)
    seed_ar, seed_g = spawn_seeds(spec.base_seed, 2)
    ar = generate_field(ArParams(rho=p["rho"], n=p["n"]), seed_ar)
    gauss = generate_field(ArParams(rho=0.0, n=p["n"], q=1), seed_g)
    scree_ar = sample_autocorr(standardize(ar)).eigenvalues()
    scree_g = sample_autocorr(standardize(gauss)).eigenvalues()
    rows = [(i + 1, scree_ar[i], scree_g[i]) for i in range(p["n"])]
    return _write_csv(out_dir / f"fig1b_{_param_hash(p)}.csv",
                      ["rank", "lambda_ar", "lambda_gauss"], rows)


def _fig2(spec, out_dir):
    p = {"rho": 0.97, "betas": (0.25, 0.5, 1.0)}
    p.update(spec.params)
    law = law_genuine(p["rho"])
    rows = []
    for beta in p["betas"]:
        pdf = eigen_pdf(law, law, beta)
        rows.extend((beta, lam, f)
                    for lam, f in zip(pdf.lambda_grid, pdf.density))
    return _write_csv(out_dir / f"fig2_{_param_hash(p)}.csv",
                      ["beta", "lambda", "density"], rows)


def _fig3(spec, out_dir):
    p = {"rho": 0.97, "n": 1024,
         "factors": ((4, 3), (8, 5), (2, 1)), "kernels": KERNEL_NAMES}
    p.update(spec.params)
    rho, n = p["rho"], p["n"]
    rows = []
    for name in p["kernels"]:
        for (lnum, m) in p["factors"]:
            rspec = ResampleSpec(L=lnum, M=m, kernel=get_kernel(name))
            xi = rspec.xi
            r = int(np.ceil(n / xi))
            h = build_polyphase(rspec, n, r)
            d = h @ ar_gram_matrix(rho, r, r) @ h.T
            lam = np.linalg.eigvalsh(d)[::-1]
            count = int(round(n / xi))
            idx = np.arange(1, count + 1)
            omega = 2.0 * np.pi * (idx - 1) / (n / xi)
            approx = np.sort(d_upscaled(omega, rho, kernel_autocorr(rspec)))[::-1]
            rows.extend((name, f"{lnum}/{m}", int(i), lam[i - 1], approx[i - 1])
                        for i in idx)
    return _write_csv(out_dir / f"fig3_{_param_hash(p)}.csv",
                      ["kernel", "xi", "i", "lambda_finite", "dprime_sorted"],
                      rows)


def _fig4(spec, out_dir):
    p = {"rho": 0.97, "betas": (0.25, 0.5, 1.0),
         "factors": ((3, 2), (2, 1)), "kernels": KERNEL_NAMES}
    p.update(spec.params)
    rows = []
    for name in p["kernels"]:
        for (lnum, m) in p["factors"]:
            rspec = ResampleSpec(L=lnum, M=m, kernel=get_kernel(name))
            law = law_upscaled(p["rho"], rspec)
            for beta in p["betas"]:
                pdf = eigen_pdf(law, law, beta, xi=rspec.xi)
                rows.extend((name, f"{lnum}/{m}", beta, lam, f)
                            for lam, f in zip(pdf.lambda_grid, pdf.density))
    return _write_csv(out_dir / f"fig4_{_param_hash(p)}.csv",
                      ["kernel", "xi", "beta", "lambda", "density"], rows)


def _fig5(spec, out_dir):
    p = {"beta": 0.125, "kernels": KERNEL_NAMES,
         "rho_grid": (0.90, 0.92, 0.94, 0.96, 0.98), "xi_fixed": (3, 2),
         "xi_grid": ((6, 5), (7, 5), (8, 5), (9, 5), (2, 1)),
         "rho_fixed": 0.95}
    p.update(spec.params)
    cases = [("vs_rho", rho, p["xi_fixed"]) for rho in p["rho_grid"]] \
        + [("vs_xi", p["rho_fixed"], factor) for factor in p["xi_grid"]]
    rows = []
    for name in p["kernels"]:
        for sweep, rho, (lnum, m) in cases:
            rspec = ResampleSpec(L=lnum, M=m, kernel=get_kernel(name))
            law = law_upscaled(rho, rspec)
            edge = support_lower_edge(law, law, p["beta"], xi=rspec.xi)
            rows.append((sweep, name, rho, rspec.xi, edge))
    return _write_csv(out_dir / f"fig5_{_param_hash(p)}.csv",
                      ["sweep", "kernel", "rho", "xi", "lambda_minus"], rows)


def _fig7(spec, out_dir):
    rows = run_snr_sweep(spec)
    p = dict(spec.params)
    p["realizations"] = spec.realizations
    return _write_csv(out_dir / f"fig7_{_param_hash(p)}.csv",
                      ["snr", "auc"], rows)


_FIGURES = {"fig1b": _fig1b, "fig2": _fig2, "fig3": _fig3, "fig4": _fig4,
            "fig5": _fig5, "fig7": _fig7}


def run_figure(experiment, out_dir, params=None, base_seed=20240901,
               realizations=None, full=False):
    """Produce the CSV dataset for one figure id; returns the written path.

    ``full`` restores the reference-scale realization count (1000) for the
    Monte Carlo figures; the desk default is 200.
    """
    if experiment not in _FIGURES:
        raise InputError(
            f"unknown experiment {experiment!r}; choose from {sorted(_FIGURES)}")
    if realizations is None:
        realizations = 1000 if full else 200
    spec = ExperimentSpec(experiment=experiment, params=params or {},
                          base_seed=base_seed, realizations=realizations)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _FIGURES[experiment](spec, out_dir)


def parse_factor(text):
    """Parse a resampling factor given as 'L/M' or a decimal into (L, M)."""
    frac = Fraction(text) if "/" in str(text) else Fraction(str(text))
    frac = frac.limit_denominator(64)
    if frac < 1:
        raise InputError(f"resampling factor must be >= 1, got {text}")
    return frac.numerator, frac.denominator
