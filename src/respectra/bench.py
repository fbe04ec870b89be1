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

import contextlib
import functools
import hashlib
import os
import stat
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .armodel import (_MEMO_SIDE, _MEMO_SIZE, ArParams, ar_gram_cholesky,
                      generate_field, sample_autocorr, standardize)
from .detect import DetectorConfig, block_kappas
from .errors import InputError, check_count
from .matcore import spawn_seeds
from .resample import (ResampleSpec, build_polyphase, get_kernel, quantize,
                       support_columns)
from .rmt import eigen_pdf, support_lower_edge
from .spectra import law_genuine, law_upscaled

KERNEL_NAMES = ("linear", "catmull-rom", "b-spline", "lanczos3")
MAX_REALIZATIONS = 2 ** 13  # most Monte Carlo trials (see ExperimentSpec)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: id, parameter grid and seeding.

    ``realizations``, the Monte Carlo trial count, runs from 1 to
    MAX_REALIZATIONS = 2**13, eight times the reference scale of 1 000.
    The bound keeps a fig7 run near half a minute and under 1 GiB: at the
    default 32 x 32 blocks each realization costs about 3-5 ms and 73 KiB
    (1 000 realizations take 3.2-4.8 s and a 108-116 MiB peak RSS, 4 000
    take 12.6 s and 321 MiB, on a 2-core x86 box). A count outside this
    range raises InputError before anything is drawn.
    """

    experiment: str
    params: dict = field(default_factory=dict)
    base_seed: int = 20240901
    realizations: int = 200

    def __post_init__(self):
        check_count("realizations", self.realizations, 1, MAX_REALIZATIONS)


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
    # the count of stats < t is t's left insertion point in the sorted stats
    far = np.searchsorted(np.sort(g), thresholds) / len(g)
    det = np.searchsorted(np.sort(u), thresholds) / len(u)
    auc = float(np.trapezoid(det, far))
    return RocCurve(thresholds=thresholds, far=far, detection=det, auc=auc)


def genuine_block(rho, sigma_s2, block_n, delta, seed, field_n=512):
    """Quantized genuine AR block with the correlation memory of a
    field_n-sized field: a block_n x block_n field with q = field_n has the
    law of an interior block of the large field, so only the block is
    drawn."""
    params = ArParams(rho=rho, n=block_n, sigma_s2=sigma_s2, q=field_n)
    x = generate_field(params, seed)
    return quantize(x, delta)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _window_plan(spec, block_n, field_n):
    """(r, c, lo, hi, H_w) of ``upscaled_block``, memoized per argument
    set. H_w is read-only, and None when it has more than _MEMO_SIDE rows
    or columns: the memo keeps only the scalars of large windows."""
    r = int(np.ceil(field_n / spec.xi))
    n_up = int(np.floor(r * spec.xi))
    if block_n > n_up:
        raise InputError(
            f"block size {block_n} exceeds upscaled extent {n_up}")
    # the central offset, moved down to a multiple of L so that the block
    # starts on polyphase component 0
    off = (n_up - block_n) // 2
    c = off - off % spec.L
    lo, hi = support_columns(spec, c, block_n, r)
    h = None
    if max(block_n, hi - lo) <= _MEMO_SIDE:
        h = build_polyphase(spec, block_n, hi - lo, row0=c, col0=lo)
        h.flags.writeable = False
    return r, c, lo, hi, h


def upscaled_block(rho, sigma_s2, block_n, spec, seed, field_n=512):
    """Phase-aligned central block_n x block_n block of an upscaled AR
    field, quantized when the spec carries delta.

    The source field is r = ceil(field_n / xi) wide and upscales to
    n_up = floor(r * xi). Only source columns [lo, hi) reach the block's
    output rows, so the source window X_w (drawn with the source's memory
    q = r, the law of the crop of the full source) and the matching rows
    and columns H_w of the polyphase matrix give the block as
    H_w X_w H_w^T, with the law of the crop of H X H^T. Windows of at most
    64 x 64 entries take H_w from the memo of ``_window_plan``.
    """
    r, c, lo, hi, h = _window_plan(spec, block_n, field_n)
    x = generate_field(ArParams(rho=rho, n=hi - lo, sigma_s2=sigma_s2, q=r),
                       seed)
    if h is None:
        h = build_polyphase(spec, block_n, hi - lo, row0=c, col0=lo)
    y = h @ x @ h.T
    return y if spec.delta is None else quantize(y, spec.delta)


def run_snr_sweep(spec):
    """Detector AUC as a function of the signal-to-noise ratio
    sigma_s2/sigma_w2, genuine versus xi = 3/2 linear-kernel upscaling.

    Unit-variance blocks (the genuine block and the upscaled central block
    of ``genuine_block``/``upscaled_block``, unquantized) are drawn once per
    realization into an (R, 2, N, N) stack and rescaled per SNR point
    before quantization, so the whole sweep shares random numbers. Each
    SNR point quantizes the stack and detects all its blocks with one
    ``block_kappas`` call. ``spec.params`` override fig7's defaults.
    Returns a list of (snr, auc) rows.
    """
    p = _with_defaults("fig7", spec.params)
    delta = p["delta"]
    rspec = ResampleSpec(L=p["L"], M=p["M"], kernel=get_kernel(p["kernel"]))
    cfg = DetectorConfig(k=p["k"], delta=delta)

    seeds = spawn_seeds(spec.base_seed, 2 * spec.realizations)
    blocks = np.empty((spec.realizations, 2, p["block_n"], p["block_n"]))
    for i in range(spec.realizations):
        blocks[i, 0] = generate_field(
            ArParams(rho=p["rho"], n=p["block_n"], q=p["field_n"]), seeds[2 * i])
        blocks[i, 1] = upscaled_block(p["rho"], 1.0, p["block_n"], rspec,
                                      seeds[2 * i + 1], p["field_n"])

    rows = []
    for snr in p["snr_grid"]:
        scale = np.sqrt(snr * cfg.sigma_w2)
        kappa = block_kappas(quantize(scale * blocks, delta), cfg)
        rows.append((snr, roc_auc(kappa[:, 0], kappa[:, 1]).auc))
    return rows


def format_csv(header, rows):
    """CSV text: one header row, LF line endings, floats with 17
    significant digits (round-trip exact), everything else via str()."""
    def fmt(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_text(path, text):
    """Write text to the file at path, replacing its contents, with LF line
    endings.

    An existing regular file with no other hard link is unlinked first
    rather than truncated: ext4 forces the data of a file truncated to zero
    and rewritten out to disk when it is closed (its auto_da_alloc rule),
    and a temporary file renamed over it likewise. On a 2-core ext4 box
    each rewrite of a small CSV blocked 32-57 ms that way from the third
    on, and 0.1-0.3 ms with the unlink. Anything else, a symlink, a device
    such as /dev/stdout or a file with other links, is written through as
    before, and so is a file whose unlink fails (a directory that is not
    writable).
    """
    with contextlib.suppress(OSError):
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and st.st_nlink == 1:
            os.unlink(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _fig1b(spec):
    p = spec.params
    seed_ar, seed_g = spawn_seeds(spec.base_seed, 2)
    ar = generate_field(ArParams(rho=p["rho"], n=p["n"]), seed_ar)
    gauss = generate_field(ArParams(rho=0.0, n=p["n"], q=1), seed_g)
    scree_ar = sample_autocorr(standardize(ar)).eigenvalues()
    scree_g = sample_autocorr(standardize(gauss)).eigenvalues()
    return [(i + 1, scree_ar[i], scree_g[i]) for i in range(p["n"])]


def _fig2(spec):
    law = law_genuine(spec.params["rho"])
    rows = []
    for beta in spec.params["betas"]:
        pdf = eigen_pdf(law, law, beta)
        rows.extend((beta, lam, f)
                    for lam, f in zip(pdf.lambda_grid, pdf.density))
    return rows


def _fig3(spec):
    p = spec.params
    rho, n = p["rho"], p["n"]
    rows = []
    for name in p["kernels"]:
        for (lnum, m) in p["factors"]:
            rspec = ResampleSpec(L=lnum, M=m, kernel=get_kernel(name))
            xi = rspec.xi
            r = int(np.ceil(n / xi))
            # the nonzero eigenvalues of H G H^T = A A^T, A = H chol(G),
            # are those of the r x r Gram A^T A
            a = build_polyphase(rspec, n, r) @ ar_gram_cholesky(rho, r, r)
            lam = np.linalg.eigvalsh(a.T @ a)[::-1]
            count = int(round(n / xi))
            idx = np.arange(1, count + 1)
            omega = 2.0 * np.pi * (idx - 1) / (n / xi)
            approx = np.sort(law_upscaled(rho, rspec).transform(omega))[::-1]
            rows.extend((name, f"{lnum}/{m}", int(i), lam[i - 1], approx[i - 1])
                        for i in idx)
    return rows


def _fig4(spec):
    p = spec.params
    rows = []
    for name in p["kernels"]:
        for (lnum, m) in p["factors"]:
            rspec = ResampleSpec(L=lnum, M=m, kernel=get_kernel(name))
            law = law_upscaled(p["rho"], rspec)
            for beta in p["betas"]:
                pdf = eigen_pdf(law, law, beta)
                rows.extend((name, f"{lnum}/{m}", beta, lam, f)
                            for lam, f in zip(pdf.lambda_grid, pdf.density))
    return rows


def _fig5(spec):
    p = spec.params
    cases = [("vs_rho", rho, p["xi_fixed"]) for rho in p["rho_grid"]] \
        + [("vs_xi", p["rho_fixed"], factor) for factor in p["xi_grid"]]
    rows = []
    for name in p["kernels"]:
        for sweep, rho, (lnum, m) in cases:
            rspec = ResampleSpec(L=lnum, M=m, kernel=get_kernel(name))
            law = law_upscaled(rho, rspec)
            edge = support_lower_edge(law, law, p["beta"])
            rows.append((sweep, name, rho, rspec.xi, edge))
    return rows


# figure id -> (rows function of an ExperimentSpec whose params hold every
# default, default params, CSV header). fig7's entry looks run_snr_sweep up
# when it runs, so a wrapper installed on the module attribute (the
# benchmark's tracer) sees the call.
_FIGURES = {
    "fig1b": (_fig1b, {"rho": 0.945, "n": 512},
              ("rank", "lambda_ar", "lambda_gauss")),
    "fig2": (_fig2, {"rho": 0.97, "betas": (0.25, 0.5, 1.0)},
             ("beta", "lambda", "density")),
    "fig3": (_fig3, {"rho": 0.97, "n": 1024, "kernels": KERNEL_NAMES,
                     "factors": ((4, 3), (8, 5), (2, 1))},
             ("kernel", "xi", "i", "lambda_finite", "dprime_sorted")),
    "fig4": (_fig4, {"rho": 0.97, "betas": (0.25, 0.5, 1.0),
                     "factors": ((3, 2), (2, 1)), "kernels": KERNEL_NAMES},
             ("kernel", "xi", "beta", "lambda", "density")),
    "fig5": (_fig5, {"beta": 0.125, "kernels": KERNEL_NAMES,
                     "rho_grid": (0.90, 0.92, 0.94, 0.96, 0.98),
                     "xi_fixed": (3, 2), "rho_fixed": 0.95,
                     "xi_grid": ((6, 5), (7, 5), (8, 5), (9, 5), (2, 1))},
             ("sweep", "kernel", "rho", "xi", "lambda_minus")),
    "fig7": (lambda spec: run_snr_sweep(spec),
             {"rho": 0.97, "field_n": 512, "block_n": 32, "k": 9,
              "delta": 1.0, "L": 3, "M": 2, "kernel": "linear",
              "snr_grid": tuple(10.0 ** e for e in range(6))},
             ("snr", "auc")),
}


def _with_defaults(experiment, params):
    """The figure's default params, overridden by ``params``."""
    return {**_FIGURES[experiment][1], **params}


def run_figure(experiment, out_dir, params=None, base_seed=20240901,
               realizations=200):
    """Produce the CSV dataset for one figure id; returns the written path.

    This is the one writer of figure datasets. The file is
    ``<id>_<hash>.csv`` in out_dir, the hash taken over the figure's
    default params overridden by ``params`` (for fig7, the Monte Carlo
    figure, with the realization count added), so spelling out a default
    keeps the name and the bytes. ``realizations`` is the Monte Carlo
    figures' trial count: the desk default is 200, the reference scale
    1000.
    """
    if experiment not in _FIGURES:
        raise InputError(
            f"unknown experiment {experiment!r}; choose from {sorted(_FIGURES)}")
    rows, _, header = _FIGURES[experiment]
    spec = ExperimentSpec(experiment=experiment,
                          params=_with_defaults(experiment, params or {}),
                          base_seed=base_seed, realizations=realizations)
    key = (dict(spec.params, realizations=realizations)
           if experiment == "fig7" else spec.params)
    digest = hashlib.sha256(repr(sorted(key.items())).encode()).hexdigest()
    path = Path(out_dir) / f"{experiment}_{digest[:10]}.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    write_text(path, format_csv(header, rows(spec)))
    return path


def parse_factor(text):
    """Parse a resampling factor given as 'L/M' or a decimal into (L, M).

    The factor must equal L/M with M at most 64 exactly, and (L, M) is
    returned in lowest terms; a decimal is accepted when it equals such a
    fraction ("1.5" is 3/2, and "1.25" 5/4). Any other factor, such as
    1001/1000, 101/100 or 1.333, raises InputError naming the nearest
    fraction that qualifies, rather than being analyzed as it (1001/1000
    would read as 1, a genuine law).
    The factor is also at most 64, so L <= 4096. Past that bound nothing
    useful is left to analyze: the 512-wide default field would be
    upscaled from at most 8 source columns, hardly more than the widest
    kernel's 6-tap support. And cost grows with L: ``kernel_autocorr``
    evaluates the kernel on about (2a + k_w) L points per lag (12 L for
    lanczos3), so an unbounded L (``--xi 1e20``) asks numpy for an
    impossible array.
    """
    try:
        exact = Fraction(str(text))
        float(exact)  # OverflowError past the float range, as for 1e400
    except (ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"resampling factor must be a finite number such "
                         f"as 2 or 3/2, got {text}") from None
    if not 1 <= exact <= 64:
        raise InputError(f"resampling factor must be >= 1 and at most 64, "
                         f"got {text}")
    frac = exact.limit_denominator(64)
    if frac != exact:
        raise InputError(f"resampling factor must be exactly L/M with M at "
                         f"most 64, got {text}; the nearest is "
                         f"{frac.numerator}/{frac.denominator}")
    return frac.numerator, frac.denominator
