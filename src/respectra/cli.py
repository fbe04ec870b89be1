"""Command-line front end.

Subcommands: detect, estimate, pdf, spectrum, generate, experiment.
detect/estimate analyze either a PGM image (standardized central block,
quantization step rescaled accordingly) or a synthetic quantized AR block.
Results are emitted as JSON or CSV. Exit codes: 0 success, 2 input error,
3 numerical failure. The RMT_SEED environment variable overrides the
default seed.
"""

import argparse
import json
import os
import sys

import numpy as np

from .armodel import standardize
from .bench import (format_csv, genuine_block, parse_factor, run_figure,
                    upscaled_block)
from .detect import DetectorConfig, detect
from .errors import InputError, NumericalError, check_count
from .estimate import EstimatorConfig, estimate
from .pgm import central_block, read_pgm
from .resample import ResampleSpec, get_kernel
from .rmt import MAX_POINTS, eigen_pdf
from .spectra import law_genuine, law_upscaled

DEFAULT_SEED = 12345


def _default_seed():
    env = os.environ.get("RMT_SEED") or str(DEFAULT_SEED)
    try:
        return int(env)
    except ValueError:
        raise InputError(f"RMT_SEED must be an integer, got {env!r}") from None


def positive_int(text):
    """argparse type of a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _command(sub, name, helptext, run, fmt, synthetic):
    """Subparser taking the model and output flags, plus the synthesis
    flags when the command draws or quantizes a field."""
    p = sub.add_parser(name, help=helptext, allow_abbrev=False)
    p.set_defaults(run=run)
    p.add_argument("--rho", type=float, default=0.97,
                   help="AR one-step correlation coefficient")
    if synthetic:
        p.add_argument("--sigma-s2", type=float, default=100.0,
                       help="innovation variance of the synthetic field")
        p.add_argument("--n", type=int, default=512,
                       help="synthetic field extent (correlation memory)")
        p.add_argument("--delta", type=float, default=1.0,
                       help="quantization step")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: RMT_SEED env or 12345)")
    p.add_argument("--xi", default="1",
                   help="resampling factor, e.g. 2 or 3/2 (1 = genuine)")
    p.add_argument("--kernel", default="linear",
                   help="interpolation kernel "
                        "(linear, catmull-rom, b-spline, lanczos3)")
    p.add_argument("--phi", type=float, default=0.0,
                   help="resampling phase in [0, 1)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=fmt,
                   help=f"output format (default {fmt})")
    return p


def build_parser():
    ap = argparse.ArgumentParser(
        prog="respectra",
        description="Eigenvalue-spectrum analysis of upscaled images: "
                    "asymptotic densities, resampling detection and "
                    "factor estimation.")
    sub = ap.add_subparsers(dest="command", required=True)

    for name, default_k, helptext, run in (
            ("detect", 9, "run the resampling detector", _cmd_detect),
            ("estimate", 16, "estimate the resampling factor", _cmd_estimate)):
        p = _command(sub, name, helptext, run, "json", synthetic=True)
        p.add_argument("image", nargs="?", default=None,
                       help="PGM image path (P2 or P5)")
        p.add_argument("--synthetic", action="store_true",
                       help="analyze a synthetic quantized AR block")
        p.add_argument("--k", type=int, default=default_k,
                       help="view width K")
        p.add_argument("--block-size", type=positive_int, default=None,
                       help="analyzed central block size (default min(n, 32))")
        if name == "estimate":
            p.add_argument("--t-mu", type=float, default=2.0,
                           help="gap statistic threshold")
            p.add_argument("--xi-max", type=float, default=2.0,
                           help="largest considered resampling factor")

    p = _command(sub, "pdf", "asymptotic eigenvalue density", _cmd_pdf,
                 "csv", synthetic=False)
    p.add_argument("--beta", type=float, default=1.0, help="aspect ratio K/N")
    p.add_argument("--points", type=int, default=512, help="lambda grid size")
    p.add_argument("--nu", type=float, default=None,
                   help="imaginary offset for the inversion")

    p = _command(sub, "spectrum", "limiting Toeplitz spectrum d(omega)",
                 _cmd_spectrum, "csv", synthetic=False)
    p.add_argument("--points", type=positive_int, default=1024,
                   help="omega grid size")

    p = _command(sub, "generate", "synthesize a field and print it",
                 _cmd_generate, "csv", synthetic=True)
    p.add_argument("--block-size", type=positive_int, default=None,
                   help="crop a centered block of this size")

    p = sub.add_parser("experiment", help="run a benchmark figure dataset",
                       allow_abbrev=False)
    p.set_defaults(run=_cmd_experiment)
    p.add_argument("figure",
                   help="figure id: fig1b, fig2, fig3, fig4, fig5 or fig7")
    p.add_argument("--out", default="experiments", help="output directory")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: RMT_SEED env or 12345)")
    p.add_argument("--full", action="store_true",
                   help="reference-scale realization count (1000)")
    return ap


def _write(args, payload, header, rows, indent=2):
    """Write the command's result in --format to --out or stdout. payload
    (JSON) and rows (CSV) are callables, so only the printed format is
    built."""
    if args.format == "json":
        text = json.dumps(payload(), indent=indent, sort_keys=True) + "\n"
    else:
        text = format_csv(header, rows())
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc


def _spec(args):
    """ResampleSpec of --xi, --kernel and --phi, quantized by --delta where
    the command has one; None for xi = 1, whose flags are checked all the
    same (a spec accepts L = M)."""
    lnum, m = parse_factor(args.xi)
    spec = ResampleSpec(L=lnum, M=m, phi=args.phi,
                        kernel=get_kernel(args.kernel),
                        delta=getattr(args, "delta", None))
    return None if lnum == m else spec


def _law(args):
    """SpectralLaw of --rho, --xi, --kernel and --phi: genuine for xi = 1,
    else upscaled."""
    spec = _spec(args)
    return (law_genuine(args.rho) if spec is None
            else law_upscaled(args.rho, spec))


def _synthetic_block(args, block_n):
    """Quantized block_n x block_n block of a synthetic field of extent
    --n: genuine for xi = 1, else the upscaled central block."""
    if block_n > args.n:
        raise InputError(f"block size {block_n} exceeds field extent {args.n}")
    spec = _spec(args)
    if spec is None:
        return genuine_block(args.rho, args.sigma_s2, block_n, args.delta,
                             args.seed, field_n=args.n)
    return upscaled_block(args.rho, args.sigma_s2, block_n, spec, args.seed,
                          field_n=args.n)


def _analysis_block(args):
    """Block and effective quantization step for detect/estimate. An
    image's block is never resampled, but its model flags are checked as
    a synthetic block's are."""
    if args.synthetic:
        block_n = args.block_size or min(args.n, 32)
        return _synthetic_block(args, block_n), args.delta
    if args.image is None:
        raise InputError("provide a PGM path or --synthetic")
    _spec(args)
    try:
        img = read_pgm(args.image)
    except OSError as exc:
        raise InputError(f"cannot read {args.image}: {exc}") from exc
    raw = central_block(img, args.block_size or 32)
    # standardization rescales the quantization step into block units
    return standardize(raw), args.delta / raw.std()


def _cmd_detect(args):
    block, delta = _analysis_block(args)
    res = detect(block, DetectorConfig(k=args.k, delta=delta))
    views = enumerate(zip(res.per_view_lambda, res.lambda0_per_view))
    _write(args, res.to_dict, ["view", "lambda_k", "lambda0", "below"],
           lambda: ((v, float(lam), float(lam0), int(v in res.below_set))
                    for v, (lam, lam0) in views))


def _cmd_estimate(args):
    block, delta = _analysis_block(args)
    cfg = EstimatorConfig(k=args.k, delta=delta,
                          k_w=get_kernel(args.kernel).width,
                          xi_max=args.xi_max, t_mu=args.t_mu)
    res = estimate(block, cfg)
    _write(args, res.to_dict, ["view", "p_v"],
           lambda: ((v, int(p)) for v, p in enumerate(res.per_view_p)))


def _cmd_pdf(args):
    law = _law(args)
    pdf = eigen_pdf(law, law, args.beta, nu=args.nu, points=args.points)
    _write(args, lambda: {
        "zero_mass": pdf.zero_mass,
        "lambda": pdf.lambda_grid.tolist(),
        "density": pdf.density.tolist(),
        "beta": pdf.beta, "xi": pdf.xi, "nu": pdf.nu,
        "law": pdf.law, "clamped_points": pdf.clamped_points,
        "rescued_points": pdf.rescued_points,
        "solver_iterations": pdf.solver_iterations,
    }, ["lambda", "density"],
        lambda: zip(pdf.lambda_grid.tolist(), pdf.density.tolist()))


def _cmd_spectrum(args):
    check_count("points", args.points, 1, MAX_POINTS)
    omega = np.linspace(0.0, 2.0 * np.pi, args.points, endpoint=False)
    values = _law(args).transform(omega)
    _write(args, lambda: {"omega": omega.tolist(), "value": values.tolist()},
           ["omega", "value"], lambda: zip(omega.tolist(), values.tolist()))


def _cmd_generate(args):
    field = _synthetic_block(args, args.block_size or args.n)
    # compact: indented, a field would print one number per line
    _write(args, lambda: {"field": field.tolist()},
           [f"c{j}" for j in range(field.shape[1])], field.tolist,
           indent=None)


def _cmd_experiment(args):
    path = run_figure(args.figure, args.out, base_seed=args.seed,
                      realizations=1000 if args.full else 200)
    sys.stdout.write(f"{path}\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if "seed" in args:
            if args.seed is None:
                args.seed = _default_seed()
            check_count("seed", args.seed, 0)
        args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
