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

from .bench import (format_csv, genuine_block, parse_factor, run_figure,
                    upscaled_block)
from .detect import DetectorConfig, detect
from .errors import InputError, InvalidSize, NumericalError, ZeroVariance
from .estimate import EstimatorConfig, estimate
from .pgm import central_block, read_pgm
from .resample import ResampleSpec, get_kernel, kernel_autocorr
from .rmt import eigen_pdf
from .spectra import d_genuine, d_upscaled, law_genuine, law_upscaled

DEFAULT_SEED = 12345


def _default_seed():
    env = os.environ.get("RMT_SEED")
    return int(env) if env else DEFAULT_SEED


def _add_common(p):
    p.add_argument("--rho", type=float, default=0.97,
                   help="AR one-step correlation coefficient")
    p.add_argument("--sigma-s2", type=float, default=100.0,
                   help="innovation variance of the synthetic field")
    p.add_argument("--n", type=int, default=512,
                   help="synthetic field extent (correlation memory)")
    p.add_argument("--delta", type=float, default=1.0,
                   help="quantization step")
    p.add_argument("--xi", default="1",
                   help="resampling factor, e.g. 2 or 3/2 (1 = genuine)")
    p.add_argument("--kernel", default="linear",
                   help="interpolation kernel "
                        "(linear, catmull-rom, b-spline, lanczos3)")
    p.add_argument("--phi", type=float, default=0.0,
                   help="resampling phase in [0, 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: RMT_SEED env or 12345)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="output format")


def _analysis_parser(sub, name, default_k, helptext):
    p = sub.add_parser(name, help=helptext)
    p.add_argument("image", nargs="?", default=None,
                   help="PGM image path (P2 or P5)")
    p.add_argument("--synthetic", action="store_true",
                   help="analyze a synthetic quantized AR block")
    p.add_argument("--k", type=int, default=default_k,
                   help="view width K")
    p.add_argument("--block-size", type=int, default=None,
                   help="analyzed central block size (default min(n, 32))")
    p.add_argument("--t-mu", type=float, default=2.0,
                   help="gap statistic threshold")
    p.add_argument("--xi-max", type=float, default=2.0,
                   help="largest considered resampling factor")
    _add_common(p)
    return p


def build_parser():
    ap = argparse.ArgumentParser(
        prog="respectra",
        description="Eigenvalue-spectrum analysis of upscaled images: "
                    "asymptotic densities, resampling detection and "
                    "factor estimation.")
    sub = ap.add_subparsers(dest="command", required=True)

    _analysis_parser(sub, "detect", 9, "run the resampling detector")
    _analysis_parser(sub, "estimate", 16, "estimate the resampling factor")

    p = sub.add_parser("pdf", help="asymptotic eigenvalue density")
    p.add_argument("--beta", type=float, default=1.0, help="aspect ratio K/N")
    p.add_argument("--points", type=int, default=512, help="lambda grid size")
    p.add_argument("--nu", type=float, default=None,
                   help="imaginary offset for the inversion")
    _add_common(p)

    p = sub.add_parser("spectrum", help="limiting Toeplitz spectrum d(omega)")
    p.add_argument("--points", type=int, default=1024, help="omega grid size")
    _add_common(p)

    p = sub.add_parser("generate", help="synthesize a field and print it")
    p.add_argument("--block-size", type=int, default=None,
                   help="crop a centered block of this size")
    _add_common(p)

    p = sub.add_parser("experiment", help="run a benchmark figure dataset")
    p.add_argument("figure",
                   help="figure id: fig1b, fig2, fig3, fig4, fig5 or fig7")
    p.add_argument("--out", default="experiments", help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--full", action="store_true",
                   help="reference-scale realization count (1000)")
    return ap


def _emit(text, out):
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _resample_spec(args, with_delta=True):
    lnum, m = parse_factor(args.xi)
    return ResampleSpec(L=lnum, M=m, phi=args.phi,
                        kernel=get_kernel(args.kernel),
                        delta=args.delta if with_delta else None)


def _analysis_block(args):
    """Block and effective quantization step for detect/estimate."""
    seed = args.seed if args.seed is not None else _default_seed()
    if args.synthetic:
        block_n = args.block_size or min(args.n, 32)
        if block_n > args.n:
            raise InvalidSize(
                f"block size {block_n} exceeds field extent {args.n}")
        lnum, m = parse_factor(args.xi)
        if lnum == m:
            block = genuine_block(args.rho, args.sigma_s2, block_n,
                                  args.delta, seed, field_n=args.n)
        else:
            block = upscaled_block(args.rho, args.sigma_s2, block_n,
                                   _resample_spec(args), seed,
                                   field_n=args.n)
        return block, args.delta
    if args.image is None:
        raise InputError("provide a PGM path or --synthetic")
    try:
        img = read_pgm(args.image)
    except OSError as exc:
        raise InputError(f"cannot read {args.image}: {exc}") from exc
    block_n = args.block_size or 32
    raw = central_block(img, block_n, standardize=False)
    sd = raw.std()
    if sd == 0:
        raise ZeroVariance("central block is constant; cannot standardize")
    block = (raw - raw.mean()) / sd
    # standardization rescales the quantization step into block units
    return block, args.delta / sd


def _cmd_detect(args):
    block, delta = _analysis_block(args)
    result = detect(block, DetectorConfig(k=args.k, delta=delta))
    payload = result.to_dict()
    fmt = args.format or "json"
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        rows = [(v, float(result.per_view_lambda[v]),
                 float(result.lambda0_per_view[v]), int(v in result.below_set))
                for v in range(len(result.per_view_lambda))]
        _emit(format_csv(["view", "lambda_k", "lambda0", "below"], rows),
              args.out)
    return 0


def _cmd_estimate(args):
    block, delta = _analysis_block(args)
    kernel = get_kernel(args.kernel)
    cfg = EstimatorConfig(k=args.k, delta=delta, k_w=kernel.width,
                          xi_max=args.xi_max, t_mu=args.t_mu)
    result = estimate(block, cfg)
    payload = result.to_dict()
    fmt = args.format or "json"
    if fmt == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        rows = [(v, int(result.per_view_p[v])) for v in
                range(len(result.per_view_p))]
        _emit(format_csv(["view", "p_v"], rows), args.out)
    return 0


def _cmd_pdf(args):
    lnum, m = parse_factor(args.xi)
    if lnum == m:
        law = law_genuine(args.rho)
        xi = 1.0
    else:
        law = law_upscaled(args.rho, _resample_spec(args, with_delta=False))
        xi = lnum / m
    pdf = eigen_pdf(law, law, args.beta, xi=xi, nu=args.nu,
                    points=args.points)
    fmt = args.format or "csv"
    if fmt == "csv":
        rows = list(zip(pdf.lambda_grid.tolist(), pdf.density.tolist()))
        _emit(format_csv(["lambda", "density"], rows), args.out)
    else:
        _emit(json.dumps({
            "zero_mass": pdf.zero_mass,
            "lambda": pdf.lambda_grid.tolist(),
            "density": pdf.density.tolist(),
            "beta": pdf.beta, "xi": pdf.xi, "nu": pdf.nu,
            "law": pdf.law, "clamped_points": pdf.clamped_points,
            "rescued_points": pdf.rescued_points,
            "solver_iterations": pdf.solver_iterations,
        }, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_spectrum(args):
    omega = np.linspace(0.0, 2.0 * np.pi, args.points, endpoint=False)
    lnum, m = parse_factor(args.xi)
    if lnum == m:
        values = d_genuine(omega, args.rho)
    else:
        spec = _resample_spec(args, with_delta=False)
        values = d_upscaled(omega, args.rho, kernel_autocorr(spec))
    fmt = args.format or "csv"
    if fmt == "csv":
        _emit(format_csv(["omega", "value"],
                         list(zip(omega.tolist(), values.tolist()))),
              args.out)
    else:
        _emit(json.dumps({"omega": omega.tolist(),
                          "value": values.tolist()}, indent=2), args.out)
    return 0


def _cmd_generate(args):
    seed = args.seed if args.seed is not None else _default_seed()
    lnum, m = parse_factor(args.xi)
    block_n = args.block_size or args.n
    if lnum == m:
        field = genuine_block(args.rho, args.sigma_s2, block_n, args.delta,
                              seed, field_n=args.n)
    else:
        field = upscaled_block(args.rho, args.sigma_s2, block_n,
                               _resample_spec(args), seed, field_n=args.n)
    fmt = args.format or "csv"
    if fmt == "csv":
        _emit(format_csv([f"c{j}" for j in range(field.shape[1])],
                         [tuple(row) for row in field.tolist()]), args.out)
    else:
        _emit(json.dumps({"field": field.tolist()}), args.out)
    return 0


def _cmd_experiment(args):
    seed = args.seed if args.seed is not None else _default_seed()
    path = run_figure(args.figure, args.out, base_seed=seed, full=args.full)
    sys.stdout.write(f"{path}\n")
    return 0


_DISPATCH = {
    "detect": _cmd_detect,
    "estimate": _cmd_estimate,
    "pdf": _cmd_pdf,
    "spectrum": _cmd_spectrum,
    "generate": _cmd_generate,
    "experiment": _cmd_experiment,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
