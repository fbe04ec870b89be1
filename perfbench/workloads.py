"""The three benchmark workloads and the checks on their outputs.

Each workload has a ``setup`` that builds its inputs from the workload seed
and a ``run_pass`` that runs one fixed set of operations on them. A pass
times its phases, keeps the latency of each unit operation, and checks
every output against the budget the library documents after the clock has
stopped. An operation fails when it raises or when its output breaks that
budget; the failure is kept with its label.

All library calls go through module attributes (``rmt.eigen_pdf``), so the
traced run's wrappers see the benchmark's own calls too.
"""

import csv
import hashlib
import importlib
import time
from dataclasses import dataclass, field

import numpy as np

from reference import SpeedMeter

# the package re-exports detect() and estimate() under their module names
bench, detect, estimate, pgm, resample, rmt, spectra = (
    importlib.import_module(f"respectra.{m}") for m in
    ("bench", "detect", "estimate", "pgm", "resample", "rmt", "spectra"))

# Tile analyses run the way ``respectra detect/estimate IMAGE`` runs them:
# standardized block, quantization step rescaled into block units.
DETECT_TILE, DETECT_K = 32, 9
ESTIMATE_TILE, ESTIMATE_K = 64, 16
PGM_OFFSET = 32768          # centres the zero-mean fields in 0..65535


@dataclass
class PassResult:
    """One pass: phase times and unit-operation latencies (wall s), the
    labels of the operations attempted and failed, output diagnostics, a
    digest of every output value, and the machine's speed factor over the
    pass (wall time over ``factor`` is nominal-speed time)."""

    phases: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    digest: object = field(default_factory=hashlib.sha256)
    factor: float = 1.0

    def output(self, *values):
        for value in values:
            self.digest.update(np.asarray(value, dtype=float).tobytes())

    @property
    def seconds(self):
        return sum(self.phases.values())

    def check(self, label, errors):
        self.attempted += 1
        if errors:
            self.failures.append(f"{label}: {'; '.join(errors)}")


class Run:
    """What a pass needs from its run: the tracer (None when untraced) and
    the speed meter, whose samples are taken between operations."""

    def __init__(self, kernel, rec=None):
        self.rec = rec
        self.speed = SpeedMeter(kernel)

    @property
    def excluded_s(self):
        """Time in reference samples and tracer-only calls so far."""
        return self.speed.spent_s + (self.rec.excluded_s if self.rec else 0.0)

    def operation(self):
        self.speed.tick()
        if self.rec is not None:
            self.rec.next_operation()


class _Clock:
    """Wall-time timer that leaves out reference samples and tracer-only
    calls."""

    def __init__(self, run):
        self.run = run

    def __enter__(self):
        self.t0 = time.perf_counter()
        self.x0 = self.run.excluded_s
        return self

    def __exit__(self, *exc):
        self.seconds = (time.perf_counter() - self.t0
                        - (self.run.excluded_s - self.x0))
        return False


def _call(run, fn, *args, **kwargs):
    """Run one operation; returns (output or None, error text or None)."""
    run.operation()
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:          # a raising operation is a failed one
        return None, f"raised {type(exc).__name__}: {exc}"


def seeds(seed, n):
    """n child seeds of the workload seed, as 64-bit integers."""
    return [int(s.generate_state(1, np.uint64)[0])
            for s in np.random.SeedSequence(seed).spawn(n)]


def _law(rho, kernel, lnum, m):
    if kernel is None:
        return spectra.law_genuine(rho), 1.0
    spec = resample.ResampleSpec(L=lnum, M=m,
                                 kernel=resample.get_kernel(kernel))
    return spectra.law_upscaled(rho, spec), spec.xi


def check_pdf(pdf, law, beta):
    """Budgets of eigen_pdf: mass within 1e-2 and first moment within 1 %
    of beta E[D] E[T]. Returns (errors, diagnostics)."""
    errors = []
    nodes, weights = rmt.quadrature_nodes()
    mean = law.mean(nodes, weights)
    mass_err = abs(pdf.total_mass() - 1.0)
    mom_err = abs(pdf.first_moment() / (beta * mean * mean) - 1.0)
    diag = {"rmt.mass_err_max": mass_err, "rmt.moment_err_max": mom_err}
    if not mass_err <= 1e-2:
        errors.append(f"mass error {mass_err:.3g} > 1e-2")
    if not mom_err <= 1e-2:
        errors.append(f"first-moment error {mom_err:.3g} > 1%")
    return errors, diag


def check_detection(res):
    errors = []
    if not np.isfinite(res.kappa):
        errors.append(f"kappa {res.kappa} not finite")
    if res.is_upscaled != (res.kappa < res.threshold):
        errors.append("is_upscaled disagrees with kappa < threshold")
    return errors


def check_estimation(res):
    lo, hi = res.interval
    return [] if 1.0 <= lo < hi else [f"interval [{lo}, {hi}) not 1 <= lo < hi"]


def _merge_max(diag, new):
    for key, value in new.items():
        diag[key] = max(diag.get(key, 0.0), value)


class Density:
    """Asymptotic densities and lower support edges: rmt only.

    The seed does not enter: the inputs are a fixed parameter grid. The
    Marchenko-Pastur law (rho = 0) is not in the set: its lower support
    edge, from ``support_lower_edge`` and ``EigenPdf.lambda_minus()``, is
    the lowest grid point instead of (1 - sqrt(beta))^2 (ROADMAP P0), and
    every operation of a workload must pass its checks.
    """

    unit_op = "one eigen_pdf call (law built inside)"
    reference = "mixed"
    # (rho, kernel or None for genuine, L, M, beta)
    PDF_CASES = ((0.97, None, 1, 1, 0.25), (0.97, None, 1, 1, 0.5),
                 (0.97, None, 1, 1, 1.0), (0.97, "b-spline", 2, 1, 0.5),
                 (0.97, "linear", 3, 2, 0.5), (0.97, "lanczos3", 3, 2, 1.0))
    EDGE_CASES = ((0.95, "linear", 3, 2, 0.125),
                  (0.95, "b-spline", 2, 1, 0.125))

    def __init__(self, tiny=False):
        if tiny:
            self.PDF_CASES = self.PDF_CASES[1::4]
            self.EDGE_CASES = self.EDGE_CASES[1:]

    def setup(self, seed, workdir):
        rmt.quadrature_nodes()
        return None

    def run_pass(self, state, run):
        res = PassResult()
        pdfs, edges = [], []
        with _Clock(run) as pdf_clock:
            for case in self.PDF_CASES:
                rho, kernel, lnum, m, beta = case
                with _Clock(run) as op:
                    law, xi = _law(rho, kernel, lnum, m)
                    pdf, err = _call(run, rmt.eigen_pdf, law, law, beta, xi)
                res.latencies.append(op.seconds)
                pdfs.append((case, law, pdf, err))
        with _Clock(run) as edge_clock:
            for case in self.EDGE_CASES:
                rho, kernel, lnum, m, beta = case
                law, xi = _law(rho, kernel, lnum, m)
                edge, err = _call(run, rmt.support_lower_edge, law, law,
                                  beta, xi)
                edges.append((case, edge, err))
        res.phases["pdf_s"] = pdf_clock.seconds
        res.phases["edge_s"] = edge_clock.seconds

        for case, law, pdf, err in pdfs:
            beta = case[-1]
            errors = [err] if err else []
            if pdf is not None:
                res.output(pdf.lambda_grid, pdf.density, pdf.nu)
                try:
                    more, diag = check_pdf(pdf, law, beta)
                except Exception as exc:   # e.g. the moment of a zero pdf
                    more, diag = [f"check raised {exc!r}"], {}
                errors += more
                _merge_max(res.diagnostics, diag)
            res.check(f"eigen_pdf {_label(case)}", errors)
        for case, edge, err in edges:
            errors = [err] if err else []
            if edge is not None:
                res.output(edge)
                if not (np.isfinite(edge) and edge > 0):
                    errors.append(f"edge {edge} not finite and positive")
            res.check(f"support_lower_edge {_label(case)}", errors)
        return res


def _label(case):
    rho, kernel, lnum, m, beta = case
    law = "genuine" if kernel is None else f"{kernel} {lnum}/{m}"
    return f"{law} rho={rho} beta={beta}"


def write_pgm(path, pixels, ascii_=False):
    """16-bit PGM of an integer field shifted by PGM_OFFSET."""
    values = np.asarray(pixels) + PGM_OFFSET
    if values.min() < 0 or values.max() > 65535:
        raise ValueError(f"field range {values.min()}..{values.max()} does "
                         "not fit 16-bit samples")
    values = values.astype(np.int64)
    h, w = values.shape
    header = f"{'P2' if ascii_ else 'P5'}\n{w} {h}\n65535\n".encode()
    with open(path, "wb") as fh:
        fh.write(header)
        if ascii_:
            fh.write("\n".join(" ".join(map(str, row))
                               for row in values.tolist()).encode() + b"\n")
        else:
            fh.write(values.astype(">u2").tobytes())


class Scan:
    """Forensic scan of PGM files: pgm, detect and estimate only.

    Set-up synthesizes quantized fields (genuine, b-spline 2/1 and linear
    3/2 upscaled) and writes them as 16-bit P5, plus one small genuine P2.
    The timed pass reads every file and analyses every tile.
    """

    unit_op = "one 32x32 detect tile"
    reference = "mixed"
    RHO, SIGMA_S2, DELTA = 0.97, 100.0, 1.0

    def __init__(self, tiny=False):
        self.extent = 128 if tiny else 512
        self.p2_extent = 64 if tiny else 128

    def setup(self, seed, workdir):
        s_gen, s_bsp, s_lin, s_p2 = seeds(seed, 4)
        n = self.extent
        files = []
        for name, s, kernel, lnum, m in (
                ("genuine", s_gen, None, 1, 1),
                ("bspline-2-1", s_bsp, "b-spline", 2, 1),
                ("linear-3-2", s_lin, "linear", 3, 2)):
            if kernel is None:
                z = bench.genuine_block(self.RHO, self.SIGMA_S2, n,
                                        self.DELTA, s, field_n=n)
            else:
                spec = resample.ResampleSpec(
                    L=lnum, M=m, kernel=resample.get_kernel(kernel),
                    delta=self.DELTA)
                z = bench.upscaled_block(self.RHO, self.SIGMA_S2, n, spec, s,
                                         field_n=n)
            path = workdir / f"{name}.pgm"
            write_pgm(path, np.rint(z))
            files.append((path, kernel or "linear", kernel is not None))
        z = bench.genuine_block(self.RHO, self.SIGMA_S2, self.p2_extent,
                                self.DELTA, s_p2, field_n=n)
        path = workdir / "genuine-ascii.pgm"
        write_pgm(path, np.rint(z), ascii_=True)
        files.append((path, "linear", False))
        # warm-up: one read and one detect tile
        img = pgm.read_pgm(files[0][0])
        self._tile(None, img.pixels, 0, 0, DETECT_TILE, detect.detect,
                   detect.DetectorConfig, k=DETECT_K)
        return files

    @staticmethod
    def _tile(rec, pixels, r, c, size, fn, cfg_type, **cfg):
        """Standardize one tile as the CLI does, then analyse it. The
        standardization is the benchmark's own span in the traced run."""
        span = rec.open("perfbench.tile_prep") if rec else None
        raw = pixels[r:r + size, c:c + size].astype(float)
        sd = raw.std()
        if sd:
            block = (raw - raw.mean()) / sd
            config = cfg_type(delta=1.0 / sd, **cfg)
        if span:
            rec.close(span)
        if not sd:
            return None, "constant tile"
        return fn(block, config), None

    def _tiles(self, img, kernel, upscaled, name, run, res, out):
        k_w = resample.get_kernel(kernel).width
        h, w = img.pixels.shape
        for size, kind, fn, cfg_type, cfg in (
                (DETECT_TILE, "detect", detect.detect, detect.DetectorConfig,
                 {"k": DETECT_K}),
                (ESTIMATE_TILE, "estimate", estimate.estimate,
                 estimate.EstimatorConfig, {"k": ESTIMATE_K, "k_w": k_w})):
            for r in range(0, h - size + 1, size):
                for c in range(0, w - size + 1, size):
                    with _Clock(run) as op:
                        got, err = _call(run, self._tile, run.rec, img.pixels,
                                         r, c, size, fn, cfg_type, **cfg)
                    if kind == "detect":
                        res.latencies.append(op.seconds)
                    if got is not None:
                        got, err = got
                    out.append((f"{kind} {name} tile ({r},{c})", kind, err,
                                got, upscaled))

    def run_pass(self, files, run):
        res = PassResult()
        out = []
        with _Clock(run) as clock:
            for path, kernel, upscaled in files:
                img, err = _call(run, pgm.read_pgm, path)
                out.append((f"read_pgm {path.name}", "read", err, None, None))
                if img is not None:
                    self._tiles(img, kernel, upscaled, path.name, run, res,
                                out)
        res.phases["scan_s"] = clock.seconds

        flagged = {False: [], True: []}
        res.diagnostics["tiles"] = 0
        for label, kind, err, got, upscaled in out:
            errors = [err] if err else []
            if got is not None and kind == "detect":
                res.output(got.kappa, got.per_view_lambda)
                errors += check_detection(got)
                flagged[upscaled].append(got.is_upscaled)
            elif got is not None and kind == "estimate":
                res.output(got.interval, got.mu, got.per_view_p)
                errors += check_estimation(got)
            if kind != "read":
                res.diagnostics["tiles"] += 1
            res.check(label, errors)
        res.diagnostics["detect.far"] = float(np.mean(flagged[False]))
        res.diagnostics["detect.tpr"] = float(np.mean(flagged[True]))
        return res


class MonteCarlo:
    """Paired synthetic trials of the criterion-7 kind and one fig7 dataset:
    armodel, matcore, resample and bench synthesis feeding detect.

    One trial is one genuine 32x32 block plus one upscaled block per kernel
    at xi = 2, all from the trial's seed, each detected (K = 9).
    """

    unit_op = "one paired trial (1 genuine + 4 upscaled blocks, detected)"
    reference = "blas"
    RHO, SIGMA_S2, DELTA, BLOCK, FIELD = 0.97, 1000.0, 1.0, 32, 512
    SNR_POINTS = 6               # run_snr_sweep's default SNR grid

    def __init__(self, tiny=False):
        self.trials = 3 if tiny else 20
        self.realizations = 4 if tiny else 40

    def setup(self, seed, workdir):
        *trial_seeds, fig_seed = seeds(seed, self.trials + 1)
        specs = [resample.ResampleSpec(L=2, M=1, kernel=resample.get_kernel(k),
                                       delta=self.DELTA)
                 for k in bench.KERNEL_NAMES]
        cfg = detect.DetectorConfig(k=9, delta=self.DELTA)
        state = {"seeds": trial_seeds, "fig_seed": fig_seed, "specs": specs,
                 "cfg": cfg, "out": workdir}
        self._trial(state, trial_seeds[0])       # warm-up
        return state

    def _trial(self, state, s):
        cfg = state["cfg"]
        blocks = [bench.genuine_block(self.RHO, self.SIGMA_S2, self.BLOCK,
                                      self.DELTA, s, field_n=self.FIELD)]
        blocks += [bench.upscaled_block(self.RHO, self.SIGMA_S2, self.BLOCK,
                                        spec, s, field_n=self.FIELD)
                   for spec in state["specs"]]
        return [detect.detect(b, cfg) for b in blocks]

    def run_pass(self, state, run):
        res = PassResult()
        trials = []
        with _Clock(run) as trial_clock:
            for s in state["seeds"]:
                with _Clock(run) as op:
                    got, err = _call(run, self._trial, state, s)
                res.latencies.append(op.seconds)
                trials.append((s, got, err))
            rocs = []
            kappa = [[r.kappa for r in got] for _, got, _ in trials if got]
            for j, name in enumerate(bench.KERNEL_NAMES, start=1):
                roc, err = _call(run, bench.roc_auc, [k[0] for k in kappa],
                                 [k[j] for k in kappa])
                rocs.append((name, roc, err))
        with _Clock(run) as fig_clock:
            path, fig_err = _call(run, bench.run_figure, "fig7", state["out"],
                                  base_seed=state["fig_seed"],
                                  realizations=self.realizations)
        res.phases["trials_s"] = trial_clock.seconds
        res.phases["fig7_s"] = fig_clock.seconds

        flags_g, flags_u = [], []
        for s, got, err in trials:
            errors = [err] if err else []
            for r in got or ():
                res.output(r.kappa, r.per_view_lambda)
                errors += check_detection(r)
            if got:
                flags_g.append(got[0].is_upscaled)
                flags_u += [r.is_upscaled for r in got[1:]]
            res.check(f"trial seed {s}", errors)
        for name, roc, err in rocs:
            errors = [err] if err else []
            if roc is not None:
                res.output(roc.auc)
            if roc is not None and not 0.0 <= roc.auc <= 1.0:
                errors.append(f"AUC {roc.auc} outside [0, 1]")
            res.check(f"roc_auc {name}", errors)
        errors = [fig_err] if fig_err else []
        if path is not None:
            with open(path, "rb") as fh:
                res.digest.update(fh.read())
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != self.SNR_POINTS:
                errors.append(f"{len(rows)} rows, want {self.SNR_POINTS}")
            if not all(0.0 <= float(r["auc"]) <= 1.0 for r in rows):
                errors.append("an AUC lies outside [0, 1]")
        res.check("fig7 dataset", errors)
        res.diagnostics["detect.far"] = float(np.mean(flags_g))
        res.diagnostics["detect.tpr"] = float(np.mean(flags_u))
        return res


WORKLOADS = {"density": Density, "scan": Scan, "montecarlo": MonteCarlo}
