"""Span recorder and the wrappers the traced run installs around public
respectra functions.

A wrapper is installed in every respectra module namespace that holds the
original function object, so calls between modules (``bench`` calling
``generate_field``, ``estimate`` calling ``view_eigenvalues``) are traced
the same way as calls made by the benchmark. Spans are kept in memory and
written out once, when the run ends. The untraced run installs nothing.
"""

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# Public functions traced, as "<module>.<function>" of the module that
# defines them. "calls", "busy_s", "self_s" and "failed" come from the spans
# of every traced function; _MEASURE adds counters for some.
TRACED = (
    "rmt.eigen_pdf", "rmt.support_lower_edge", "spectra.law_upscaled",
    "armodel.generate_field", "matcore.gaussian_matrix",
    "matcore.ar_u_matrix", "resample.build_polyphase", "resample.quantize",
    "bench.genuine_block", "bench.upscaled_block", "bench.run_snr_sweep",
    "bench.roc_auc", "bench.run_figure", "detect.view_eigenvalues",
    "detect.detect", "estimate.estimate", "pgm.read_pgm",
)

# Per-layer metrics reported by the traced run, with units. Every name is
# printed on every workload; a layer that a workload bypasses reads 0.
LAYER_METRICS = {}
for _name, _fields in (
        ("rmt.eigen_pdf", "calls busy_s grid_points solver_iters "
                          "iters_per_point clamped_points sweep_s "
                          "calibrate_s failed"),
        ("rmt.support_lower_edge", "calls busy_s failed"),
        ("spectra.law_upscaled", "calls busy_s negative_clamped"),
        ("armodel.generate_field", "calls busy_s self_s"),
        ("matcore.gaussian_matrix", "calls busy_s draws"),
        ("matcore.ar_u_matrix", "calls busy_s"),
        ("resample.build_polyphase", "calls busy_s bytes_computed"),
        ("resample.quantize", "calls busy_s"),
        ("bench.genuine_block", "calls busy_s self_s"),
        ("bench.upscaled_block", "calls busy_s self_s"),
        ("bench.run_snr_sweep", "calls busy_s self_s"),
        ("bench.roc_auc", "calls busy_s"),
        ("detect.view_eigenvalues", "calls views busy_s us_per_view"),
        ("detect.detect", "calls busy_s self_s failed"),
        ("estimate.estimate", "calls busy_s self_s failed"),
        ("pgm.read_pgm", "calls bytes busy_s p2_busy_s")):
    for _field in _fields.split():
        _unit = {"calls": "count", "failed": "count", "grid_points": "count",
                 "solver_iters": "count", "clamped_points": "count",
                 "negative_clamped": "count", "draws": "count",
                 "views": "count", "iters_per_point": "iter/point",
                 "bytes_computed": "B", "bytes": "B",
                 "us_per_view": "us"}.get(_field, "s")
        LAYER_METRICS[f"{_name}.{_field}"] = _unit
LAYER_METRICS.update({
    # accuracy diagnostics of the density workload's output checks
    "rmt.mass_err_max": "ratio", "rmt.moment_err_max": "ratio",
    # flagged fraction on genuine (far) and upscaled (tpr) inputs
    "detect.far": "fraction", "detect.tpr": "fraction",
    # traced pass wall time against the untraced one in the same process
    "trace.passes": "count", "trace.wall_s": "s",
    "trace.top_busy_s": "s", "trace.coverage": "ratio",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
})


class Recorder:
    """In-memory span store for one process.

    A span is [op, id, parent, name, t0, t1, failed]. ``op`` groups the
    spans of one benchmark operation (one tile, one trial, one density).
    ``counters`` holds counts computed at the same boundaries. ``excluded_s``
    is time spent in measurement-only calls that the pass clock must not
    see.
    """

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.excluded_s = 0.0
        self._stack = []
        self._op = 0

    def next_operation(self):
        self._op += 1

    def open(self, name):
        span = [self._op, len(self.spans),
                self._stack[-1][1] if self._stack else -1,
                name, time.perf_counter(), None, False]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span, failed=False):
        span[5] = time.perf_counter()
        span[6] = failed
        self._stack.pop()

    def add(self, name, value):
        self.counters[name] += value

    def summary(self):
        """calls, busy_s, self_s and failed per span name, and the busy time
        of top-level spans."""
        child_s = defaultdict(float)
        for _, _, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out = defaultdict(float)
        top = 0.0
        for _, sid, parent, name, t0, t1, failed in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - child_s[sid]
            out[f"{name}.failed"] += failed
            if parent < 0:
                top += t1 - t0
        return out, top

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "t0", "t1",
                                  "failed"], "spans": self.spans}, fh)


def _measure_pdf(rec, span, original, args, kwargs, pdf):
    rec.add("rmt.eigen_pdf.grid_points", len(pdf.lambda_grid))
    rec.add("rmt.eigen_pdf.solver_iters", pdf.solver_iterations)
    rec.add("rmt.eigen_pdf.clamped_points", pdf.clamped_points)
    # the given-grid call skips grid calibration and reproduces the density
    # bit for bit, so its time is the main sweep's share of busy_s
    law_d, law_t, beta = args[:3]
    config = kwargs.get("config")
    extra = {} if config is None else {"config": config}
    t0 = time.perf_counter()
    again = original(law_d, law_t, beta, pdf.xi, grid=pdf.lambda_grid,
                     nu=pdf.nu, **extra)
    dt = time.perf_counter() - t0
    rec.excluded_s += dt
    rec.add("rmt.eigen_pdf.sweep_s", dt)
    if not np.array_equal(again.density, pdf.density):
        rec.add("rmt.eigen_pdf.sweep_mismatch", 1)


def _measure_read(rec, span, original, args, kwargs, img):
    rec.add("pgm.read_pgm.bytes", os.path.getsize(args[0]))
    with open(args[0], "rb") as fh:
        if fh.read(2) == b"P2":
            rec.add("pgm.read_pgm.p2_busy_s", span[5] - span[4])


_MEASURE = {
    "rmt.eigen_pdf": _measure_pdf,
    "pgm.read_pgm": _measure_read,
    "spectra.law_upscaled": lambda rec, span, f, a, k, law: rec.add(
        "spectra.law_upscaled.negative_clamped", law.negative_clamped),
    "matcore.gaussian_matrix": lambda rec, span, f, a, k, out: rec.add(
        "matcore.gaussian_matrix.draws", out.size),
    "resample.build_polyphase": lambda rec, span, f, a, k, out: rec.add(
        "resample.build_polyphase.bytes_computed", out.nbytes),
    "detect.view_eigenvalues": lambda rec, span, f, a, k, out: rec.add(
        "detect.view_eigenvalues.views", out.shape[0]),
}


def _wrap(rec, name, original):
    measure = _MEASURE.get(name)

    def traced(*args, **kwargs):
        span = rec.open(name)
        try:
            out = original(*args, **kwargs)
        except BaseException:
            rec.close(span, failed=True)
            raise
        rec.close(span)
        if measure is not None:
            measure(rec, span, original, args, kwargs, out)
        return out

    traced.__wrapped__ = original
    traced.__name__ = original.__name__
    return traced


def install(rec):
    """Wrap every TRACED function in each respectra namespace holding it.

    Returns the list of (namespace, attribute, original) to restore.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "respectra"
                                     or n.startswith("respectra."))]
    patched = []
    for name in TRACED:
        mod_name, func = name.split(".")
        original = getattr(sys.modules[f"respectra.{mod_name}"], func)
        wrapper = _wrap(rec, name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, original))
    return patched


def uninstall(patched):
    for mod, attr, original in patched:
        setattr(mod, attr, original)


def layer_metrics(rec, passes, diagnostics):
    """Per-pass values of every LAYER_METRICS name from a traced run.

    ``diagnostics`` supplies the values that come from output checks rather
    than spans (accuracy errors, detection rates, trace overhead).
    """
    spans, _ = rec.summary()
    raw = defaultdict(float, spans)
    raw.update(rec.counters)
    values = {m: float(diagnostics[m] if m in diagnostics
                       else raw[m] / passes) for m in LAYER_METRICS}
    points = raw["rmt.eigen_pdf.grid_points"]
    values["rmt.eigen_pdf.iters_per_point"] = (
        raw["rmt.eigen_pdf.solver_iters"] / points if points else 0.0)
    values["rmt.eigen_pdf.calibrate_s"] = (
        values["rmt.eigen_pdf.busy_s"] - values["rmt.eigen_pdf.sweep_s"])
    views = raw["detect.view_eigenvalues.views"]
    values["detect.view_eigenvalues.us_per_view"] = (
        1e6 * raw["detect.view_eigenvalues.busy_s"] / views if views else 0.0)
    return values
