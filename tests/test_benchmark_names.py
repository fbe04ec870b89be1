"""The benchmark under ``perfbench/`` calls the library by name and by its
calling convention (``support_lower_edge``'s positional xi,
``law.mean(nodes, weights)``, the ``grid=``/``nu=`` replay of an
``eigen_pdf`` call); every name it lists must still exist in the library,
and its density pass and traced replay must still run clean."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    """A perfbench module loaded from its file, apart from sys.modules."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def perfbench(monkeypatch):
    """(workloads, tracing), loaded with perfbench/ first on sys.path, as
    perfbench/run.py runs them; the ``reference`` module they import
    leaves sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    had = "reference" in sys.modules
    yield load("workloads"), load("tracing")
    if not had:
        sys.modules.pop("reference", None)


def test_traced_names_resolve():
    tracing = load("tracing")
    assert tracing.TRACED
    missing = []
    for name in tracing.TRACED:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"respectra.{module}"),
                                attr, None)):
            missing.append(name)
    assert missing == []


def test_density_pass_runs_clean(perfbench, tmp_path):
    # positional xi to support_lower_edge and eigen_pdf, and the
    # first-moment check's law.mean(nodes, weights)
    workloads, _ = perfbench
    density = workloads.Density(tiny=True)
    res = density.run_pass(density.setup(1, tmp_path),
                           workloads.Run(density.reference))
    assert res.attempted == len(density.PDF_CASES) + len(density.EDGE_CASES)
    assert res.failures == []


def test_traced_replay_matches(perfbench):
    # the tracer replays each eigen_pdf call on its grid and nu
    workloads, tracing = perfbench
    rec = tracing.Recorder()
    patched = tracing.install(rec)
    try:
        law = workloads.spectra.law_genuine(0.97)
        workloads.rmt.eigen_pdf(law, law, 0.5, points=64)
    finally:
        tracing.uninstall(patched)
    assert rec.counters["rmt.eigen_pdf.sweep_s"] > 0
    assert rec.counters["rmt.eigen_pdf.sweep_mismatch"] == 0
