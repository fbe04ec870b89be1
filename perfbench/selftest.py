"""Self-tests of the benchmark itself (not of respectra).

    python3 -m pytest -q perfbench/selftest.py

The file name keeps it out of the library's own test collection. The tests
run tiny workloads, about half a minute in all.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing                                      # noqa: E402
import workloads                                    # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {"density": {"pdf_s", "edge_s"},
         "scan": {"scan_tiles_per_s", "detect_tile_ms_p50",
                  "detect_tile_ms_p90"},
         "montecarlo": {"mc_trials_per_s", "fig7_s"}}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_lists_what_the_run_reports():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert WORKLOADS == list(workloads.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert layer == tracing.LAYER_METRICS


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_emits_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "0.01",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    key = "end_to_end" if trace == "0" else "per_layer"
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(isinstance(v["value"], float)
               for v in result["metrics"].values())
    if trace == "0":
        named = {line.split()[2] for line in lines
                 if line.startswith(f"metric {name} ")}
        assert NAMED[name] | {"setup_s", "ops_failed_frac",
                              "peak_rss_mib"} <= named
    record = json.loads(next(line[len("record "):] for line in lines
                             if line.startswith("record ")))
    assert record["blas_pin"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["seed"] == 5 and record["nproc"] >= 1
    # traced and untraced passes of one run give identical outputs
    assert len(record["output_digests"]) == 1


def test_doctored_density_is_a_failed_operation(monkeypatch, tmp_path):
    original = workloads.rmt.eigen_pdf

    def doubled(*args, **kwargs):
        pdf = original(*args, **kwargs)
        return dataclasses.replace(pdf, density=2.0 * pdf.density)

    monkeypatch.setattr(workloads.rmt, "eigen_pdf", doubled)
    density = workloads.Density(tiny=True)
    density.EDGE_CASES = ()
    res = density.run_pass(density.setup(1, tmp_path),
                           workloads.Run("mixed"))
    assert res.attempted == 2
    genuine = [f for f in res.failures if f.startswith("eigen_pdf genuine")]
    assert len(genuine) == 1 and "mass error" in genuine[0]


def test_flipped_detection_is_a_failed_operation(monkeypatch, tmp_path):
    original = workloads.detect.detect

    def flipped(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, is_upscaled=not res.is_upscaled)

    mc = workloads.MonteCarlo(tiny=True)
    state = mc.setup(2, tmp_path)
    assert not mc.run_pass(state, workloads.Run(mc.reference)).failures
    monkeypatch.setattr(workloads.detect, "detect", flipped)
    res = mc.run_pass(state, workloads.Run(mc.reference))
    trials = [f for f in res.failures if f.startswith("trial")]
    assert len(trials) == mc.trials
    assert all("is_upscaled disagrees" in f for f in trials)


def test_traced_and_untraced_outputs_identical(tmp_path):
    scan = workloads.Scan(tiny=True)
    files = scan.setup(4, tmp_path)
    plain = scan.run_pass(files, workloads.Run(scan.reference))
    rec = tracing.Recorder()
    patched = tracing.install(rec)
    try:
        traced = scan.run_pass(files, workloads.Run(scan.reference, rec))
    finally:
        tracing.uninstall(patched)
    assert workloads.detect.detect.__name__ == "detect"
    assert not hasattr(workloads.detect.detect, "__wrapped__")
    assert rec.spans and plain.digest.digest() == traced.digest.digest()
    assert plain.attempted == traced.attempted


def test_eigen_pdf_sweep_probe_reproduces_density():
    rec = tracing.Recorder()
    patched = tracing.install(rec)
    try:
        law = workloads.spectra.law_genuine(0.97)
        workloads.rmt.eigen_pdf(law, law, 0.5, points=64)
    finally:
        tracing.uninstall(patched)
    assert rec.counters["rmt.eigen_pdf.sweep_s"] > 0
    assert rec.counters["rmt.eigen_pdf.sweep_mismatch"] == 0


def test_same_seed_same_inputs(tmp_path):
    scan = workloads.Scan(tiny=True)
    runs = {}
    for tag, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / tag).mkdir()
        files = scan.setup(seed, tmp_path / tag)
        runs[tag] = [path.read_bytes() for path, _, _ in files]
    assert runs["a"] == runs["b"]
    assert all(x != y for x, y in zip(runs["a"], runs["c"]))
    assert runs["a"][-1].startswith(b"P2") and runs["a"][0].startswith(b"P5")
    mc = workloads.MonteCarlo(tiny=True)
    assert (mc.setup(7, tmp_path)["seeds"] == mc.setup(7, tmp_path)["seeds"]
            != mc.setup(8, tmp_path)["seeds"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "scan", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
