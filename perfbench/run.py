"""respectra benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload density|scan|montecarlo|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src`` directory, never from an installed copy. BLAS threads are pinned to
1 before numpy loads. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs half the time untraced and half with span wrappers
installed, and reports the per-layer metrics and the tracing overhead.
Human-readable lines come first; the last line of standard output is the
JSON result. ``--workload all`` runs the three workloads one after another,
each in its own process, and prints every end-to-end metric.
"""

import os
import time

T_START = time.perf_counter()
BLAS_PIN = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(BLAS_PIN)

import argparse                                     # noqa: E402
import json                                         # noqa: E402
import platform                                     # noqa: E402
import resource                                     # noqa: E402
import shutil                                       # noqa: E402
import statistics                                   # noqa: E402
import subprocess                                   # noqa: E402
import sys                                          # noqa: E402
import tempfile                                     # noqa: E402
from pathlib import Path                            # noqa: E402

import numpy as np                                  # noqa: E402

from reference import SpeedMeter                    # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("density", "scan", "montecarlo")
SETUP_REPS = 3
IMPORTS = "import numpy, respectra, respectra.cli"

# End-to-end metrics of every workload, as BENCHMARK.json lists them.
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "op_ms_p50": "ms",
             "peak_rss_mib": "MiB"}


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import respectra
    except ImportError as exc:
        sys.exit(f"cannot import respectra from {src}: {exc}")
    if not Path(respectra.__file__).resolve().is_relative_to(src):
        sys.exit(f"respectra resolved outside {src}: {respectra.__file__}")


def run_record(seed):
    """Machine, toolchain, BLAS pin and commit of this run."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_pin": BLAS_PIN, "commit": commit,
            "seed": seed}


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _timed_passes(workload, state, run, seconds, passes):
    """Run passes until ``seconds`` have gone by, at least one. A pass's
    speed factor comes from the reference samples taken from just before
    it to just after it."""
    t0 = time.perf_counter()
    run.speed.tick(force=True)
    while True:
        first = len(run.speed.samples) - 1
        result = workload.run_pass(state, run)
        run.speed.tick(force=True)
        result.factor = run.speed.factor(first)
        passes.append(result)
        if time.perf_counter() - t0 >= seconds:
            return


def _end_to_end(name, setup_s, passes):
    """BENCHMARK.json's end-to-end metrics, and the workload's own named
    metrics as {name: (value, unit, samples)}. Times are nominal-speed
    seconds: wall times over their pass's speed factor (see reference.py).
    """
    lat = [x / p.factor for p in passes for x in p.latencies]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    e2e = {
        "setup_s": setup_s,
        "pass_s": statistics.median(p.seconds / p.factor for p in passes),
        "op_ms_p50": 1e3 * _pct(lat, 50),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n_pass, n_lat = len(passes), len(lat)
    detail = {"setup_s": (setup_s, "s", SETUP_REPS),
              "pass_s": (e2e["pass_s"], "s", n_pass),
              "op_ms_p50": (e2e["op_ms_p50"], "ms", n_lat),
              "op_ms_p90": (1e3 * _pct(lat, 90), "ms", n_lat),
              "peak_rss_mib": (e2e["peak_rss_mib"], "MiB", 1),
              "ops_failed_frac": (failed / attempted, "fraction", attempted),
              "pass_wall_s": (statistics.median(p.seconds for p in passes),
                              "s", n_pass),
              "speed_factor": (statistics.median(p.factor for p in passes),
                               "ratio", n_pass)}

    def phase(key):
        return statistics.median(p.phases[key] / p.factor for p in passes)

    if name == "density":
        detail["pdf_s"] = (phase("pdf_s"), "s", n_pass)
        detail["edge_s"] = (phase("edge_s"), "s", n_pass)
    elif name == "scan":
        tiles = passes[0].diagnostics["tiles"]
        detail["scan_tiles_per_s"] = (tiles / phase("scan_s"), "tiles/s",
                                      n_pass)
        detail["detect_tile_ms_p50"] = (e2e["op_ms_p50"], "ms", n_lat)
        detail["detect_tile_ms_p90"] = detail["op_ms_p90"]
    else:
        trials = len(passes[0].latencies)
        detail["mc_trials_per_s"] = (trials / phase("trials_s"), "trials/s",
                                     n_pass)
        detail["fig7_s"] = (phase("fig7_s"), "s", n_pass)
    return e2e, detail


def _setup(workload, seed, workdir):
    """Set up SETUP_REPS times: a fresh interpreter's import plus this
    process's input generation and warm-up. Returns the state and the
    nominal-speed times."""
    speed = SpeedMeter(workload.reference)
    setups = []
    for rep in range(SETUP_REPS):
        rep_dir = workdir / f"setup{rep}"
        rep_dir.mkdir()
        speed.tick(force=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS], cwd=ROOT,
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       check=True, timeout=120)
        state = workload.setup(seed, rep_dir)
        wall = time.perf_counter() - t0
        speed.tick(force=True)
        setups.append(wall / speed.factor(len(speed.samples) - 2))
    return state, setups


def run_workload(args):
    _import_library()
    from workloads import WORKLOADS, Run
    import tracing

    name = args.workload
    workload = WORKLOADS[name](tiny=args.tiny)
    import_s = time.perf_counter() - T_START
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    try:
        state, setups = _setup(workload, args.seed, workdir)
        untraced, traced = [], []
        rec = tracing.Recorder()
        kernel = workload.reference
        if not args.trace:
            _timed_passes(workload, state, Run(kernel), args.seconds,
                          untraced)
        else:
            _timed_passes(workload, state, Run(kernel), args.seconds / 2,
                          untraced)
            patched = tracing.install(rec)
            try:
                _timed_passes(workload, state, Run(kernel, rec),
                              args.seconds / 2, traced)
            finally:
                tracing.uninstall(patched)
            rec.dump(base / f"spans_{name}_seed{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup_s = statistics.median(setups)

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    record = run_record(args.seed)
    record.update(
        workload=name, seconds=args.seconds, trace=args.trace,
        import_s=import_s, setup_reps_s=setups, unit_op=workload.unit_op,
        ops_attempted=sum(p.attempted for p in passes),
        ops_failed=len(failures),
        pass_wall_s=[p.seconds for p in passes],
        pass_speed_factor=[p.factor for p in passes],
        # one digest when traced and untraced passes gave identical outputs
        output_digests=sorted({p.digest.hexdigest() for p in passes}))
    print("record " + json.dumps(record, sort_keys=True))
    for failure in sorted(set(failures)):
        print(f"FAILED x{failures.count(failure)} {name}: {failure}")

    if args.trace:
        metrics = _layer_metrics(rec, untraced, traced)
        units = tracing.LAYER_METRICS
        for key, value in metrics.items():
            print(f"layer {name} {key} = {value!r} {units[key]}")
    else:
        metrics, detail = _end_to_end(name, setup_s, untraced)
        units = E2E_UNITS
        for key, (value, unit, n) in detail.items():
            print(f"metric {name} {key} = {value!r} {unit} (n={n})")
        print("detail " + json.dumps(
            {k: {"value": v, "unit": u, "n": n}
             for k, (v, u, n) in detail.items()}, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": record["ops_attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}, sort_keys=True))
    return 0


def _layer_metrics(rec, untraced, traced):
    import tracing
    n = len(traced)
    diag = {}
    for key in ("rmt.mass_err_max", "rmt.moment_err_max"):
        values = [p.diagnostics[key] for p in traced if key in p.diagnostics]
        if values:
            diag[key] = max(values)
    for key in ("detect.far", "detect.tpr"):
        values = [p.diagnostics[key] for p in traced if key in p.diagnostics]
        if values:
            diag[key] = statistics.mean(values)
    _, top = rec.summary()
    wall = sum(p.seconds for p in traced) / n
    # overhead compares nominal-speed pass times, so drift does not show
    plain = statistics.median(p.seconds / p.factor for p in untraced)
    traced_median = statistics.median(p.seconds / p.factor for p in traced)
    diag.update({
        "trace.passes": n, "trace.wall_s": wall, "trace.top_busy_s": top / n,
        "trace.coverage": top / n / wall,
        "trace.overhead_s": traced_median - plain,
        "trace.overhead_frac": (traced_median - plain) / plain,
    })
    return tracing.layer_metrics(rec, n, diag)


def run_all(args):
    """Each workload in its own process, one after another."""
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0"] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"workload {name} failed with code {proc.returncode}")
        for line in lines:
            if line.startswith(("record ", "FAILED ")):
                print(line)
        detail = json.loads(next(line[len("detail "):] for line in lines
                                 if line.startswith("detail ")))
        result = json.loads(lines[-1])
        rows.append((name, detail, result))
    print(f"{'workload':<11} {'metric':<19} {'value':>14} {'unit':<9} n")
    attempted = failed = 0
    for name, detail, result in rows:
        attempted += result["attempted"]
        failed += result["failed"]
        for key, m in detail.items():
            print(f"{name:<11} {key:<19} {m['value']:>14.6g} "
                  f"{m['unit']:<9} {m['n']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": {
                          f"{name}.{k}": {"value": m["value"],
                                          "unit": m["unit"]}
                          for name, detail, _ in rows
                          for k, m in detail.items()}}, sort_keys=True))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the benchmark's self-tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
