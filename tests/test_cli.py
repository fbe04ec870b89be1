import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import respectra.armodel
from respectra import (ResampleSpec, eigen_pdf, law_upscaled,
                       upscaled_block)
from respectra.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, *argv):
    """stderr of a command line that argparse rejects with exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    return capsys.readouterr().err


# flags a subcommand took without reading them
REMOVED_FLAGS = (
    ("detect", "--t-mu", "2"), ("detect", "--xi-max", "2"),
    ("pdf", "--sigma-s2", "1"), ("pdf", "--n", "8"), ("pdf", "--delta", "1"),
    ("pdf", "--seed", "1"), ("spectrum", "--sigma-s2", "1"),
    ("spectrum", "--n", "8"), ("spectrum", "--delta", "1"),
    ("spectrum", "--seed", "1"),
    # the library keeps eigen_pdf(nu=); the command line takes its default
    ("pdf", "--nu", "1"),
)


def mp_density(lam, beta, s2=1.0):
    lo = s2 * (1 - np.sqrt(beta)) ** 2
    hi = s2 * (1 + np.sqrt(beta)) ** 2
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    m = (lam > lo) & (lam < hi)
    out[m] = np.sqrt((hi - lam[m]) * (lam[m] - lo)) / (2 * np.pi * s2 * lam[m])
    return out


class TestDetectCommand:
    def test_synthetic_upscaled_golden(self, capsys):
        code, out, _ = run(capsys, "detect", "--synthetic", "--rho", "0.97",
                           "--n", "32", "--k", "9", "--delta", "1",
                           "--xi", "2", "--kernel", "bspline", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["is_upscaled"] is True
        assert set(payload) >= {"kappa", "threshold", "per_view_lambda",
                                "below_set", "lambda0_per_view"}
        assert len(payload["per_view_lambda"]) == 48

    def test_synthetic_genuine(self, capsys):
        code, out, _ = run(capsys, "detect", "--synthetic", "--rho", "0.97",
                           "--n", "64", "--k", "9", "--delta", "1",
                           "--seed", "2")
        assert code == 0
        assert json.loads(out)["is_upscaled"] is False

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "detect", "missing.pgm")
        assert code == 2
        assert "missing.pgm" in err

    def test_image_input(self, capsys, tmp_path):
        # genuine-looking random image should not be flagged
        rng = np.random.default_rng(0)
        z = upscaled_block(0.97, 3000.0, 48,
                           ResampleSpec(L=2, M=1, kernel="b-spline",
                                        delta=1.0), seed=5, field_n=96)
        pix = np.clip(np.round(z - z.min()), 0, 65535).astype(int)
        lines = ["P2", "48 48", str(int(pix.max()))]
        lines += [" ".join(str(v) for v in row) for row in pix]
        path = tmp_path / "up.pgm"
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "detect", str(path), "--k", "9",
                           "--delta", "1", "--block-size", "32")
        assert code == 0
        assert json.loads(out)["is_upscaled"] is True

    def test_header_count_beyond_the_payload_exits_2(self, capsys,
                                                     tmp_path):
        # the declared 10**10 samples ended in a 74.5 GiB allocation error
        path = tmp_path / "huge.pgm"
        path.write_text("P2 100000 100000 255\n0 1 2\n")
        code, out, err = run(capsys, "detect", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ASCII payload holds 3 samples")

    @pytest.mark.parametrize("command,flag,value,message", [
        ("detect", "--kernel", "bogus", "unknown kernel 'bogus'"),
        ("detect", "--phi", "-3", "phase must lie in [0, 1), got -3.0"),
        ("estimate", "--phi", "-3", "phase must lie in [0, 1), got -3.0"),
    ])
    def test_image_model_flags_checked(self, capsys, tmp_path, command, flag,
                                       value, message):
        # an image is never resampled, but its model flags are checked as
        # a synthetic block's are
        pix = np.random.default_rng(0).integers(0, 256, (40, 40))
        path = tmp_path / "noise.pgm"
        path.write_text("P2 40 40 255\n"
                        + "\n".join(" ".join(map(str, row)) for row in pix))
        assert run(capsys, command, str(path))[0] == 0
        code, out, err = run(capsys, command, str(path), flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("command", ["detect", "estimate"])
    def test_constant_image_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "flat.pgm"
        path.write_text("P2 40 40 255\n" + " 7" * 1600 + "\n")
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert "constant" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "detect", "--synthetic", "--n", "32",
                           "--k", "9", "--seed", "3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "view,lambda_k,lambda0,below"
        assert len(lines) - 1 == 2 * (32 - 9 + 1)

    def test_json_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "res.json"
        code, _, _ = run(capsys, "detect", "--synthetic", "--n", "32",
                         "--seed", "3", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert json.loads(json.dumps(payload)) == payload


class TestEstimateCommand:
    def test_synthetic_interval(self, capsys):
        code, out, _ = run(capsys, "estimate", "--synthetic", "--rho", "0.97",
                           "--n", "128", "--block-size", "64", "--k", "16",
                           "--delta", "1", "--xi", "2", "--kernel", "linear",
                           "--sigma-s2", "8.3e6", "--seed", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["xi_lower"] <= 2.0 < payload["xi_upper"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "estimate", "--synthetic", "--n", "64",
                           "--block-size", "32", "--k", "16", "--xi", "2",
                           "--seed", "7", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "view,p_v"
        assert len(lines) - 1 == 2 * (32 - 16 + 1)


class TestPdfCommand:
    def test_mp_csv_matches_oracle(self, capsys, tmp_path):
        out_path = tmp_path / "mp.csv"
        code, _, _ = run(capsys, "pdf", "--rho", "0", "--beta", "1",
                         "--out", str(out_path))
        assert code == 0
        rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
        lam, dens = rows[:, 0], rows[:, 1]
        want = mp_density(lam, 1.0)
        inside = (lam > 0.2) & (lam < 3.8)
        assert np.max(np.abs(dens[inside] - want[inside])) < 0.01 * want.max()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "pdf", "--rho", "0.9", "--beta", "0.5",
                           "--xi", "2", "--kernel", "linear",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["zero_mass"] == pytest.approx(0.75)
        law = law_upscaled(0.9, ResampleSpec(L=2, M=1))
        pdf = eigen_pdf(law, law, 0.5, xi=2.0)
        for key in ("clamped_points", "rescued_points", "solver_iterations"):
            assert type(payload[key]) is int
            assert payload[key] == getattr(pdf, key)
        assert payload["solver_iterations"] > 0

    @pytest.mark.parametrize("flags", [("--beta", "nan"), ("--beta", "inf"),
                                       ("--beta", "0"), ("--points", "0"),
                                       ("--points", "1")])
    def test_degenerate_inputs_exit_2(self, capsys, flags):
        code, out, err = run(capsys, "pdf", "--rho", "0.9", "--beta", "0.5",
                             *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")


class TestSpectrumCommand:
    def test_genuine_values(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--rho", "0.97",
                           "--points", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "omega,value"
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1 / 0.03 ** 2)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--rho", "0.9", "--xi", "3/2",
                           "--points", "8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["omega", "value"]
        assert len(payload["omega"]) == len(payload["value"]) == 8

    @pytest.mark.parametrize("points", ["-3", "0"])
    def test_nonpositive_points_exit_2(self, capsys, points):
        assert "--points" in usage_error(capsys, "spectrum", "--points",
                                         points)

    @pytest.mark.parametrize("xi", ["abc", "1/0", "1e400"])
    def test_malformed_xi_exits_2(self, capsys, xi):
        code, out, err = run(capsys, "spectrum", "--xi", xi)
        assert code == 2
        assert out == ""
        assert err.startswith("error: resampling factor")


class TestGenerateCommand:
    def test_deterministic_output(self, capsys):
        a = run(capsys, "generate", "--n", "16", "--seed", "9")
        b = run(capsys, "generate", "--n", "16", "--seed", "9")
        assert a == b
        assert a[0] == 0

    def test_quantized_values(self, capsys):
        code, out, _ = run(capsys, "generate", "--n", "8", "--delta", "2",
                           "--seed", "1")
        vals = np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)
        assert np.allclose(vals, 2 * np.round(vals / 2))


    def test_json_format_is_one_compact_line(self, capsys):
        code, out, _ = run(capsys, "generate", "--n", "8", "--seed", "1",
                           "--format", "json")
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n")
        payload = json.loads(out)
        assert list(payload) == ["field"]
        assert np.shape(payload["field"]) == (8, 8)

    def test_block_larger_than_field_exits_2(self, capsys):
        code, out, err = run(capsys, "generate", "--n", "8",
                             "--block-size", "16")
        assert code == 2
        assert out == ""
        assert "exceeds field extent" in err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, _, err = run(capsys, "generate", "--n", "8", "--out", str(path))
        assert code == 2
        assert err.startswith("error: cannot write") and str(path) in err

    def test_synthesis_failure_exits_3(self, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        # test_quantized_values may have memoized the same factor
        respectra.armodel._memo_cholesky.cache_clear()
        code, out, err = run(capsys, "generate", "--n", "8", "--seed", "1")
        assert code == 3
        assert out == ""
        assert "numerical failure" in err and "rho=0.97" in err


@pytest.mark.parametrize("command", ["detect --synthetic", "generate"])
def test_zero_block_size_exits_2(capsys, command):
    assert "--block-size" in usage_error(capsys, *command.split(),
                                         "--block-size", "0")


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
def test_removed_flag_exits_2(capsys, command, flag, value):
    assert flag in usage_error(capsys, command, flag, value)


# malformed values that ended in a traceback, a NaN or infinite output, or
# a verdict at K = N, where the detector has no operating range
REJECTED_VALUES = (
    ("detect", "--synthetic", "--delta", "nan"),
    ("generate", "--sigma-s2", "nan", "--n", "8"),
    ("estimate", "--synthetic", "--xi-max", "nan"),
    ("spectrum", "--rho", "1"),
    ("spectrum", "--rho", "nan"),
    ("spectrum", "--xi", "1e20"),
    # not L/M with M <= 64: once read as 1 (a genuine law) and as 65/64
    ("pdf", "--xi", "1001/1000", "--kernel", "b-spline", "--points", "8"),
    ("pdf", "--xi", "101/100", "--points", "8"),
    ("spectrum", "--xi", "1.333"),
    ("detect", "--synthetic", "--n", "32", "--k", "32"),
    ("estimate", "--synthetic", "--n", "32", "--k", "32"),
    ("generate", "--sigma-s2", "inf", "--n", "8"),
    ("generate", "--delta", "inf", "--n", "8"),
    ("detect", "--synthetic", "--delta", "inf"),
    ("estimate", "--synthetic", "--t-mu", "nan"),
    # rejected before the grid is allocated (745 GiB for pdf)
    ("pdf", "--points", "100000000000"),
    ("spectrum", "--points", "100000000000"),
    # rejected before the field's Gram is allocated (7.28 TiB)
    ("generate", "--n", "1000000000000"),
    # --kernel and --phi are checked at xi = 1, where they go unused
    ("pdf", "--kernel", "bogus", "--points", "8"),
    ("pdf", "--phi", "-3", "--points", "8"),
    ("spectrum", "--kernel", "bogus"),
    ("spectrum", "--phi", "1"),
    ("generate", "--n", "8", "--kernel", "bogus"),
    ("generate", "--n", "8", "--phi", "-3"),
    ("detect", "--synthetic", "--kernel", "bogus"),
    ("detect", "--synthetic", "--phi", "-3"),
    ("estimate", "--synthetic", "--phi", "-3"),
    # y / delta overflows: inf printed, or a LinAlgError traceback
    ("generate", "--n", "4", "--sigma-s2", "1e300", "--delta", "1e-300"),
    ("detect", "--synthetic", "--sigma-s2", "1e300", "--delta", "1e-300"),
    # finite values whose Gram products overflow: a LinAlgError traceback
    ("detect", "--synthetic", "--sigma-s2", "1e308"),
    ("estimate", "--synthetic", "--sigma-s2", "1e308"),
)


@pytest.mark.parametrize("argv", REJECTED_VALUES, ids=" ".join)
def test_rejected_value_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_module_entrypoint_exits_2():
    # python -m respectra.cli goes through entrypoint, whose sys.exit
    # carries main's exit code to the process
    src = str(Path(respectra.armodel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run(
        [sys.executable, "-m", "respectra.cli", "generate", "--sigma-s2",
         "inf", "--n", "4"],
        capture_output=True, text=True, timeout=120, env=env)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr.startswith("error:")


class TestExperimentCommand:
    def test_fig1b(self, capsys, tmp_path):
        code, out, _ = run(capsys, "experiment", "fig1b", "--out",
                           str(tmp_path), "--seed", "5")
        assert code == 0
        assert (tmp_path / out.strip().split("/")[-1]).exists()

    def test_unknown_figure_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "experiment", "fig99", "--out",
                           str(tmp_path))
        assert code == 2
        assert "fig99" in err


class TestSeedEnv:
    def test_rmt_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RMT_SEED", "777")
        a = run(capsys, "generate", "--n", "8")
        monkeypatch.setenv("RMT_SEED", "778")
        b = run(capsys, "generate", "--n", "8")
        assert a != b

    @pytest.mark.parametrize("command", ["generate --n 8",
                                         "detect --synthetic",
                                         "experiment fig1b"])
    def test_negative_seed_exits_2(self, capsys, tmp_path, command):
        # numpy's seeding rejected it with a ValueError and exit 1
        out_path = tmp_path / "out"
        code, out, err = run(capsys, *command.split(), "--seed", "-1",
                             "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err == "error: seed must be nonnegative, got -1\n"
        assert not out_path.exists()

    def test_negative_rmt_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("RMT_SEED", "-1")
        code, out, err = run(capsys, "generate", "--n", "8")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be nonnegative, got -1\n"

    def test_malformed_rmt_seed_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("RMT_SEED", "abc")
        code, out, err = run(capsys, "generate", "--n", "8")
        assert code == 2
        assert out == ""
        assert "RMT_SEED" in err
