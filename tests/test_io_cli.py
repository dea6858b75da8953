"""File formats (weight maps, patterns, configs) and the command-line front end."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lissscan import (ScannerConfig, design_unmodulated, export_pattern,
                      import_pattern, initial_params, load_design, load_scanner,
                      load_weight_map, sample_unmodulated, save_design, save_scanner,
                      synthesize_quadrature, MultitoneState)
from lissscan.cli import cli_dispatch
from lissscan.errors import ConfigError, DomainError, WeightMapError

F = Fraction
CFG = ScannerConfig.normalized(1.5)


# ------------------------------------------------------------------ weight maps

def _write_pgm_p2(path, rows, maxval=255):
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    path.write_text(f"P2\n# test map\n{len(rows[0])} {len(rows)}\n{maxval}\n{body}\n")


def test_pgm_p2_orientation(tmp_path):
    # bright top-left pixel -> x = -1, y = +1 -> w[0, size-1]
    rows = [[255, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 51]]
    path = tmp_path / "map.pgm"
    _write_pgm_p2(path, rows)
    wmap = load_weight_map(path)
    assert wmap.size == 4
    assert wmap.w[0, 3] == 1.0
    assert wmap.w[3, 0] == pytest.approx(51 / 255)
    assert np.count_nonzero(wmap.w) == 2


def test_pgm_p5_matches_p2(tmp_path):
    rows = [[10, 20], [30, 40]]
    p2 = tmp_path / "a.pgm"
    _write_pgm_p2(p2, rows, maxval=40)
    p5 = tmp_path / "b.pgm"
    p5.write_bytes(b"P5\n2 2\n40\n" + bytes([10, 20, 30, 40]))
    np.testing.assert_array_equal(load_weight_map(p2).w, load_weight_map(p5).w)


def test_pgm_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_text("P3\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(WeightMapError):
        load_weight_map(path)                       # wrong magic
    path.write_text("P2\n2 2\n70000\n0 0 0 0\n")
    with pytest.raises(WeightMapError):
        load_weight_map(path)                       # not 8-bit
    path.write_text("P2\n2 2\n255\n0 0\n")
    with pytest.raises(WeightMapError):
        load_weight_map(path)                       # short raster
    path.write_text("P2\n3 2\n255\n0 0 0 0 0 0\n")
    with pytest.raises(WeightMapError):
        load_weight_map(path)                       # not square
    path.write_text("P2\n2 2\n100\n0 0 0 200\n")
    with pytest.raises(WeightMapError):
        load_weight_map(path)                       # sample above maxval
    with pytest.raises(WeightMapError):
        load_weight_map(tmp_path / "missing.pgm")


def test_csv_weight_map(tmp_path):
    path = tmp_path / "map.csv"
    np.savetxt(path, np.array([[0.0, 0.5], [1.0, 0.25]]), delimiter=",")
    wmap = load_weight_map(path)
    # bottom-left CSV cell (row 1, col 0) -> x = -1, y = -1 -> w[0, 0]
    assert wmap.w[0, 0] == 1.0
    assert wmap.w[0, 1] == 0.0
    assert wmap.w[1, 1] == 0.5
    np.savetxt(path, np.array([[0.0, 1.0], [2.0, 4.0]]), delimiter=",")
    assert load_weight_map(path).w.max() == 1.0     # renormalized by the peak
    np.savetxt(path, np.array([[0.0, -1.0], [0.0, 0.0]]), delimiter=",")
    with pytest.raises(WeightMapError):
        load_weight_map(path)
    path.write_text("a,b\nc,d\n")
    with pytest.raises(WeightMapError):
        load_weight_map(path)


# -------------------------------------------------------------------- patterns

def test_pattern_csv_round_trip(tmp_path):
    pattern = sample_unmodulated(design_unmodulated(F(3, 2), 7), CFG, 0, 1000)
    path = export_pattern(pattern, tmp_path / "p.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y"
    assert len(lines) == 1001                        # one frame = 1000 samples
    back = import_pattern(path)
    np.testing.assert_allclose(back.x, pattern.x, rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(back.y, pattern.y, rtol=1e-9, atol=1e-11)
    assert back.frame_len == pytest.approx(7.0, rel=1e-9)


def test_pattern_json_round_trip(tmp_path):
    pattern = sample_unmodulated(design_unmodulated(F(3, 2), 7), CFG, 0, 200)
    back = import_pattern(export_pattern(pattern, tmp_path / "p.json"))
    np.testing.assert_array_equal(back.x, pattern.x)   # full precision
    np.testing.assert_array_equal(back.t, pattern.t)
    assert back.frame_len == pattern.frame_len and back.frames == pattern.frames


def test_pattern_format_errors(tmp_path):
    pattern = sample_unmodulated(design_unmodulated(F(3, 2), 7), CFG, 0, 50)
    with pytest.raises(DomainError):
        export_pattern(pattern, tmp_path / "p.xml")
    with pytest.raises(DomainError):
        import_pattern(tmp_path / "nope.csv")
    with pytest.raises(DomainError):
        export_pattern(pattern, "")


def test_scanner_and_design_files_round_trip(tmp_path):
    cfg = ScannerConfig(fx_res=2.2, fy_res=1.0, qx=18.0, qy=22.0)
    assert load_scanner(save_scanner(cfg, tmp_path / "s.json")) == cfg
    design = design_unmodulated(F(13, 10), 7)
    assert load_design(save_design(design, tmp_path / "d.json")) == design
    (tmp_path / "junk.json").write_text("{not json")
    with pytest.raises(ConfigError):
        load_scanner(tmp_path / "junk.json")
    with pytest.raises(DomainError):
        load_design(tmp_path / "junk.json")
    with pytest.raises(ConfigError):
        load_scanner(tmp_path / "absent.json")


# ------------------------------------------------------------------------- CLI

def _scanner_file(tmp_path, r=1.5):
    path = tmp_path / "scanner.json"
    save_scanner(ScannerConfig.normalized(r), path)
    return path


def test_cli_design_stdout(capsys):
    assert cli_dispatch(["design", "--r", "1.5", "--m", "7"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fx"] == "41/28"
    assert payload["case"] == "Case1"
    assert payload["signal_period"] == "28"
    assert payload["coverage_period"] == "14"
    assert cli_dispatch(["design", "--r", "1.5", "--m", "7", "--baseline"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fx"] == "11/7"
    assert payload["phix"] == pytest.approx(math.pi / 14)


def test_cli_error_paths(capsys):
    assert cli_dispatch(["design", "--r", "5", "--m", "7"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:DomainError:")
    assert "\n" not in err.strip()                  # single machine-parsable line
    assert cli_dispatch(["design", "--m", "7"]) == 2            # missing --r
    capsys.readouterr()
    assert cli_dispatch(["no-such-command"]) == 2
    capsys.readouterr()


# (command argv, index of a required --scanner / --out flag in it)
_REQUIRED_PATH_FLAGS = [
    (["metrics", "--design", "d.json", "--scanner", "s.json"], 3),
    (["sweep", "--r-min", "1", "--r-max", "2", "--r-step", "1", "--m", "7", "--out", "o.csv"], 9),
    (["optimize", "--scanner", "s.json", "--roi", "roi.csv", "--out", "o.json"], 1),
    (["optimize", "--scanner", "s.json", "--roi", "roi.csv", "--out", "o.json"], 5),
    (["phase-sim", "--scenario", "c.json", "--scanner", "s.json", "--duration", "9",
      "--out", "o.csv"], 3),
    (["phase-sim", "--scenario", "c.json", "--scanner", "s.json", "--duration", "9",
      "--out", "o.csv"], 7),
]


@pytest.mark.parametrize("argv, flag", _REQUIRED_PATH_FLAGS)
def test_cli_required_path_flags_are_usage_errors(argv, flag, capsys):
    dropped = argv[:flag] + argv[flag + 2:]
    assert cli_dispatch(dropped) == 2
    assert f"{argv[flag]}" in capsys.readouterr().err
    emptied = argv[:flag + 1] + [""] + argv[flag + 2:]
    assert cli_dispatch(emptied) == 2
    assert "must not be empty" in capsys.readouterr().err


def test_import_leaves_scipy_spatial_unloaded():
    src = str(Path(__import__("lissscan").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, lissscan, lissscan.cli; print('scipy.spatial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_cli_module_runs_as_a_script(tmp_path):
    src = str(Path(__import__("lissscan").__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    script = tmp_path / "script.json"
    subprocess.run([sys.executable, "-m", "lissscan.cli", "design", "--r", "1.5", "--m", "7",
                    "--out", str(script)], env=env, capture_output=True, check=True, timeout=60)
    dispatched = tmp_path / "dispatched.json"
    assert cli_dispatch(["design", "--r", "1.5", "--m", "7", "--out", str(dispatched)]) == 0
    assert script.read_bytes() == dispatched.read_bytes()


def test_cli_metrics(tmp_path, capsys):
    scanner = _scanner_file(tmp_path)
    design = tmp_path / "design.json"
    assert cli_dispatch(["design", "--r", "1.5", "--m", "7", "--out", str(design)]) == 0
    assert cli_dispatch(["metrics", "--design", str(design), "--scanner", str(scanner)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fill_factor"] == pytest.approx(1.8765781196864306, rel=1e-12)
    assert payload["scanning_range"] == pytest.approx(0.7375084657374081, rel=1e-12)
    assert payload["r_max"] == pytest.approx(2.0 - payload["fill_factor"], rel=1e-12)


def test_cli_sweep_csv(tmp_path, monkeypatch):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--r-min", "1.5", "--r-max", "1.6", "--r-step", "0.05",
            "--m", "7", "--out", str(out)]
    assert cli_dispatch(args) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,m,rule,fill_factor,scanning_range,status"
    assert len(lines) == 7                           # 3 ratios x 2 rules
    assert lines[1].startswith("1.5,7,proposed,1.8765781196864306,0.7375084657374081,ok")
    assert lines[2].startswith("1.5,7,baseline,1.885100772983906,")
    monkeypatch.setenv("LISSSCAN_THREADS", "2")
    out2 = tmp_path / "sweep2.csv"
    assert cli_dispatch(args[:-1] + [str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()     # parallelism cannot reorder


def test_cli_optimize(tmp_path):
    scanner = _scanner_file(tmp_path, r=2.0)
    roi = tmp_path / "roi.csv"
    np.savetxt(roi, np.ones((8, 8)), delimiter=",")
    out, trace = tmp_path / "params.json", tmp_path / "trace.csv"
    args = ["optimize", "--scanner", str(scanner), "--roi", str(roi),
            "--tones", "3", "--max-iters", "3", "--n-samples", "200",
            "--out", str(out), "--trace", str(trace)]
    assert cli_dispatch(args) == 0
    payload = json.loads(out.read_text())
    for key in ("alpha", "gamma", "beta", "delta", "nx", "ny", "fx_tone_freqs",
                "fy_tone_freqs", "final_loss", "iterations", "converged",
                "roi_density", "roi_density_reference", "seed", "scanner"):
        assert key in payload
    assert payload["nx"] == [26, 28, 30]
    assert len(trace.read_text().splitlines()) == payload["iterations"] + 2
    out2, trace2 = tmp_path / "p2.json", tmp_path / "t2.csv"
    assert cli_dispatch(args[:-3] + [str(out2), "--trace", str(trace2)]) == 0
    assert out.read_bytes() == out2.read_bytes()     # reruns are byte-identical
    assert trace.read_bytes() == trace2.read_bytes()


def test_cli_optimize_rejects_a_blank_roi(tmp_path, capsys):
    scanner = _scanner_file(tmp_path, r=2.0)
    roi = tmp_path / "roi.csv"
    np.savetxt(roi, np.zeros((8, 8)), delimiter=",")
    assert cli_dispatch(["optimize", "--scanner", str(scanner), "--roi", str(roi),
                         "--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err.startswith("error:InvalidParams:")


def test_cli_phase_sim(tmp_path):
    scanner = _scanner_file(tmp_path, r=2.0)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"frame_time": 6.4, "control_enabled": False,
                                    "f_drive": 2.0,
                                    "drift": {"type": "phase_target", "target_deg": 10.0}}))
    out = tmp_path / "trace.csv"
    assert cli_dispatch(["phase-sim", "--scenario", str(scenario), "--scanner", str(scanner),
                         "--duration", "2400", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,phase_error_deg,corrected"
    assert len(lines) == 377
    last_err = float(lines[-1].split(",")[1])
    assert last_err == pytest.approx(10.0, abs=1e-9)


def test_cli_phase_sim_rejects_bad_scenarios(tmp_path, capsys):
    scanner = _scanner_file(tmp_path, r=2.0)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"control_enabled": False}))
    assert cli_dispatch(["phase-sim", "--scenario", str(bad), "--scanner", str(scanner),
                         "--duration", "64", "--out", str(tmp_path / "t.csv")]) == 1
    assert "frame_time" in capsys.readouterr().err
    bad.write_text(json.dumps({"frame_time": 6.4, "drift": {"type": "spiral"}}))
    assert cli_dispatch(["phase-sim", "--scenario", str(bad), "--scanner", str(scanner),
                         "--duration", "64", "--out", str(tmp_path / "t.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:DomainError:")


def test_cli_phase_solve(tmp_path, capsys):
    omegas = tuple(2.0 * math.pi * f for f in (13 / 14, 1.0, 15 / 14))
    state = MultitoneState(omegas=omegas, amps=(0.3, 0.5, 0.7),
                           phases=(0.1, -0.2, 0.3))
    x, xq = synthesize_quadrature(state, np.array([0.0, 3.5, 7.0]))
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"x": x.tolist(), "xq": xq.tolist(),
                                   "omegas": list(omegas), "frame_time": 7.0}))
    assert cli_dispatch(["phase-solve", "--samples", str(samples)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["amplitudes"] == pytest.approx([0.3, 0.5, 0.7], abs=1e-9)
    assert payload["phases_rad"] == pytest.approx([0.1, -0.2, 0.3], abs=1e-9)
    samples.write_text(json.dumps({"x": x.tolist(), "xq": xq.tolist(),
                                   "omegas": list(omegas)}))
    assert cli_dispatch(["phase-solve", "--samples", str(samples)]) == 1
    assert capsys.readouterr().err.startswith("error:DomainError:")


def _assert_one_write_error(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith(f"error:DomainError: could not write {path}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_design_write_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert cli_dispatch(["design", "--r", "1.5", "--m", "7", "--out", str(out)]) == 1
    _assert_one_write_error(capsys, out)


def test_cli_metrics_write_error(tmp_path, capsys):
    design = tmp_path / "design.json"
    assert cli_dispatch(["design", "--r", "1.5", "--m", "7", "--out", str(design)]) == 0
    out = tmp_path / "missing" / "m.json"
    assert cli_dispatch(["metrics", "--design", str(design), "--scanner",
                         str(_scanner_file(tmp_path)), "--grid", "8", "--out", str(out)]) == 1
    _assert_one_write_error(capsys, out)


def test_cli_sweep_rejects_a_missing_output_directory_before_computing(tmp_path, capsys,
                                                                      monkeypatch):
    monkeypatch.setattr("lissscan.cli.sweep_designs",
                        lambda *a, **k: pytest.fail("sweep computed before checking --out"))
    out = tmp_path / "missing" / "x.csv"
    assert cli_dispatch(["sweep", "--r-min", "1.5", "--r-max", "1.6", "--r-step", "0.05",
                         "--m", "7", "--out", str(out)]) == 1
    _assert_one_write_error(capsys, out)


def test_cli_optimize_trace_write_error(tmp_path, capsys):
    roi = tmp_path / "roi.csv"
    np.savetxt(roi, np.ones((8, 8)), delimiter=",")
    trace = tmp_path / "missing" / "trace.csv"
    assert cli_dispatch(["optimize", "--scanner", str(_scanner_file(tmp_path, r=2.0)),
                         "--roi", str(roi), "--tones", "3", "--max-iters", "2",
                         "--n-samples", "100", "--out", str(tmp_path / "p.json"),
                         "--trace", str(trace)]) == 1
    _assert_one_write_error(capsys, trace)
    assert not (tmp_path / "p.json").exists()       # checked before anything is written


def test_cli_optimize_checks_every_output_path_before_writing(tmp_path, capsys):
    roi = tmp_path / "roi.csv"
    np.savetxt(roi, np.ones((8, 8)), delimiter=",")
    assert cli_dispatch(["optimize", "--scanner", str(_scanner_file(tmp_path, r=2.0)),
                         "--roi", str(roi), "--tones", "3", "--max-iters", "2",
                         "--n-samples", "100", "--out", str(tmp_path / "p.json"),
                         "--trace", str(tmp_path)]) == 1       # the trace path is a directory
    _assert_one_write_error(capsys, tmp_path)
    assert not (tmp_path / "p.json").exists()


def test_cli_phase_sim_write_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("lissscan.cli.simulate_drift_control",
                        lambda *a, **k: pytest.fail("phase-sim simulated before checking --out"))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"frame_time": 6.4}))
    out = tmp_path / "missing" / "trace.csv"
    assert cli_dispatch(["phase-sim", "--scenario", str(scenario), "--scanner",
                         str(_scanner_file(tmp_path, r=2.0)), "--duration", "64",
                         "--out", str(out)]) == 1
    _assert_one_write_error(capsys, out)


def test_cli_phase_solve_write_error(tmp_path, capsys):
    omegas = [2.0 * math.pi * f for f in (13 / 14, 1.0, 15 / 14)]
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps({"x": [0.1, 0.2, 0.3], "xq": [0.0, 0.1, 0.2],
                                   "omegas": omegas, "frame_time": 7.0}))
    out = tmp_path / "missing" / "p.json"
    assert cli_dispatch(["phase-solve", "--samples", str(samples), "--out", str(out)]) == 1
    _assert_one_write_error(capsys, out)


# ------------------------------------------------------------ JSON file inputs

def _assert_one_error(capsys, kind):
    err = capsys.readouterr().err
    assert err.startswith(f"error:{kind}:"), err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_import_pattern_reports_a_missing_field(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"t": [0.0, 1.0], "x": [0.0, 1.0], "frame_len": 2.0, "frames": 1}))
    with pytest.raises(DomainError, match="missing field 'y'"):
        import_pattern(path)
    path.write_text(json.dumps({"t": [0.0, 1.0], "x": [0.0, 1.0], "y": [0.0, 1.0],
                                "frame_len": None, "frames": 1}))
    with pytest.raises(DomainError, match="malformed pattern record"):
        import_pattern(path)
    path.write_text("[1, 2]")
    with pytest.raises(DomainError, match="expected a JSON object"):
        import_pattern(path)


def test_json_reader_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "s.json"
    for text in ('{"fx_res": NaN}', '{"fx_res": Infinity}', '{"fx_res": -Infinity}',
                 '{"fx_res": 1e400}', '{"fx_res": 1' + "0" * 400 + '}'):
        path.write_text(text)
        with pytest.raises(ConfigError, match="not a finite number"):
            load_scanner(path)
    path.write_text('{"fx_res": 1e-400, "qx": 1' + "0" * 300 + '}')
    with pytest.raises(ConfigError, match="resonant frequencies must be positive"):
        load_scanner(path)                          # underflow to 0 is finite


def test_scanner_file_that_is_a_list_says_so(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('[{"fx_res": 1.5}]')
    with pytest.raises(ConfigError, match="expected a JSON object, got list"):
        load_scanner(path)


def _cli_inputs(tmp_path):
    """Files every JSON-reading command needs, and a valid record per JSON flag."""
    scanner = _scanner_file(tmp_path, r=2.0)
    design = save_design(design_unmodulated(F(3, 2), 7), tmp_path / "design.json")
    roi = tmp_path / "roi.csv"
    np.savetxt(roi, np.ones((4, 4)), delimiter=",")
    omegas = [2.0 * math.pi * f for f in (13 / 14, 1.0, 15 / 14)]
    x, xq = synthesize_quadrature(MultitoneState(tuple(omegas), (0.3, 0.5, 0.7), (0.1, -0.2, 0.3)),
                                  np.array([0.0, 3.5, 7.0]))
    records = {
        "--scanner": {"fx_res": 2.0, "fy_res": 1.0, "qx": 20.0, "qy": 20.0},
        "--design": json.loads(design.read_text()),
        "--init": initial_params(F(2), m=7, n_tones=3).to_dict(),
        "--scenario": {"frame_time": 6.4, "f_drive": 2.0, "control_enabled": False,
                       "measurement_noise_deg": 0.5,
                       "drift": {"type": "phase_target", "target_deg": 10.0}},
        "--samples": {"x": x.tolist(), "xq": xq.tolist(), "omegas": omegas, "frame_time": 7.0},
    }
    return (scanner, design, roi), records


def _cli_argv(flag, path, tmp_path, files):
    """A cheap run of the command that reads `flag`, with `path` as its file."""
    scanner, design, roi = map(str, files)
    out = str(tmp_path / "out")
    if flag == "--scanner":
        return ["metrics", "--design", design, "--scanner", path,
                "--grid", "8", "--n-samples", "50", "--out", out]
    if flag == "--design":
        return ["metrics", "--design", path, "--scanner", scanner,
                "--grid", "8", "--n-samples", "50", "--out", out]
    if flag == "--init":
        return ["optimize", "--scanner", scanner, "--roi", roi, "--tones", "3",
                "--max-iters", "2", "--n-samples", "50", "--init", path, "--out", out]
    if flag == "--scenario":
        return ["phase-sim", "--scenario", path, "--scanner", scanner,
                "--duration", "64", "--out", out]
    return ["phase-solve", "--samples", path, "--out", out]


_READER_ERROR = {"--scanner": "ConfigError", "--design": "DomainError", "--init": "InvalidParams",
                 "--scenario": "DomainError", "--samples": "DomainError"}
_DROP = object()


def _mutated(record, path, value):
    """Copy of record with the field at path (a key tuple) set to value, or
    removed when value is _DROP."""
    record = json.loads(json.dumps(record))
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


# (flag, field path or None for the whole file, value, error type): each of
# these ended in a traceback, or ran on and exited 0 with a wrong answer.
_MALFORMED_CASES = [
    ("--design", None, [1, 2], "DomainError"),                    # design JSON that is a list
    ("--init", None, _DROP, "InvalidParams"),                     # missing --init file
    ("--init", ("L",), None, "InvalidParams"),                    # "L": null
    ("--init", ("nx",), 5, "InvalidParams"),
    ("--scenario", None, [], "DomainError"),                      # list scenario
    ("--samples", None, [1, 2, 3], "DomainError"),                # list samples
    ("--samples", ("x",), "abc", "DomainError"),
    ("--scenario", ("control_enabled",), "false", "DomainError"),  # ran the closed loop
    ("--scenario", ("drift",), {"type": "linear", "rate_per_s": math.nan}, "DomainError"),
    ("--scenario", ("drift",), {"type": "linear", "rate_per_s": "nan"}, "DomainError"),
    ("--scenario", ("drift",), [1], "DomainError"),
    ("--scenario", ("frame_time",), "nan", "DomainError"),
    ("--scanner", None, [{"fx_res": 2.0}], "ConfigError"),
    # booleans and fractional integers were read as numbers: true -> 1.0, 7.9 -> 7
    ("--scanner", ("fx_res",), True, "ConfigError"),
    ("--scanner", ("qy",), False, "ConfigError"),
    ("--design", ("m",), 7.9, "DomainError"),
    ("--design", ("fy",), True, "DomainError"),
    ("--design", ("phix",), False, "DomainError"),
    ("--init", ("L",), 2.5, "InvalidParams"),
    ("--init", ("m",), True, "InvalidParams"),
    ("--init", ("nx",), [26, 28.5, 30], "InvalidParams"),
    ("--init", ("alpha",), [False, True, False], "InvalidParams"),
    ("--init", ("scanner", "qx"), True, "ConfigError"),         # nested scanner record
]


@pytest.mark.parametrize("flag, field, value, kind", _MALFORMED_CASES)
def test_cli_malformed_json_input_is_one_error_line(flag, field, value, kind, tmp_path, capsys):
    files, records = _cli_inputs(tmp_path)
    path = tmp_path / "input.json"
    if field is not None:
        path.write_text(json.dumps(_mutated(records[flag], field, value)))
    elif value is not _DROP:
        path.write_text(json.dumps(value))
    assert cli_dispatch(_cli_argv(flag, str(path), tmp_path, files)) == 1
    _assert_one_error(capsys, kind)


@pytest.mark.parametrize("duration", ["inf", "nan", "1e400"])
def test_cli_phase_sim_rejects_a_non_finite_duration(duration, tmp_path, capsys):
    files, records = _cli_inputs(tmp_path)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(records["--scenario"]))
    argv = _cli_argv("--scenario", str(path), tmp_path, files)
    argv[argv.index("--duration") + 1] = duration
    assert cli_dispatch(argv) == 1
    _assert_one_error(capsys, "DomainError")


_ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.integers(-10**30, 10**30),
    st.floats(), st.floats(-1e3, 1e3),
    st.sampled_from(["", "abc", "nan", "inf", "-1", "1e400", "1/0", "41/28", "x", "Case1",
                     "linear", "phase_target", "\n"]),
    st.lists(st.one_of(st.integers(-3, 60), st.floats(-2, 2)), max_size=4),
    st.just({}), st.just({"type": "linear"}), st.just([[1.0]]))

_WHOLE_FILES = st.sampled_from([
    "[]", "[1, 2, 3]", "null", "true", "3.5", '"text"', "{", "", "{\"a\": NaN}",
    "NaN", "Infinity", "-Infinity", "1e999", "{\"fx_res\": 1e999}", "\ufeff{}", "{}",
    b"\xff\xfe\x00", "missing", "directory"])


def _field_paths(record, prefix=()):
    for key, value in record.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


@settings(max_examples=250, deadline=None)
@given(flag=st.sampled_from(sorted(_READER_ERROR)), data=st.data())
def test_cli_json_inputs_end_in_one_of_three_states(flag, data):
    """Exit 0, exit 2, or exit 1 with exactly one error: line and no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        files, records = _cli_inputs(tmp_path)
        path = tmp_path / "input.json"
        whole = data.draw(st.one_of(st.none(), _WHOLE_FILES), label="whole file")
        if whole == "directory":
            path = tmp_path
        elif isinstance(whole, bytes):
            path.write_bytes(whole)
        elif whole is not None and whole != "missing":
            path.write_text(whole)
        elif whole is None:
            record = records[flag]
            for _ in range(data.draw(st.integers(1, 3), label="edits")):
                field = data.draw(st.sampled_from(sorted(_field_paths(record))), label="field")
                value = data.draw(st.one_of(st.just(_DROP), _ODD_VALUES), label="value")
                record = _mutated(record, field, value)
            path.write_text(json.dumps(record))
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_dispatch(_cli_argv(flag, str(path), tmp_path, files))
        err = err.getvalue()
        assert code in (0, 1, 2), code
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert "Traceback" not in err
            assert not caught, [str(w.message) for w in caught]    # would print on stderr
            if whole is not None and whole != "{}":
                assert err.startswith(f"error:{_READER_ERROR[flag]}:"), err
