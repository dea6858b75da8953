"""File formats (weight maps, configs, designs) and the command-line front end."""

import argparse
import builtins
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lissscan
from lissscan import (ModulatedParams, ScannerConfig, design_unmodulated, initial_params, load_design,
                      load_scanner, load_weight_map, save_design, save_scanner,
                      synthesize_quadrature, MultitoneState)
from lissscan import cli
from lissscan.cli import cli_dispatch
from lissscan.coverage import MAX_GRID, MAX_ITERS, MAX_SAMPLES, MAX_SWEEP_CELLS
from lissscan.design import N_GRID_DEFAULT, N_SAMPLES_DEFAULT
from lissscan.errors import ConfigError, DomainError, WeightMapError
from lissscan.io import (_PATH_SHOWN, _pgm_tokens, _read_pgm, check_out_paths, path_text,
                         read_json, write_csv, write_text)
from lissscan.modulated import FEASIBILITY_SLACK

F = Fraction


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
    path.write_bytes(b"P" * 10**6)
    with pytest.raises(WeightMapError) as err:
        load_weight_map(path)                       # a megabyte of magic
    assert len(str(err.value)) < len(str(path)) + 120
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
    for header in ("P2\n2\n", "P2\n2 x\n255\n0 0 0 0\n"):
        path.write_text(header)
        with pytest.raises(WeightMapError, match="truncated or malformed PGM header"):
            load_weight_map(path)
    path.write_text("P2\n0 2\n255\n")
    with pytest.raises(WeightMapError, match="bad dimensions 0x2"):
        load_weight_map(path)
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2]))
    with pytest.raises(WeightMapError, match="raster shorter than 2x2"):
        load_weight_map(path)
    # PGM integers are ASCII decimal digits: int() also read a sign and "_"
    for header in ("P2\n+2 2\n255\n0 0 0 0\n", "P2\n2 2\n2_55\n0 0 0 0\n",
                   "P2\n2 -2\n255\n0 0 0 0\n"):
        path.write_text(header)
        with pytest.raises(WeightMapError, match="truncated or malformed PGM header"):
            load_weight_map(path)
    for sample in ("a", "1_0", "-1", "+2", "\u0661"):          # "\u0661" is Arabic-Indic one
        path.write_bytes(f"P2\n2 2\n255\n0 0 {sample} 0\n".encode())
        with pytest.raises(WeightMapError, match="non-integer sample"):
            load_weight_map(path)
    with pytest.raises(WeightMapError):
        load_weight_map(tmp_path / "missing.pgm")


@pytest.mark.parametrize("data, kept", [
    (b"P2\n2 1\n255\n51 102 255\n", [51, 102]),
    (b"P2\n2 1\n255\n51 102 999\n", [51, 102]),      # above maxval, but never read
    (b"P5\n2 1\n255\n" + bytes([51, 102, 255, 7]), [51, 102]),
], ids=["p2", "p2-above-maxval", "p5"])
def test_pgm_drops_samples_past_width_times_height(data, kept):
    np.testing.assert_array_equal(_read_pgm(data), np.array([kept]) / 255)


def test_pgm_refuses_an_extra_p2_sample_that_is_not_an_integer():
    with pytest.raises(DomainError, match="^non-integer sample in P2 raster$"):
        _read_pgm(b"P2\n2 1\n255\n51 102 x\n")


def _pgm_tokens_byte_loop(data: bytes):
    """PGM header tokens and their end offsets, found one byte at a time: the
    reference the regex tokenizer must agree with."""
    pos = 0
    while pos < len(data):
        if data[pos:pos + 1].isspace():
            pos += 1
        elif data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] not in b"\r\n":
                pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos:pos + 1].isspace():
                pos += 1
            yield data[start:pos], pos


_PGM_PIECES = [b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"#", b"# note", b"#1 2\r",
               b"P2", b"P5", b"255", b"4", b"2#5", b"x#", b"\x00", b"\xff"]


@settings(max_examples=400, deadline=None)
@given(data=st.one_of(st.binary(max_size=48),
                      st.lists(st.sampled_from(_PGM_PIECES), max_size=16).map(b"".join)))
@example(data=b"P2 # a comment\n4 4\n# another\n255\n1 2")      # comments between tokens
@example(data=b"P2\n4#4 25#5\n")                                   # a # inside a token
@example(data=b"P5\r# comment\r4\r4\r255\r")                       # \r line ends
@example(data=b"P2 4 4 255 1 #final")                              # a final comment, no newline
@example(data=b"#only a comment")
def test_pgm_header_tokens_match_a_byte_loop(data):
    assert list(_pgm_tokens(data)) == list(_pgm_tokens_byte_loop(data))


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


# (file name, content): every map optimize --roi refuses, whatever rule it breaks
_REFUSED_MAPS = [
    ("negative.pgm", b"P2\n2 2\n255\n-1 0 0 0\n"),   # was a DomainError naming no file
    ("negative.csv", b"-1,1\n1,1\n"),
    ("nan.csv", b"nan,1\n1,1\n"),
    ("inf.csv", b"inf,1\n1,1\n"),
    ("wide.pgm", b"P2\n3 2\n255\n0 0 0 0 0 0\n"),
    ("wide.csv", b"1,2,3\n4,5,6\n"),
    ("empty.csv", b""),                                   # loadtxt warned on stderr first
    ("comment.csv", b"# only a comment\n"),
    # a 4,000-digit height or maxval was shown in full, a line of about 4,070 characters
    ("tall.pgm", b"P2\n1 1" + b"0" * 3999 + b"\n255\n0\n"),
    ("deep.pgm", b"P2\n1 1\n1" + b"0" * 3999 + b"\n0\n"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, content", _REFUSED_MAPS, ids=[n for n, _ in _REFUSED_MAPS])
def test_cli_refused_weight_map_is_one_error_naming_its_file(name, content, tmp_path, capsys):
    scanner = _scanner_file(tmp_path, r=2.0)
    roi, out = tmp_path / name, tmp_path / "params.json"
    roi.write_bytes(content)
    assert cli_dispatch(["optimize", "--scanner", str(scanner), "--roi", str(roi),
                         "--max-iters", "1", "--out", str(out)]) == 1
    _assert_one_error(capsys, f"WeightMapError: {roi}")
    assert not out.exists()


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
    with pytest.raises(DomainError, match="^path must be non-empty$"):
        load_scanner("")
    with pytest.raises(DomainError, match="^path must be non-empty$"):
        save_design(design, None)
    with pytest.raises(DomainError, match="^could not write .*embedded null byte"):
        save_scanner(cfg, str(tmp_path / "a\0b"))     # open() raises a ValueError


@pytest.mark.parametrize("path", [b"s.json", 123, 1.5, [], ""],
                         ids=["bytes", "int", "float", "list", "empty"])
@pytest.mark.parametrize("call", [
    check_out_paths, lambda path: read_json(path, ConfigError),
    lambda path: write_text(path, "x"), lambda path: write_csv(path, ["a"], [[1]]),
], ids=["check_out_paths", "read_json", "write_text", "write_csv"])
def test_a_path_argument_must_be_a_non_empty_str_or_path_like(call, path, tmp_path,
                                                             monkeypatch):
    # Path() raised a raw TypeError for bytes, a number or a list, and
    # check_out_paths let "" through
    monkeypatch.chdir(tmp_path)
    with pytest.raises(DomainError, match="^path must be "):
        call(path)
    assert not list(tmp_path.iterdir())


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
    assert cli_dispatch(["optimize", "--help"]) == 0             # argparse's own exit code
    assert capsys.readouterr().out.startswith("usage: lissscan optimize ")


_SWEEP = ["sweep", "--r-min", "1", "--r-max", "2", "--r-step", "1", "--m", "7", "--out", "o.csv"]
_OPTIMIZE = ["optimize", "--scanner", "s.json", "--roi", "roi.csv", "--out", "o.json"]
_PHASE_SIM = ["phase-sim", "--scenario", "c.json", "--scanner", "s.json", "--duration", "9",
              "--out", "o.csv"]
# (command argv, index of a required path flag in it)
_REQUIRED_PATH_FLAGS = [
    (["metrics", "--design", "d.json", "--scanner", "s.json"], 3),
    (_SWEEP, 9), (_OPTIMIZE, 1), (_OPTIMIZE, 5), (_PHASE_SIM, 3), (_PHASE_SIM, 7),
    (["metrics", "--design", "d.json", "--scanner", "s.json"], 1), (_OPTIMIZE, 3),
    (_PHASE_SIM, 1), (["phase-solve", "--samples", "q.json"], 1),
]
# (command argv, index of an optional path flag in it)
_OPTIONAL_PATH_FLAGS = [
    (["design", "--r", "1.5", "--m", "7", "--out", "d.json"], 5),
    (["metrics", "--design", "d.json", "--scanner", "s.json", "--out", "o.json"], 5),
    (_SWEEP + ["--scanner", "s.json"], 11), (_OPTIMIZE + ["--init", "i.json"], 7),
    (_OPTIMIZE + ["--trace", "t.csv"], 7),
    (["phase-solve", "--samples", "q.json", "--out", "o.json"], 3),
]


@pytest.mark.parametrize("argv, flag", _REQUIRED_PATH_FLAGS + _OPTIONAL_PATH_FLAGS)
def test_cli_required_path_flags_are_usage_errors(argv, flag, capsys):
    # every path flag refuses an empty path (sweep --scanner "" scored with
    # the default scanner, and --init "", --trace "" and --out "" were ignored)
    if (argv, flag) in _REQUIRED_PATH_FLAGS:
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


_POOL_ONLY = ("concurrent.futures.process",)


@pytest.mark.parametrize("command, unloaded", [
    ("design", ("numpy", "multiprocessing") + _POOL_ONLY),
    ("phase-solve", _POOL_ONLY),
    ("optimize", _POOL_ONLY),
    ("metrics", _POOL_ONLY),
    ("sweep", _POOL_ONLY),
])
def test_a_cli_command_starts_with_only_the_modules_it_uses(command, unloaded, tmp_path):
    argv = _run(command, _cli_inputs(tmp_path)[0])
    src = str(Path(lissscan.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "lissscan.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src, LISSSCAN_THREADS="1"),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # -X importtime logs every module the run imports: "import time: self | cumulative | name"
    loaded = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "lissscan.design" in loaded       # cli runs as __main__; it imports design
    assert not [name for name in loaded if name.split(".")[0] in unloaded or name in unloaded]
    assert not [name for name in loaded if name.split(".")[0] == "scipy"]


def test_the_lazy_namespace_binds_each_exported_name_to_its_defining_object():
    namespace = {}
    exec("from lissscan import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lissscan.__all__)
    for name in lissscan.__all__:
        value = namespace[name]      # the plain tuples ROI_A and ROI_B carry no __module__
        home = value.__module__ if callable(value) else "lissscan.modulated"
        assert getattr(sys.modules[home], name) is value is getattr(lissscan, name), name
    assert set(lissscan.__all__) <= set(dir(lissscan))


@pytest.mark.parametrize("name", ["export_pattern", "import_pattern", "polar_coefficients"])
def test_a_removed_export_is_gone_from_the_namespace(name):
    # the pattern file format and polar_coefficients had no caller and were removed
    assert name not in lissscan.__all__ and name not in dir(lissscan)
    with pytest.raises(AttributeError, match=name):
        getattr(lissscan, name)
    assert not hasattr(lissscan.io, name) and not hasattr(lissscan.modulated, name)


@pytest.mark.parametrize("name", ["export_pattern", "import_pattern", "_pattern_format",
                                  "polar_coefficients"])
def test_a_removed_export_is_named_nowhere_in_the_sources_or_docs(name):
    root = Path(__file__).resolve().parents[1]
    files = [*(root / "src" / "lissscan").glob("*.py"), *(root / "docs").glob("*.md")]
    assert files and not [str(path) for path in files if name in path.read_text()]


def test_the_lazy_namespace_reaches_submodules_and_refuses_unknown_names():
    for name in ("cli", "coverage", "design", "errors", "io", "modulated", "phase", "scanner"):
        assert getattr(lissscan, name) is importlib.import_module(f"lissscan.{name}")
    with pytest.raises(AttributeError, match="no_such_name"):
        lissscan.no_such_name
    assert not hasattr(lissscan, "numpy")


def test_every_exported_class_and_function_has_its_own_docstring():
    missing = []
    for name in lissscan.__all__:
        obj = getattr(lissscan, name)
        if not callable(obj):           # ROI_A, ROI_B are plain tuples
            continue
        doc = obj.__dict__.get("__doc__") if isinstance(obj, type) else obj.__doc__
        generated = dataclasses.is_dataclass(obj) and (doc or "").startswith(f"{name}(")
        if not (doc or "").strip() or generated:
            missing.append(name)
    assert missing == []


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


def _hz_and_normalized_runs(tmp_path, capsys, argv, r):
    """Payloads of one CLI run against a scanner in Hz (y resonance 1000)
    and against the same scanner normalized to a unit y resonance."""
    payloads = []
    for name, record in (("hz.json", {"fx_res": 1000 * r, "fy_res": 1000}),
                         ("unit.json", {"fx_res": r})):
        (tmp_path / name).write_text(json.dumps(record))
        out = tmp_path / f"out-{name}"
        assert cli_dispatch(argv + ["--scanner", str(tmp_path / name), "--out", str(out)]) == 0
        payloads.append(json.loads(out.read_text()))
    assert capsys.readouterr().err == ""
    return payloads


def test_cli_metrics_reads_a_scanner_in_hz_like_a_normalized_one(tmp_path, capsys):
    # the design record's frequencies are in units of the y resonance
    design = tmp_path / "design.json"
    assert cli_dispatch(["design", "--r", "1.465", "--m", "7", "--out", str(design)]) == 0
    hz, unit = _hz_and_normalized_runs(tmp_path, capsys, ["metrics", "--design", str(design)],
                                       1.465)
    assert sorted(hz) == sorted(unit) == ["fill_factor", "r_max", "scanning_range"]
    for key in hz:                      # the scanning range read 0.0025 in Hz
        assert hz[key] == pytest.approx(unit[key], rel=1e-12, abs=0.0)


def test_cli_optimize_reads_a_scanner_in_hz_like_a_normalized_one(tmp_path, capsys):
    roi = Path(__file__).parent / "golden" / "inputs" / "roi_b.pgm"
    argv = ["optimize", "--roi", str(roi), "--tones", "3", "--max-iters", "3",
            "--n-samples", "200"]
    hz, unit = _hz_and_normalized_runs(tmp_path, capsys, argv, 2.0)
    assert unit["roi_density_reference"] > 0     # read 0 in Hz
    for key in ("roi_density", "roi_density_reference", "iterations"):
        assert hz[key] == unit[key]
    assert hz["final_loss"] == pytest.approx(unit["final_loss"], rel=1e-12, abs=0.0)


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
                "roi_density", "roi_density_reference", "scanner"):
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


def test_cli_phase_sim_takes_absent_fields_from_the_scenario_record(tmp_path, monkeypatch,
                                                                   with_defaults):
    # the command passes only the fields its file holds; a subclass's defaults show it
    from lissscan import phase
    seen = []
    simulate = phase.simulate_drift_control
    monkeypatch.setattr(phase, "DriftScenario", with_defaults(
        phase.DriftScenario, control_enabled=False, measurement_noise_deg=0.25))
    monkeypatch.setattr(phase, "simulate_drift_control",
                        lambda scenario, *args, **kw: simulate(seen.append(scenario) or scenario,
                                                               *args, **kw))
    scenario = tmp_path / "scenario.json"
    run = ["phase-sim", "--scenario", str(scenario), "--scanner", str(_scanner_file(tmp_path)),
           "--duration", "64", "--out", str(tmp_path / "t.csv")]
    scenario.write_text(json.dumps({"frame_time": 6.4}))
    assert cli_dispatch(run) == 0
    scenario.write_text(json.dumps({"frame_time": 6.4, "control_enabled": True,
                                    "measurement_noise_deg": 0.0}))
    assert cli_dispatch(run) == 0
    assert [(s.control_enabled, s.measurement_noise_deg) for s in seen] == [(False, 0.25),
                                                                          (True, 0.0)]


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
    monkeypatch.setattr("lissscan.coverage.sweep_designs",
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


def test_cli_optimize_refuses_one_file_for_both_outputs_before_computing(tmp_path, capsys,
                                                                        monkeypatch):
    # exited 0: the trace CSV overwrote the params JSON
    _no_descent(monkeypatch)
    files = _cli_inputs(tmp_path)[0]
    assert cli_dispatch(_run("optimize", files, "--trace", files["out"])) == 1
    assert capsys.readouterr().err == (f"error:DomainError: could not write {files['out']}: "
                                       "another output names it too\n")
    assert not (tmp_path / "out").exists()


def test_check_out_paths_refuses_a_file_named_twice(tmp_path):
    out, link = tmp_path / "out.json", tmp_path / "link.json"
    link.symlink_to(out)                 # a dangling link, as out is not written yet
    (tmp_path / "sub").mkdir()
    check_out_paths(out, None, tmp_path / "trace.csv")
    for first, second in ((out, str(out)), (out, tmp_path / "sub" / ".." / "out.json"),
                          (out, link)):
        with pytest.raises(DomainError, match=f"^could not write {re.escape(str(second))}: "
                                              "another output names it too$"):
            check_out_paths(first, second)


def test_check_out_paths_refuses_a_null_byte_as_write_text_does(tmp_path):
    # resolving its links raises a ValueError; it passed here and was refused after computing
    path = str(tmp_path / "a\0b")
    for call in (check_out_paths, lambda path: write_text(path, "x")):
        with pytest.raises(DomainError, match=f"^could not write {re.escape(path_text(path))}: "
                                              "embedded null byte$"):
            call(path)


def test_cli_phase_sim_write_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("lissscan.phase.simulate_drift_control",
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


# ------------------------------------------------------------ paths in messages

def test_path_text_shows_an_ordinary_path_as_it_is():
    assert path_text("d/" + "p" * (_PATH_SHOWN - 2)) == "d/" + "p" * (_PATH_SHOWN - 2)
    assert path_text(Path("a b/\u00e9.json")) == "a b/\u00e9.json"
    assert path_text("p" * (_PATH_SHOWN + 1)) == (
        f"'{'p' * 63}... ({_PATH_SHOWN + 3} characters)")
    assert path_text("a\x1b[2Jb.csv") == "'a\\x1b[2Jb.csv'"
    assert path_text("a\tb") == "'a\\tb'"


def _path_flags():
    """(command, flag) for every flag whose argparse type is cli._path."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0]) for command, p in sub.choices.items()
            for action in p._actions if action.type is cli._path]


_OUTPUT_FLAGS = ("--out", "--trace")


def _assert_one_printable_error(err):
    assert err.startswith("error:") and err.endswith("\n") and err.count("\n") == 1, err[:300]
    assert len(err) < 1000, f"{len(err)} characters"
    assert err[:-1].isprintable(), err[:300]        # no ESC, NUL or other control character


def test_the_path_flag_tests_reach_all_16_path_flags():
    assert len(_path_flags()) == 16


@pytest.mark.parametrize("kind", ["long", "escape", "directory", "missing-directory"])
@pytest.mark.parametrize("command, flag", _path_flags())
def test_cli_a_refused_path_is_one_short_printable_error_line(command, flag, kind, tmp_path,
                                                               capsys):
    # a 100,000-character --roi, --out or --trace ended in a raw OSError (File
    # name too long), any other flag printed the name twice, and a control
    # character in a name reached stderr raw
    path = {"long": "x" * 100_000,
            "escape": str(tmp_path / ("missing" if flag in _OUTPUT_FLAGS else "") / "a\x1b[2Jb"),
            "directory": str(tmp_path),
            "missing-directory": str(tmp_path / "missing" / "f.json")}[kind]
    assert cli_dispatch(_run(command, _cli_inputs(tmp_path)[0], flag, path)) == 1
    _assert_one_printable_error(capsys.readouterr().err)


def _refuse_unless_regular(read):
    """read, which fails the test instead of opening a file that is not regular."""
    def guarded(source, *args, **kwargs):
        if isinstance(source, (str, os.PathLike)) and os.path.exists(source) \
                and not os.path.isfile(source):
            raise AssertionError(f"{source} is not a regular file, yet it was opened")
        return read(source, *args, **kwargs)
    return guarded


@pytest.mark.parametrize("special", ["fifo", "/dev/zero"])
@pytest.mark.parametrize("command, flag",
                         [(c, f) for c, f in _path_flags() if f not in _OUTPUT_FLAGS])
def test_cli_an_input_that_is_not_a_regular_file_is_refused_unread(command, flag, special,
                                                                  tmp_path, capsys, monkeypatch):
    # a FIFO's read blocked until the process was killed, and /dev/zero's read
    # grew until a MemoryError; the guards below stand in for both reads
    for owner, name in ((builtins, "open"), (Path, "read_text"), (Path, "read_bytes"),
                        (np, "loadtxt")):
        monkeypatch.setattr(owner, name, _refuse_unless_regular(getattr(owner, name)))
    if special == "fifo":
        special = str(tmp_path / "fifo")
        os.mkfifo(special)
    assert cli_dispatch(_run(command, _cli_inputs(tmp_path)[0], flag, special)) == 1
    err = capsys.readouterr().err
    _assert_one_printable_error(err)
    assert err.endswith(f"{special}: not a regular file\n"), err


# ------------------------------------------------------------ JSON file inputs

def _assert_one_error(capsys, kind):
    err = capsys.readouterr().err
    assert err.startswith(f"error:{kind}:"), err[:300]
    assert err.count("\n") == 1 and "Traceback" not in err
    assert len(err) < 1000, f"{len(err)} characters"     # a refused value is shown cut


def test_json_reader_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "s.json"
    for literal, shown in (
            ("NaN", "'NaN'"), ("Infinity", "'Infinity'"), ("-Infinity", "'-Infinity'"),
            ("1e400", "'1e400'"), ("1" + "0" * 400, "'1" + "0" * 62 + "... (403 characters)"),
            # its first 24 characters alone were shown, as if a finite number
            ("-" + "9" * 30 + "e999", "'-" + "9" * 30 + "e999'")):
        path.write_text('{"fx_res": ' + literal + '}')
        message = f"could not read JSON from {path}: {shown} is not a finite number"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_scanner(path)
    path.write_text('{"fx_res": 1e-400, "qx": 1' + "0" * 300 + '}')
    with pytest.raises(ConfigError, match="^fx_res must be positive and finite, got 0.0$"):
        load_scanner(path)                          # underflow to 0 is finite


def test_scanner_file_that_is_a_list_says_so(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('[{"fx_res": 1.5}]')
    with pytest.raises(ConfigError, match="expected a JSON object, got list"):
        load_scanner(path)


def _cli_inputs(tmp_path):
    """Every file a cheap run reads, by name, with "out" and "trace", the paths
    it writes; and a valid record per JSON flag."""
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
    files = {"scanner": scanner, "design": design, "roi": roi,
             "out": tmp_path / "out", "trace": tmp_path / "trace.csv"}
    for name in ("init", "scenario", "samples"):
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(records[f"--{name}"]))
    return {name: str(path) for name, path in files.items()}, records


# A cheap run of each command with every input valid ("{name}" is a file of
# _cli_inputs), and the value flags a fuzz run may change in it. Valid drawn
# values stay small, so no run is slow; out-of-bound ones must be refused first.
_RUNS = {
    "design": ("design --r 1.5 --m 7 --out {out}", "--r --m"),
    "metrics": ("metrics --design {design} --scanner {scanner} --frame 0 --grid 8 "
                "--n-samples 50 --out {out}", "--frame --n-samples --grid"),
    "sweep": ("sweep --r-min 1.5 --r-max 1.6 --r-step 0.05 --m 7 --scanner {scanner} "
              "--grid 8 --n-samples 50 --out {out}",
              "--r-min --r-max --r-step --m --n-samples --grid"),
    "optimize": ("optimize --scanner {scanner} --roi {roi} --tones 3 --m 7 --n-samples 50 "
                 "--max-iters 2 --step 0.05 --threshold 0.1 --out {out}",
                 "--tones --m --n-samples --max-iters --step --threshold"),
    "optimize-absolute": ("optimize --scanner {scanner} --roi {roi} --tones 3 --m 7 "
                          "--n-samples 50 --max-iters 2 --step 0.05 --threshold 0.1 "
                          "--constraint absolute --out {out}",
                          "--step --tones --m --n-samples --max-iters --threshold"),
    "phase-sim": ("phase-sim --scenario {scenario} --scanner {scanner} --duration 64 --seed 0 "
                  "--out {out}", "--duration --seed"),
    "phase-solve": ("phase-solve --samples {samples} --out {out}", ""),
}
# the run that reads each JSON input flag
_READER = {"--scanner": "metrics", "--design": "metrics", "--init": "optimize",
           "--scenario": "phase-sim", "--samples": "phase-solve"}


def _run(command, files, flag=None, path=None):
    """The argv of command's cheap run on files, with path for flag (added
    when the run has no such flag, as optimize has no --init or --trace)."""
    argv = [files[word[1:-1]] if word.startswith("{") else word
            for word in _RUNS[command][0].split()]
    if flag in argv:
        argv[argv.index(flag) + 1] = path
    elif flag:
        argv += [flag, path]
    return argv


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
    ("--scenario", ("frame_time",), True, "DomainError"),
    ("--scenario", ("f_drive",), True, "DomainError"),
    ("--scenario", ("measurement_noise_deg",), False, "DomainError"),
    ("--scenario", ("drift",), {"type": "linear", "rate_per_s": True}, "DomainError"),
    ("--scenario", ("drift",), {"type": "linear_total", "total_offset": True}, "DomainError"),
    ("--scenario", ("drift",), {"type": "linear_total"}, "DomainError"),
    ("--scenario", ("drift", "target_deg"), False, "DomainError"),
    ("--samples", ("x",), [True, 0.5, 0.5], "DomainError"),
    ("--samples", ("xq",), [0.1, False, 0.2], "DomainError"),
    ("--samples", ("omegas",), [True, 6.3, 6.7], "DomainError"),
    ("--samples", ("frame_time",), True, "DomainError"),
    # numbers given as text were read as those numbers; only a ratio is text ("41/28")
    ("--scanner", ("fx_res",), "1.5", "ConfigError"),
    ("--design", ("m",), "7", "DomainError"),
    ("--init", ("alpha",), ["0.1", "0.2", "0.3"], "InvalidParams"),
    ("--init", ("m",), "7", "InvalidParams"),
    ("--scenario", ("frame_time",), "6.4", "DomainError"),
    ("--scenario", ("drift",), {"type": "linear", "rate_per_s": "0.1"}, "DomainError"),
    ("--samples", ("frame_time",), "7", "DomainError"),
    # a refused value reached the error line in full
    ("--scenario", ("drift",), {"type": "x" * 100_000}, "DomainError"),
]


@pytest.mark.parametrize("flag, field, value, kind", _MALFORMED_CASES)
def test_cli_malformed_json_input_is_one_error_line(flag, field, value, kind, tmp_path, capsys):
    files, records = _cli_inputs(tmp_path)
    path = tmp_path / "input.json"
    if field is not None:
        path.write_text(json.dumps(_mutated(records[flag], field, value)))
    elif value is not _DROP:
        path.write_text(json.dumps(value))
    assert cli_dispatch(_run(_READER[flag], files, flag, str(path))) == 1
    _assert_one_error(capsys, kind)


@pytest.mark.parametrize("flag, value", [
    ("--m", "7,x"), ("--m", ","), ("--r-step", "0"), ("--r-step", "-0.05"), ("--r-max", "1.4"),
    pytest.param("--m", "x" * 50_000, id="--m-50000-characters"),   # was shown in full
    # a cell count of 5,001 digits ended in a raw ValueError from str(), and one
    # of 4,000 digits was shown in full; 1e-5000 is now refused as a ratio
    ("--r-step", "1e-5000"), ("--r-step", "1e-4000"),
])
def test_cli_sweep_rejects_a_bad_grid(flag, value, tmp_path, capsys):
    argv = ["sweep", "--r-min", "1.5", "--r-max", "1.6", "--r-step", "0.05", "--m", "7",
            "--out", str(tmp_path / "sweep.csv")]
    argv[argv.index(flag) + 1] = value
    assert cli_dispatch(argv) == 1
    _assert_one_error(capsys, "DomainError")
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_sweep_bounds_its_cell_count_before_building_the_grid(tmp_path, capsys, monkeypatch):
    # 2e9 + 1 ratios: cli calls range only to build the ratio grid, so a
    # failing range proves that the bound comes first and allocates nothing
    monkeypatch.setattr(cli, "range", lambda *a: pytest.fail("grid built before the bound"),
                        raising=False)
    assert cli_dispatch(["sweep", "--r-min", "1", "--r-max", "3", "--r-step", "1e-9",
                         "--m", "7", "--out", str(tmp_path / "sweep.csv")]) == 1
    _assert_one_error(capsys, "DomainError")
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_sweep_refuses_an_empty_m_list_before_building_the_grid(tmp_path, capsys,
                                                                   monkeypatch):
    # with no frame time the cell count is 0, under the bound, so the 2e9 + 1
    # ratios of this grid would be built
    monkeypatch.setattr(cli, "range", lambda *a: pytest.fail("grid built with no frame time"),
                        raising=False)
    assert cli_dispatch(["sweep", "--r-min", "1", "--r-max", "3", "--r-step", "1e-9",
                         "--m", ",", "--out", str(tmp_path / "sweep.csv")]) == 1
    assert capsys.readouterr().err == "error:DomainError: --m must name at least one frame time\n"


@pytest.mark.parametrize("extra", [0, 1])
def test_cli_sweep_takes_up_to_max_sweep_cells(extra, tmp_path, capsys, monkeypatch):
    grids = []
    monkeypatch.setattr("lissscan.coverage.sweep_designs",
                        lambda r_grid, m_set, **kw: grids.append((len(r_grid), m_set)) or [])
    step = F(1, MAX_SWEEP_CELLS)
    n_ratios = MAX_SWEEP_CELLS // 2 + extra           # two m values: one cell over the cap
    assert cli_dispatch(["sweep", "--r-min", "1", "--r-max", str(1 + (n_ratios - 1) * step),
                         "--r-step", str(step), "--m", "7,8",
                         "--out", str(tmp_path / "sweep.csv")]) == extra
    assert grids == ([] if extra else [(MAX_SWEEP_CELLS // 2, [7, 8])])
    if extra:
        _assert_one_error(capsys, "DomainError")


def test_cli_sweep_counts_a_repeated_frame_time_once(tmp_path, monkeypatch):
    written = []
    for m_list in ("7", "7,7"):
        out = tmp_path / "sweep.csv"
        assert cli_dispatch(["sweep", "--r-min", "1.5", "--r-max", "1.5", "--r-step", "0.1",
                             "--m", m_list, "--grid", "8", "--n-samples", "50",
                             "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1] and len(written[0].splitlines()) == 3
    # the cell bound counts distinct values too: 7,8,7,8 is two frame times
    grids = []
    monkeypatch.setattr("lissscan.coverage.sweep_designs",
                        lambda r_grid, m_set, **kw: grids.append((len(r_grid), m_set)) or [])
    step = F(1, MAX_SWEEP_CELLS)
    assert cli_dispatch(["sweep", "--r-min", "1", "--r-max",
                         str(1 + (MAX_SWEEP_CELLS // 2 - 1) * step), "--r-step", str(step),
                         "--m", "7,8,7,8", "--out", str(tmp_path / "bound.csv")]) == 0
    assert grids == [(MAX_SWEEP_CELLS // 2, [7, 8])]


def test_cli_optimize_with_init_does_not_build_the_cold_start(tmp_path):
    # r = 1, m = 2 collapses the default tone ladder; a warm start never reads it
    scanner, init = tmp_path / "scanner.json", tmp_path / "init.json"
    scanner.write_text(json.dumps({"fx_res": 1.0}))
    warm = initial_params(1, n_tones=3)
    init.write_text(json.dumps(warm.to_dict()))
    out = tmp_path / "params.json"
    roi = Path(__file__).parent / "golden" / "inputs" / "roi_b.pgm"
    assert cli_dispatch(["optimize", "--scanner", str(scanner), "--roi", str(roi),
                         "--tones", "3", "--m", "2", "--init", str(init), "--max-iters", "3",
                         "--n-samples", "200", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["nx"] == list(warm.nx) and payload["m"] == warm.m


def test_cli_optimize_compares_a_warm_start_with_the_reference_of_its_own_m(tmp_path):
    # the reference pattern took --m (default 7), not the m of the --init params
    scanner = _scanner_file(tmp_path, r=2.0)
    roi = Path(__file__).parent / "golden" / "inputs" / "roi_b.pgm"
    argv = ["optimize", "--scanner", str(scanner), "--roi", str(roi), "--max-iters", "3"]
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    assert cli_dispatch(argv + ["--m", "9", "--out", str(cold)]) == 0
    assert cli_dispatch(argv + ["--init", str(cold), "--out", str(warm)]) == 0
    cold, warm = json.loads(cold.read_text()), json.loads(warm.read_text())
    assert warm["m"] == cold["m"] == 9
    assert warm["roi_density_reference"] == cold["roi_density_reference"]


@pytest.mark.parametrize("flag, value", [
    ("--n-samples", "0"), ("--n-samples", "1"), ("--step", "-1"), ("--step", "nan"),
    ("--threshold", "nan"), ("--max-iters", "-1"),
])
def test_cli_optimize_rejects_a_bad_option_before_the_descent(flag, value, tmp_path, capsys,
                                                              monkeypatch):
    _no_descent(monkeypatch)
    assert cli_dispatch(_run("optimize", _cli_inputs(tmp_path)[0], flag, value)) == 1
    _assert_one_error(capsys, "DomainError")
    assert not (tmp_path / "out").exists()


def _no_descent(monkeypatch):
    def no_descent(*args, **kwargs):
        raise AssertionError("the descent ran")
    monkeypatch.setattr("lissscan.modulated.optimize", no_descent)


@pytest.mark.parametrize("flag, value, error", [
    # argparse's choices refused both with exit 2, as no other value flag is refused
    ("--tones", "4", "InvalidParams: n_tones must be one of [3, 5], got 4"),
    ("--constraint", "foo", "DomainError: constraint must be one of ['absolute', 'rms'], "
                            "got 'foo'"),
])
def test_cli_optimize_refuses_a_tone_count_or_constraint_by_the_library_rule(flag, value, error,
                                                                             tmp_path, capsys,
                                                                             monkeypatch):
    _no_descent(monkeypatch)
    assert cli_dispatch(_run("optimize", _cli_inputs(tmp_path)[0], flag, value)) == 1
    assert capsys.readouterr().err == f"error:{error}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scanner, init_m, error", [
    ({"fx_res": 5.0}, None, "resonance ratio must lie in [1, 3], got 5.0"),
    ({"fx_res": 2.0}, 1, "m must be between 2 and 64, got 1"),
])
def test_cli_optimize_refuses_a_reference_it_cannot_build_before_the_descent(
        scanner, init_m, error, tmp_path, capsys, monkeypatch):
    # each ran the whole descent, then refused the reference pattern
    _no_descent(monkeypatch)
    files, records = _cli_inputs(tmp_path)
    argv = _run("optimize", files)
    argv[argv.index("--scanner") + 1] = str(tmp_path / "far.json")
    (tmp_path / "far.json").write_text(json.dumps(scanner))
    if init_m is not None:
        (tmp_path / "init.json").write_text(json.dumps(dict(records["--init"], m=init_m)))
        argv += ["--init", files["init"]]
    assert cli_dispatch(argv) == 1
    assert capsys.readouterr().err == f"error:DomainError: {error}\n"


def _calls_with_defaults(monkeypatch, module, name, **defaults):
    """Give module.name other defaults for the named parameters, and return
    the list that gets the arguments of each call, defaults applied."""
    fn, calls = getattr(module, name), []
    params = inspect.signature(fn).parameters.values()
    monkeypatch.setattr(inspect.unwrap(fn), "__defaults__",     # under an errstate decorator
                        tuple(defaults.get(p.name, p.default) for p in params
                              if p.default is not p.empty))
    signature = inspect.signature(fn)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, spy)
    return calls


def test_cli_optimize_takes_each_absent_flag_from_the_library(tmp_path, monkeypatch,
                                                              with_defaults):
    # the parser restated all eight: a library with other defaults showed none of them
    from lissscan import modulated
    monkeypatch.setattr(modulated, "OptimizeOptions", with_defaults(
        modulated.OptimizeOptions, max_iters=1, step=0.01, threshold=0.2, n_samples=60,
        constraint="absolute"))
    starts = _calls_with_defaults(monkeypatch, modulated, "initial_params", m=9, n_tones=3,
                                  y_single_tone=True)
    solves = _calls_with_defaults(monkeypatch, modulated, "optimize")
    references = _calls_with_defaults(monkeypatch, modulated, "reference_pattern")
    syntheses = _calls_with_defaults(monkeypatch, modulated, "synthesize_modulated")
    files = _cli_inputs(tmp_path)[0]
    assert cli_dispatch(["optimize", "--scanner", files["scanner"], "--roi", files["roi"],
                         "--out", files["out"]]) == 0
    [start], [solve] = starts, solves
    assert (start["m"], start["n_tones"], start["y_single_tone"]) == (9, 3, True)
    opts = solve["opts"]
    assert (opts.max_iters, opts.step, opts.threshold, opts.n_samples, opts.constraint) == (
        1, 0.01, 0.2, 60, "absolute")
    assert [call["n_samples"] for call in references + syntheses] == [60, 60]
    payload = json.loads(Path(files["out"]).read_text())
    assert (payload["m"], len(payload["nx"]), payload["ny"]) == (9, 3, [18])


def test_cli_metrics_and_phase_sim_take_an_absent_frame_and_seed_from_the_library(tmp_path,
                                                                                 monkeypatch):
    from lissscan import coverage, phase
    frames = _calls_with_defaults(monkeypatch, coverage, "sample_unmodulated", frame_index=3)
    seeds = _calls_with_defaults(monkeypatch, phase, "simulate_drift_control", seed=11)
    files = _cli_inputs(tmp_path)[0]
    for command in ("metrics", "phase-sim"):
        argv = _run(command, files)
        flag = argv.index("--frame" if command == "metrics" else "--seed")
        assert cli_dispatch(argv[:flag] + argv[flag + 2:]) == 0
    assert [call["frame_index"] for call in frames] == [3]
    assert [call["seed"] for call in seeds] == [11]


def test_cli_restates_no_library_default_or_allowed_set():
    # every other flag is absent from args when not given, so the library's default applies
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = [(command, action) for command, p in sub.choices.items() for action in p._actions]
    assert not [(command, action.dest) for command, action in actions if action.choices]
    assert {(command, action.dest): action.default for command, action in actions
            if action.default not in (None, argparse.SUPPRESS)} == {
        ("design", "baseline"): False,        # a switch between the two rules
        ("metrics", "n_samples"): N_SAMPLES_DEFAULT, ("metrics", "grid"): N_GRID_DEFAULT,
        ("sweep", "n_samples"): N_SAMPLES_DEFAULT, ("sweep", "grid"): N_GRID_DEFAULT}


_FLAG_VALUES = st.one_of(
    st.integers(-3, 40).map(str), st.floats(-3, 40).map(repr),
    st.sampled_from(["", " ", "abc", "nan", "inf", "-inf", "1e400", "1e300", "-1e300", "1e-300",
                     "5e-324", "1/3", "1/0", "0x10", "-0", "1e-9", "1e9", "7,7", "7,,8", "9" * 25,
                     "9" * 400, "-" + "9" * 400, str(MAX_GRID + 1), str(MAX_SAMPLES + 1),
                     str(MAX_ITERS + 1)]))


@pytest.mark.parametrize("command, flag, value", [
    ("metrics", "--grid", MAX_GRID + 1), ("metrics", "--n-samples", MAX_SAMPLES + 1),
    ("sweep", "--grid", MAX_GRID + 1), ("sweep", "--n-samples", MAX_SAMPLES + 1),
    ("optimize", "--n-samples", MAX_SAMPLES + 1), ("optimize", "--max-iters", MAX_ITERS + 1),
])
def test_cli_sizing_flags_are_bounded_before_any_input_is_read(command, flag, value, tmp_path,
                                                               capsys, monkeypatch):
    argv = _run(command, _cli_inputs(tmp_path)[0], flag, str(value))

    def refused_first(*args, **kwargs):
        raise AssertionError("an input was read or an array allocated before the bound")
    monkeypatch.setattr("lissscan.io.read_json", refused_first)
    monkeypatch.setattr(np, "arange", refused_first)
    assert cli_dispatch(argv) == 1
    _assert_one_error(capsys, "DomainError")
    assert not (tmp_path / "out").exists()


def test_cli_absolute_constraint_projects_a_step_of_1e300(tmp_path, capsys):
    # printed an IndexError traceback, then refused the tone magnitudes as too
    # large to project; each candidate now puts the whole budget on its largest tone
    argv = _run("optimize-absolute", _cli_inputs(tmp_path)[0], "--step", "1e300")
    assert cli_dispatch(argv) == 0
    assert capsys.readouterr().err == ""
    params = ModulatedParams.from_dict(json.loads((tmp_path / "out").read_text()))
    for cos_c, sin_c in ((params.alpha, params.gamma), (params.beta, params.delta)):
        assert np.hypot(cos_c, sin_c).sum() <= 1.0 + FEASIBILITY_SLACK


@pytest.mark.parametrize("duration", ["inf", "nan", "1e400"])
def test_cli_phase_sim_rejects_a_non_finite_duration(duration, tmp_path, capsys):
    argv = _run("phase-sim", _cli_inputs(tmp_path)[0], "--duration", duration)
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
            code = cli_dispatch(_run(_READER[flag], files, flag, str(path)))
        err = err.getvalue()
        assert code in (0, 1, 2), code
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert "Traceback" not in err
            assert not caught, [str(w.message) for w in caught]    # would print on stderr
            if whole is not None and whole != "{}":
                assert err.startswith(f"error:{_READER_ERROR[flag]}:"), err


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["design", "metrics", "optimize", "optimize-absolute",
                                "phase-sim", "sweep"]),
       edits=st.lists(st.tuples(st.integers(0, 5), _FLAG_VALUES), min_size=1, max_size=2,
                      unique_by=lambda edit: edit[0]))
# the absolute projection indexed an empty array for a step this large, then refused it
@example(command="optimize-absolute", edits=[(0, "1e300")])
def test_cli_flags_end_in_one_of_three_states(command, edits):
    """Exit 0, exit 2, or exit 1 with exactly one error: line and no traceback.
    Each edit sets the command's flag at its index (modulo the flag count)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        argv, flags = _run(command, _cli_inputs(tmp_path)[0]), _RUNS[command][1].split()
        for index, value in edits:
            argv[argv.index(flags[index % len(flags)]) + 1] = value
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_dispatch(argv)
        err = err.getvalue()
        assert code in (0, 1, 2), code
        assert not caught, [str(w.message) for w in caught]     # would print on stderr
        if code == 1:
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert "Traceback" not in err
