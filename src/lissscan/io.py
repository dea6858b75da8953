"""File ingestion and export: weight maps, patterns, scanner configs.

Weight maps come from 8-bit PGM images (P2 ASCII or P5 binary) or from
CSV grids; image row 0 is the top of the field of view (y = +1) and
column 0 the left edge (x = -1). Patterns export to CSV (t, x, y with 12
significant digits) or JSON (full precision, all fields).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .coverage import SampledPattern
from .design import UnmodulatedDesign
from .errors import ConfigError, DomainError, LissscanError, WeightMapError, field_message
from .modulated import WeightMap
from .scanner import ScannerConfig


def _require_path(path) -> Path:
    if path is None or str(path) == "":
        raise DomainError("path must be non-empty")
    return Path(path)


def _finite(text: str, convert=float):
    """JSON number hook: NaN, Infinity and numbers that overflow a float are errors."""
    if not math.isfinite(float(text)):
        raise ValueError(f"{text[:24]} is not a finite number")
    return convert(text)


def read_json(path, error: type[LissscanError]) -> dict:
    """The JSON object in a file. A file that cannot be read, is not JSON,
    holds NaN, Infinity or a number that overflows a float, or is not a
    single object raises error."""
    path = _require_path(path)
    try:
        data = json.loads(path.read_text(), parse_float=_finite, parse_constant=_finite,
                          parse_int=lambda text: _finite(text, int))
    except (OSError, ValueError, RecursionError) as exc:    # JSON errors are ValueErrors
        raise error(f"could not read JSON from {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data


# ---------------------------------------------------------------- weight maps

def _pgm_tokens(data: bytes):
    """Header tokens of a PGM file, skipping whitespace and # comments."""
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


def _read_pgm(path: Path) -> np.ndarray:
    data = path.read_bytes()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic not in (b"P2", b"P5"):
            raise WeightMapError(f"{path}: not a PGM file (magic {magic!r})")
        (w_tok, _), (h_tok, _), (max_tok, end) = next(tokens), next(tokens), next(tokens)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (StopIteration, ValueError) as exc:
        raise WeightMapError(f"{path}: truncated or malformed PGM header") from exc
    if not 1 <= maxval <= 255:
        raise WeightMapError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    if width < 1 or height < 1:
        raise WeightMapError(f"{path}: bad dimensions {width}x{height}")
    if magic == b"P5":
        raster = data[end + 1:end + 1 + width * height]
        if len(raster) < width * height:
            raise WeightMapError(f"{path}: raster shorter than {width}x{height}")
        values = np.frombuffer(raster, dtype=np.uint8).astype(np.float64)
    else:
        try:
            values = np.array([int(tok) for tok, _ in tokens], dtype=np.float64)
        except ValueError as exc:
            raise WeightMapError(f"{path}: non-integer sample in P2 raster") from exc
        if len(values) < width * height:
            raise WeightMapError(f"{path}: raster shorter than {width}x{height}")
        values = values[:width * height]
    if values.max(initial=0.0) > maxval:
        raise WeightMapError(f"{path}: sample exceeds declared maxval {maxval}")
    return values.reshape(height, width) / maxval


def _read_csv_grid(path: Path) -> np.ndarray:
    try:
        grid = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise WeightMapError(f"{path}: could not parse CSV grid: {exc}") from exc
    if np.any(~np.isfinite(grid)) or np.any(grid < 0):
        raise WeightMapError(f"{path}: weights must be finite and non-negative")
    peak = grid.max(initial=0.0)
    return grid / peak if peak > 1.0 else grid


def load_weight_map(path) -> WeightMap:
    """Square weight map from a PGM image or CSV grid, values in [0, 1]."""
    path = _require_path(path)
    if not path.is_file():
        raise WeightMapError(f"{path}: no such file")
    if path.suffix.lower() == ".pgm":
        image = _read_pgm(path)
    else:
        image = _read_csv_grid(path)
    if image.shape[0] != image.shape[1]:
        raise WeightMapError(f"{path}: weight map must be square, got {image.shape}")
    # image row 0 = top of FoV; internal layout is w[ix, iy] with y ascending
    return WeightMap(np.flipud(image).T.copy())


# ------------------------------------------------------------------- patterns

def export_pattern(pattern: SampledPattern, path, fmt: str | None = None) -> Path:
    """Write a pattern to CSV (t, x, y) or JSON (all fields). fmt defaults to
    the path suffix."""
    path = _require_path(path)
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y"])
            for t, x, y in zip(pattern.t, pattern.x, pattern.y):
                writer.writerow([f"{t:.12g}", f"{x:.12g}", f"{y:.12g}"])
    elif fmt == "json":
        payload = {"t": pattern.t.tolist(), "x": pattern.x.tolist(), "y": pattern.y.tolist(),
                   "frame_len": pattern.frame_len, "frames": pattern.frames}
        path.write_text(json.dumps(payload, indent=2) + "\n")
    else:
        raise DomainError(f"unsupported pattern format {fmt!r} (use csv or json)")
    return path


def import_pattern(path, fmt: str | None = None) -> SampledPattern:
    """Read a pattern written by export_pattern. CSV carries no frame
    bookkeeping, so frame_len falls back to the covered time span."""
    path = _require_path(path)
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt == "csv":
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=np.float64)
        except (OSError, ValueError) as exc:
            raise DomainError(f"could not read {path}: {exc}") from exc
        if rows.shape[0] < 2 or rows.shape[1] != 3:
            raise DomainError(f"{path}: expected 3 CSV columns and 2 rows, got {rows.shape}")
        t = rows[:, 0]
        span = (t[-1] - t[0]) + (t[1] - t[0])
        return SampledPattern(t=t, x=rows[:, 1], y=rows[:, 2], frame_len=span, frames=1)
    if fmt == "json":
        data = read_json(path, DomainError)
        try:
            return SampledPattern(t=data["t"], x=data["x"], y=data["y"],
                                  frame_len=data["frame_len"], frames=data["frames"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(field_message(f"pattern record {path}", exc)) from exc
    raise DomainError(f"unsupported pattern format {fmt!r} (use csv or json)")


# ------------------------------------------------------- configs and designs

def load_scanner(path) -> ScannerConfig:
    return ScannerConfig.from_dict(read_json(path, ConfigError))


def save_scanner(config: ScannerConfig, path) -> Path:
    path = _require_path(path)
    path.write_text(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def load_design(path) -> UnmodulatedDesign:
    return UnmodulatedDesign.from_dict(read_json(path, DomainError))


def save_design(design: UnmodulatedDesign, path) -> Path:
    path = _require_path(path)
    path.write_text(json.dumps(design.to_dict(), indent=2, sort_keys=True) + "\n")
    return path
