"""File ingestion and export: weight maps, patterns, scanner configs, and
the writers every output file goes through (a failed write is a DomainError).

Weight maps come from 8-bit PGM images (P2 ASCII or P5 binary) or from
CSV grids; image row 0 is the top of the field of view (y = +1) and
column 0 the left edge (x = -1). Patterns export to CSV (t, x, y with 12
significant digits) or JSON (full precision, all fields).
"""

from __future__ import annotations

import csv
import json
import math
import re
from io import StringIO
from pathlib import Path
from typing import TYPE_CHECKING

from .design import UnmodulatedDesign
from .errors import (ConfigError, DomainError, LissscanError, WeightMapError, record_errors,
                     record_value, value_text)
from .scanner import ScannerConfig

if TYPE_CHECKING:      # numpy and the modules that need it load in the readers below
    import numpy as np
    from .coverage import SampledPattern
    from .modulated import WeightMap


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


# -------------------------------------------------------------------- writers

def check_out_paths(*paths: str | None) -> None:
    """Fail before any computing when an output path cannot be a file."""
    for path in paths:
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise DomainError(f"could not write {path}: not a file in an existing directory")


def write_text(path, text: str) -> Path:
    """Write text to path as is (no newline translation)."""
    path = _require_path(path)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"could not write {path}: {exc}") from exc
    return path


def json_text(payload: dict) -> str:
    """JSON output text: two-space indentation, sorted keys, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_csv(path, header: list[str], rows) -> Path:
    """Write a header and rows as CSV (the csv module's \\r\\n line ends). Fields
    go in as given: a number as str(), for a float (numpy's float64 too) its
    shortest round-trip repr, and None as an empty field."""
    buf = StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return write_text(path, buf.getvalue())


# ---------------------------------------------------------------- weight maps

# one header token: the whitespace and # comments before it, then a run of
# non-space bytes (a # inside it included); the group is empty only at the end
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _pgm_tokens(data: bytes):
    """Header tokens of a PGM file, each with the offset just past it."""
    return ((m[1], m.end()) for m in _PGM_TOKEN.finditer(data) if m[1])


def _read_pgm(path: Path) -> np.ndarray:
    import numpy as np
    data = path.read_bytes()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic not in (b"P2", b"P5"):
            raise WeightMapError(f"{path}: not a PGM file (magic {value_text(magic)})")
        (w_tok, _), (h_tok, _), (max_tok, end) = next(tokens), next(tokens), next(tokens)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (StopIteration, ValueError) as exc:
        raise WeightMapError(f"{path}: truncated or malformed PGM header") from exc
    if not 1 <= maxval <= 255:
        raise WeightMapError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    if width < 1 or height < 1:
        raise WeightMapError(f"{path}: bad dimensions {width}x{height}")
    n = width * height
    if magic == b"P5":
        values = np.frombuffer(data[end + 1:end + 1 + n], dtype=np.uint8).astype(np.float64)
    else:
        try:
            values = np.array([int(tok) for tok, _ in tokens], dtype=np.float64)[:n]
        except ValueError as exc:
            raise WeightMapError(f"{path}: non-integer sample in P2 raster") from exc
    if len(values) < n:
        raise WeightMapError(f"{path}: raster shorter than {width}x{height}")
    if values.max(initial=0.0) > maxval:
        raise WeightMapError(f"{path}: sample exceeds declared maxval {maxval}")
    return values.reshape(height, width) / maxval


def _read_csv_grid(path: Path) -> np.ndarray:
    import numpy as np
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
    from .modulated import WeightMap
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
    return WeightMap(image[::-1].T.copy())


# ------------------------------------------------------------------- patterns

def _pattern_format(path) -> tuple[Path, str]:
    path = _require_path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt not in ("csv", "json"):
        raise DomainError(f"unsupported pattern format {fmt!r} (use csv or json)")
    return path, fmt


def export_pattern(pattern: SampledPattern, path) -> Path:
    """Write a pattern to CSV (t, x, y) or JSON (all fields), by the path's
    suffix."""
    path, fmt = _pattern_format(path)
    if fmt == "csv":
        return write_csv(path, ["t", "x", "y"],
                         ([f"{t:.12g}", f"{x:.12g}", f"{y:.12g}"]
                          for t, x, y in zip(pattern.t, pattern.x, pattern.y)))
    payload = {"t": pattern.t.tolist(), "x": pattern.x.tolist(), "y": pattern.y.tolist(),
               "frame_len": pattern.frame_len, "frames": pattern.frames}
    return write_text(path, json_text(payload))


def import_pattern(path) -> SampledPattern:
    """Read a pattern written by export_pattern, by the path's suffix. CSV
    carries no frame bookkeeping, so frame_len falls back to the covered
    time span."""
    import numpy as np
    from .coverage import SampledPattern
    path, fmt = _pattern_format(path)
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
    data = read_json(path, DomainError)
    with record_errors(f"pattern record {path}", DomainError):
        t, x, y = ([record_value(v, key) for v in data[key]] for key in ("t", "x", "y"))
        return SampledPattern(t=t, x=x, y=y, frame_len=record_value(data["frame_len"], "frame_len"),
                              frames=record_value(data["frames"], "frames", int))


# ------------------------------------------------------- configs and designs

def load_scanner(path) -> ScannerConfig:
    """Scanner config from a JSON file (see docs/formats.md); ConfigError if malformed."""
    return ScannerConfig.from_dict(read_json(path, ConfigError))


def save_scanner(config: ScannerConfig, path) -> Path:
    """Write a scanner config as JSON; returns the path written."""
    return write_text(path, json_text(config.to_dict()))


def load_design(path) -> UnmodulatedDesign:
    """Design record from a JSON file (see docs/formats.md); DomainError if malformed."""
    return UnmodulatedDesign.from_dict(read_json(path, DomainError))


def save_design(design: UnmodulatedDesign, path) -> Path:
    """Write a design record as JSON; returns the path written."""
    return write_text(path, json_text(design.to_dict()))
