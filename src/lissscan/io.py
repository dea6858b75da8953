"""File ingestion and export: weight maps, scanner configs, designs, and
the writers every output file goes through (a failed write is a DomainError).

Weight maps come from 8-bit PGM images (P2 ASCII or P5 binary) or from
CSV grids; image row 0 is the top of the field of view (y = +1) and
column 0 the left edge (x = -1).
"""

from __future__ import annotations

import csv
import json
import math
import re
import warnings
from io import StringIO
from pathlib import Path
from typing import TYPE_CHECKING

from .design import UnmodulatedDesign
from .errors import ConfigError, DomainError, LissscanError, WeightMapError, value_text
from .scanner import ScannerConfig

if TYPE_CHECKING:      # numpy and the modules that need it load in the readers below
    import numpy as np
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
    except (OSError, ValueError) as exc:    # ValueError: a null byte in the path
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


def _pgm_int(token: bytes) -> int:
    """A PGM integer: ASCII decimal digits only (int() takes a sign and "_" too)."""
    if not token.isdigit():
        raise ValueError("not a PGM integer")
    return int(token)


def _read_pgm(path: Path) -> np.ndarray:
    import numpy as np
    data = path.read_bytes()
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic not in (b"P2", b"P5"):
            raise WeightMapError(f"{path}: not a PGM file (magic {value_text(magic)})")
        (w_tok, _), (h_tok, _), (max_tok, end) = next(tokens), next(tokens), next(tokens)
        width, height, maxval = map(_pgm_int, (w_tok, h_tok, max_tok))
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
            values = np.array([_pgm_int(tok) for tok, _ in tokens], dtype=np.float64)[:n]
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
        with warnings.catch_warnings():     # an empty file is refused below, not warned of
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            grid = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise WeightMapError(f"{path}: could not parse CSV grid: {exc}") from exc
    if grid.size == 0:
        raise WeightMapError(f"{path}: CSV grid holds no data")
    peak = grid.max()
    return grid / peak if 1.0 < peak < math.inf else grid


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
    # image row 0 = top of FoV; internal layout is w[ix, iy] with y ascending
    try:
        return WeightMap(image[::-1].T)
    except DomainError as exc:
        raise WeightMapError(f"{path}: {exc}") from exc


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
