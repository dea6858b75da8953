"""File ingestion and export: weight maps, scanner configs, designs, the
reader every input file goes through and the writers every output file goes
through (a failed write is a DomainError).

Weight maps come from 8-bit PGM images (P2 ASCII or P5 binary) or from
CSV grids; image row 0 is the top of the field of view (y = +1) and
column 0 the left edge (x = -1).
"""

from __future__ import annotations

import csv
import json
import math
import os
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
    """The one way a path argument becomes a Path: a non-empty str or os.PathLike of str."""
    text = os.fspath(path) if isinstance(path, os.PathLike) else path
    if isinstance(text, str) and text:
        return Path(text)
    if path is None or isinstance(text, str):
        raise DomainError("path must be non-empty")
    raise DomainError(f"path must be a str or an os.PathLike of str, got {value_text(path)}")


# an error line holds one path, a short reason and at most one value_text (under
# 100 characters), so a path shown up to this length keeps it under 1,000
_PATH_SHOWN = 400


def path_text(path) -> str:
    """The one way a message shows a path: as it is, or by value_text."""
    text = str(path)
    return text if len(text) <= _PATH_SHOWN and text.isprintable() else value_text(text)


def _read(path: Path, error: type[LissscanError]) -> bytes:
    """The bytes of the regular file at path; otherwise error "<path>: <reason>",
    unread, as a FIFO's read blocks and /dev/zero's never ends. An OSError is
    shown by its strerror, as its text repeats the path."""
    try:
        if path.is_file():
            return path.read_bytes()
        reason = "not a regular file" if path.exists() else "no such file"
    except OSError as exc:      # pathlib's probes answer False for a null byte
        raise error(f"{path_text(path)}: {exc.strerror}") from exc
    raise error(f"{path_text(path)}: {reason}")


def _finite(text: str, convert=float):
    """JSON number hook: NaN, Infinity and numbers that overflow a float are errors."""
    if not math.isfinite(float(text)):
        raise ValueError(f"{value_text(text)} is not a finite number")
    return convert(text)


def read_json(path, error: type[LissscanError]) -> dict:
    """The JSON object in a file. A file that cannot be read, is not JSON,
    holds NaN, Infinity or a number that overflows a float, or is not a
    single object raises error."""
    path = _require_path(path)
    raw = _read(path, error)
    try:
        data = json.loads(raw.decode(), parse_float=_finite, parse_constant=_finite,
                          parse_int=lambda text: _finite(text, int))
    except (ValueError, RecursionError) as exc:    # JSON and UTF-8 errors are ValueErrors
        raise error(f"could not read JSON from {path_text(path)}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(f"{path_text(path)}: expected a JSON object, got {type(data).__name__}")
    return data


# -------------------------------------------------------------------- writers

def check_out_paths(*paths) -> None:
    """Fail before any computing when an output path cannot be a file; None is skipped."""
    for path in (_require_path(path) for path in paths if path is not None):
        try:
            fits = not path.is_dir() and path.parent.is_dir()
        except OSError as exc:      # a name too long, for one
            raise DomainError(f"could not write {path_text(path)}: {exc.strerror}") from exc
        if not fits:
            raise DomainError(f"could not write {path_text(path)}: "
                              "not a file in an existing directory")


def write_text(path, text: str) -> Path:
    """Write text to path as is (no newline translation)."""
    path = _require_path(path)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:    # ValueError: a null byte in the path
        reason = getattr(exc, "strerror", exc)
        raise DomainError(f"could not write {path_text(path)}: {reason}") from exc
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


def _read_pgm(data: bytes) -> np.ndarray:
    """PGM samples over maxval; any past width x height are dropped."""
    import numpy as np
    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic not in (b"P2", b"P5"):
            raise DomainError(f"not a PGM file (magic {value_text(magic)})")
        (w_tok, _), (h_tok, _), (max_tok, end) = next(tokens), next(tokens), next(tokens)
        width, height, maxval = map(_pgm_int, (w_tok, h_tok, max_tok))
    except (StopIteration, ValueError) as exc:
        raise DomainError("truncated or malformed PGM header") from exc
    if not 1 <= maxval <= 255:
        raise DomainError(f"only 8-bit PGM supported, maxval {value_text(maxval)}")
    if width < 1 or height < 1:
        raise DomainError(f"bad dimensions {value_text(width)}x{value_text(height)}")
    n = width * height
    if magic == b"P5":
        values = np.frombuffer(data[end + 1:end + 1 + n], dtype=np.uint8).astype(np.float64)
    else:
        try:
            values = np.array([_pgm_int(tok) for tok, _ in tokens], dtype=np.float64)[:n]
        except ValueError as exc:
            raise DomainError("non-integer sample in P2 raster") from exc
    if len(values) < n:
        raise DomainError(f"raster shorter than {value_text(width)}x{value_text(height)}")
    if values.max(initial=0.0) > maxval:
        raise DomainError(f"sample exceeds declared maxval {maxval}")
    return values.reshape(height, width) / maxval


def _read_csv_grid(data: bytes) -> np.ndarray:
    import numpy as np
    try:
        with warnings.catch_warnings():     # an empty file is refused below, not warned of
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            text = StringIO(data.decode(), newline=None)     # newlines as a text file reads them
            grid = np.loadtxt(text, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:
        raise DomainError(f"could not parse CSV grid: {exc}") from exc
    if grid.size == 0:
        raise DomainError("CSV grid holds no data")
    peak = grid.max()
    return grid / peak if 1.0 < peak < math.inf else grid


def load_weight_map(path) -> WeightMap:
    """Square weight map from a PGM image or CSV grid, values in [0, 1]."""
    from .modulated import WeightMap
    path = _require_path(path)
    data = _read(path, WeightMapError)
    try:
        image = _read_pgm(data) if path.suffix.lower() == ".pgm" else _read_csv_grid(data)
        # image row 0 = top of FoV; internal layout is w[ix, iy] with y ascending
        return WeightMap(image[::-1].T)
    except DomainError as exc:
        raise WeightMapError(f"{path_text(path)}: {exc}") from exc


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
