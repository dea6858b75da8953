"""Golden CLI outputs: every case in tests/golden/manifest.json must write
exactly the files recorded next to it.

A case is an argv (with ``{in}`` standing for tests/golden/inputs and
``{out}`` for a fresh output directory) plus optional environment
variables. Its expected files live in tests/golden/<case>/, with stdout
stored as ``stdout``. Rewriting a golden file is an output change:
``PYTHONPATH=src python tests/test_golden.py`` re-records every case and
the manifest's ``recorded_with`` versions.
"""

import contextlib
import difflib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run_case(case: dict, out: Path) -> dict[str, bytes]:
    """Run one case through cli_dispatch; return {file name: bytes}, stdout included."""
    from lissscan.cli import cli_dispatch
    argv = [arg.replace("{in}", str(GOLDEN / "inputs")).replace("{out}", str(out))
            for arg in case["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        for key, value in case.get("env", {}).items():
            stack.enter_context(_env(key, value))
        stack.enter_context(contextlib.redirect_stdout(stdout))
        stack.enter_context(contextlib.redirect_stderr(stderr))
        code = cli_dispatch(argv)
    assert (code, stderr.getvalue()) == (0, ""), f"{case['name']}: {stderr.getvalue()}"
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    if stdout.getvalue():
        files["stdout"] = stdout.getvalue().encode()
    return files


@contextlib.contextmanager
def _env(key: str, value: str):
    old = os.environ.get(key)
    os.environ[key] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[key]
        else:
            os.environ[key] = old


def _diff(name: str, want: bytes, got: bytes) -> str:
    lines = difflib.unified_diff(want.decode().splitlines(keepends=True),
                                 got.decode().splitlines(keepends=True),
                                 fromfile=f"golden/{name}", tofile=f"output/{name}")
    return "".join(lines) or f"{name}: bytes differ only in line endings"


@pytest.mark.parametrize("case", MANIFEST["cases"], ids=[c["name"] for c in MANIFEST["cases"]])
def test_cli_output_matches_golden(case, tmp_path):
    got = run_case(case, tmp_path)
    expected_dir = GOLDEN / case["name"]
    want = {path.name: path.read_bytes() for path in sorted(expected_dir.iterdir())}
    assert sorted(got) == sorted(want), f"{case['name']}: wrote {sorted(got)}, want {sorted(want)}"
    diffs = [_diff(name, want[name], got[name]) for name in want if got[name] != want[name]]
    assert not diffs, (f"{case['name']} differs from the files recorded with "
                       f"{MANIFEST['recorded_with']}:\n" + "\n".join(diffs))


if __name__ == "__main__":   # re-record every case
    import platform
    import shutil
    import tempfile

    import numpy
    import scipy
    for case in MANIFEST["cases"]:
        target = GOLDEN / case["name"]
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir()
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in run_case(case, Path(tmp)).items():
                (target / name).write_bytes(data)
    MANIFEST["recorded_with"] = {"python": platform.python_version(),
                                 "numpy": numpy.__version__, "scipy": scipy.__version__}
    (GOLDEN / "manifest.json").write_text(json.dumps(MANIFEST, indent=2) + "\n")
    print(f"recorded {len(MANIFEST['cases'])} cases", file=sys.stderr)
