"""The benchmark's tracer finds the package's functions by name.

bench/tracing.py wraps each (module, attribute) in its TRACED list, swaps
the projections in modulated._PROJECTIONS for their wrappers, and binds the
arguments of sample_unmodulated and fill_factor by name. A renamed function
or argument would not fail the benchmark: its per-layer metric would read 0.
These tests read the tracer's names (the module imports only the standard
library) and check each against the package, changing nothing in either.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from lissscan import coverage, modulated

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    """bench/tracing.py as a module, loaded without writing bytecode into bench/."""
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


tracing = _tracing()


@pytest.mark.parametrize("span, module, attr", tracing.TRACED,
                         ids=[f"{module}.{attr}" for _, module, attr in tracing.TRACED])
def test_every_traced_name_resolves_on_the_package(span, module, attr):
    assert callable(getattr(importlib.import_module(f"lissscan.{module}"), attr, None)), \
        f"{span}: lissscan.{module} has no function {attr}"


def test_the_projections_are_the_traced_functions():
    assert modulated._PROJECTIONS == {"rms": modulated.project_rms,
                                      "absolute": modulated.project_absolute}
    traced = {(module, attr) for _, module, attr in tracing.TRACED}
    assert {("modulated", "project_rms"), ("modulated", "project_absolute")} <= traced


def test_the_hooks_bind_arguments_that_exist():
    traced = {attr for _, _, attr in tracing.TRACED}
    assert set(tracing._AFTER) <= traced
    assert {"design", "frame_index", "n_samples"} <= set(
        inspect.signature(coverage.sample_unmodulated).parameters)
    assert {"pattern", "n_grid"} <= set(inspect.signature(coverage.fill_factor).parameters)
