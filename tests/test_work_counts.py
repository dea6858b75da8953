"""Work budgets: deterministic counts of the work fill_factor does on fixed
inputs, each at most the value recorded in tests/work_counts.json.

A fault that costs only time, such as a bound that prunes less, passes every
correctness test, and a wall-time gate cannot see it through the host's
noise. A count can. A change that lowers a count records the new value; one
that raises a count is a regression it has to name.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lissscan import (ScannerConfig, coverage, design_unmodulated, phase_tolerance_sweep,
                      sweep_designs)

RECORDED = json.loads((Path(__file__).resolve().parent / "work_counts.json").read_text())


@pytest.fixture
def fill_factor_work(monkeypatch):
    """Candidates passed to the exact search and column passes, summed over
    the fill_factor calls made while the fixture is active."""
    work = {"candidates": 0, "column_passes": 0}
    nearest_squared, column_bound = coverage._nearest_squared, coverage._column_bound

    def counting_search(x, y, cx, cy, reach):
        work["candidates"] += len(cx)
        return nearest_squared(x, y, cx, cy, reach)

    def counting_pass(squared):
        work["column_passes"] += 1
        return column_bound(squared)
    monkeypatch.setattr(coverage, "_nearest_squared", counting_search)
    monkeypatch.setattr(coverage, "_column_bound", counting_pass)
    return work


def test_fill_factor_work_on_the_acceptance_sweep(fill_factor_work):
    # the 126 distinct geometries of 41 ratios x m in 6..9, at (1,000, 128)
    ratios = [Fraction(100 + 5 * i, 100) for i in range(41)]
    assert all(row.status == "ok" for row in sweep_designs(ratios, [6, 7, 8, 9]))
    budget = RECORDED["fill_factor"]["acceptance_sweep"]
    assert fill_factor_work["candidates"] <= budget["candidates"]
    assert fill_factor_work["column_passes"] <= budget["column_passes"]


def test_fill_factor_work_on_phase_shifted_designs(fill_factor_work):
    # 12 designs drawn as the phase-tolerance benchmark draws them (seed
    # 7001), each at 40 x-phase offsets in [0, 40) degrees: 480 patterns
    rng = np.random.default_rng(7001)
    for _ in range(12):
        r = Fraction(int(rng.integers(100, 301)), 100)
        m = int(rng.integers(6, 10))
        deltas = np.unique(np.radians(rng.uniform(0.0, 40.0, 40)))
        fills = phase_tolerance_sweep(design_unmodulated(r, m), ScannerConfig.normalized(float(r)),
                                      deltas)
        assert all(math.isfinite(fill) for _, fill in fills)
    budget = RECORDED["fill_factor"]["phase_shifted"]
    assert fill_factor_work["candidates"] <= budget["candidates"]
    assert fill_factor_work["column_passes"] <= budget["column_passes"]
