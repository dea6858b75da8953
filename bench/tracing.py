"""In-memory spans around calls into lissscan's public functions.

The benchmark does not change the package: it swaps each traced function
for a wrapper in every ``lissscan`` module namespace that holds it, so calls
between modules (``coverage`` calling ``design``, ``cli`` calling ``io``) are
traced too. A span is ``(name, start, end, parent, run_id)``; ``parent`` is
the index of the enclosing span or ``None``, ``run_id`` the measured round.
Spans stay in a list until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from contextlib import contextmanager

# (span name, module, attribute). The optimizer calls the private helpers
# directly, so objective and gradient time is taken at _assign and
# _gradient_fixed; the projections are reached through _PROJECTIONS.
TRACED = [
    ("design.rule", "design", "design_unmodulated"),
    ("design.rule", "design", "baseline_repeating_design"),
    ("scanner.transfer_amplitude", "scanner", "transfer_amplitude"),
    ("coverage.sample", "coverage", "sample_unmodulated"),
    ("coverage.fill_factor", "coverage", "fill_factor"),
    ("coverage.sweep", "coverage", "sweep_designs"),
    ("coverage.phase_tolerance", "coverage", "phase_tolerance_sweep"),
    ("modulated.optimize", "modulated", "optimize"),
    ("modulated.objective", "modulated", "_assign"),
    ("modulated.gradient", "modulated", "_gradient_fixed"),
    ("modulated.synthesize", "modulated", "synthesize_modulated"),
    ("modulated.project", "modulated", "project_rms"),
    ("modulated.project", "modulated", "project_absolute"),
    ("phase.drift_sim", "phase", "simulate_drift_control"),
    ("phase.offset_solve", "phase", "resonance_offset_for_phase_shift"),
    ("phase.solve_multitone", "phase", "solve_multitone"),
    ("io.load_weight_map", "io", "load_weight_map"),
    ("io.load_design", "io", "load_design"),
    ("io.load_scanner", "io", "load_scanner"),
]


class Tracer:
    """Span recorder plus the per-call facts the layer metrics need."""

    def __init__(self) -> None:
        self.spans: list = []
        self.run_id = 0
        self._stack: list[int] = []
        # pattern -> geometry key, so fill_factor calls can be grouped by the
        # (fx, phix, m, ...) they sample, whatever the amplitudes
        self.geometry = weakref.WeakKeyDictionary()
        self.fill_keys: list = []        # (run_id, geometry key or None)
        self.iterations: list = []       # (run_id, OptimizeResult.iterations)

    @contextmanager
    def span(self, name: str):
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[index] = (name, start, end, parent, self.run_id)

    def wrap(self, name: str, fn, after=None):
        """fn with a span around every call; after(args, kwargs, result)
        runs inside the span once fn has returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                self._close(index, name, start)

        return traced


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans nest (one thread, stack discipline), so children of one parent
    never overlap and their durations add up.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, run_id in spans:
        if parent is not None:
            child_time[parent] += end - start
    return [end - start - child_time[i] for i, (_, start, end, _, _) in enumerate(spans)]


def instrument(tracer: Tracer, package) -> None:
    """Swap every traced function for its wrapper, for the rest of this
    process's life (a round's own process)."""
    wrappers = {}
    for name, module_name, attr in TRACED:
        fn = getattr(getattr(package, module_name), attr)
        hook = _AFTER.get(attr)
        wrappers[fn] = tracer.wrap(name, fn, hook(tracer, fn) if hook else None)
    for key, module in list(sys.modules.items()):
        if key == package.__name__ or key.startswith(package.__name__ + "."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
    projections = package.modulated._PROJECTIONS
    for key, fn in list(projections.items()):
        projections[key] = wrappers[fn]


def _sample_hook(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    def after(args, kwargs, pattern):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        d = a["design"]
        tracer.geometry[pattern] = (d.fx, d.phix, d.m, d.fy, d.phiy,
                                    a["frame_index"], a["n_samples"])
    return after


def _fill_hook(tracer: Tracer, fn):
    signature = inspect.signature(fn)

    def after(args, kwargs, report):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        geometry = tracer.geometry.get(bound.arguments["pattern"])
        key = None if geometry is None else geometry + (bound.arguments["n_grid"],)
        tracer.fill_keys.append((tracer.run_id, key))
    return after


def _optimize_hook(tracer: Tracer, fn):
    def after(args, kwargs, result):
        tracer.iterations.append((tracer.run_id, result.iterations))
    return after


_AFTER = {
    "sample_unmodulated": _sample_hook,
    "fill_factor": _fill_hook,
    "optimize": _optimize_hook,
}
