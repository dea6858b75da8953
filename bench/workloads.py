"""The four benchmark workloads.

Each workload draws its inputs from the seed when it is built, as one or more
input sets, and runs one closed-loop round of requests on one set at a time:
one client, the next request starting when the previous one has returned. A
request is one public lissscan call or one CLI command; its wall time and its
units of work go to the Recorder, with the calibration kernel's time around
it, and every output is checked. run.py runs each round in a fresh process.
See README.md for why each workload exists.
"""

from __future__ import annotations

import csv
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

import lissscan
from lissscan import cli, coverage, design, modulated, scanner

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
REFERENCE = BENCH_DIR / "reference.json"

# Outputs recorded at the seed commit may move by a few ulp under a change
# that reorders float work (a fill-factor memo moves 5 sweep cells by 1 ulp).
REFERENCE_TOL = 1e-12
FEASIBILITY_SLACK = 1e-9
CLI_TIMEOUT_S = 60
# While an untraced request runs, the calibration kernel also runs every
# SAMPLE_S seconds inside it (on SIGALRM), so a request that lasts longer
# than the host's speed stays steady is calibrated by the speed it ran at.
SAMPLE_S = 0.25


class Recorder:
    """Request timings and check outcomes of one round.

    A request's key is its input set, its kind and its place among the
    round's requests of that kind, so the same request repeated in a later
    round on the same set has the same key. Each request carries the mean
    calibration-kernel time of the runs just before it, just after it and,
    if it is untraced and sampled, inside it; the time of the runs inside
    is taken off the request's time.
    """

    def __init__(self, set_index: int, tracer=None) -> None:
        self.set = set_index
        self.tracer = tracer
        self.requests: list = []     # (key, kind, seconds, units, calibration seconds)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._last_cal = None

    def request(self, kind: str, fn, units: int, sample: bool = True):
        """Time fn() as one request; a raised error counts as a failure.
        sample=False for a call whose work runs in other processes, where
        kernel runs inside it would compete with that work."""
        import calibrate             # not at import: set-up time must not include it
        before = self._last_cal if self._last_cal is not None else calibrate.kernel()
        inside: list[float] = []
        sampling = sample and self.tracer is None
        if sampling:
            previous = signal.signal(signal.SIGALRM, lambda *_: inside.append(calibrate.kernel()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                with self.tracer.span("request." + kind):
                    out = fn()
            else:
                out = fn()
        except Exception:            # a failed request must not end the run
            self.fail(f"{kind} raised:\n{traceback.format_exc(limit=4)}")
            return None
        finally:
            # stopped before the clock, so every kernel run inside is in `seconds`
            if sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
        self._last_cal = calibrate.kernel()
        self.record(kind, seconds - sum(inside), units,
                    statistics.fmean([before, *inside, self._last_cal]))
        return out

    def record(self, kind: str, seconds: float, units: int, cal: float) -> None:
        n = sum(r[1] == kind for r in self.requests)
        self.requests.append((f"{self.set}.{kind}.{n}", kind, seconds, units, cal))

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what)
        return ok

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def close(a: float, b: float, tol: float = REFERENCE_TOL) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def brute_force_fill(fx: float, phix: float, m: int, n_samples: int, n_grid: int) -> float:
    """2 - largest patch-to-nearest-sample distance, by exhaustive search.

    Independent of the package's sampler and KD-tree: unit amplitudes (the
    per-axis normalization removes amplitude) and every center-sample pair.
    """
    t = np.arange(n_samples) * (m / n_samples)
    x = np.cos(2.0 * np.pi * fx * t + phix)
    y = np.cos(2.0 * np.pi * t)
    x, y = x / np.max(np.abs(x)), y / np.max(np.abs(y))
    centers = -1.0 + (2.0 * np.arange(n_grid) + 1.0) / n_grid
    dy2 = (centers[:, None] - y[None, :]) ** 2
    worst = 0.0
    for cx in centers:
        worst = max(worst, float(np.min((cx - x)[None, :] ** 2 + dy2, axis=1).max()))
    return 2.0 - math.sqrt(worst)


# ---------------------------------------------------------------- sweep

class Sweep:
    """Both tone-selection rules over the acceptance (r, m) grid, serially
    and with the 2-worker pool. The grid is the same for every seed: its
    share of repeated geometries is what this workload exists to show.

    Each pass is one sweep_designs call over the whole grid, as
    `lissscan sweep` makes it, so a cache scoped to one call sees every
    repeat and the pooled pass pays the pool's start-up once. The pooled
    pass runs in a run's first round only, before the serial pass, so its
    pool does not inherit a cache the serial pass filled; the later rounds
    repeat the gated serial pass more often in the same time.
    """

    n_sets = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        ratios = [Fraction(100 + 5 * i, 100) for i in range(41)]
        self.full = not tiny
        self.ratios, self.m_set = (ratios[::20], [7]) if tiny else (ratios, [6, 7, 8, 9])
        rows = json.loads(REFERENCE.read_text())["sweep_rows"]
        self.reference = {(r, m, rule): (ff, sr, status) for r, m, rule, ff, sr, status in rows}

    def run_round(self, rec: Recorder, index: int) -> None:
        cells = 2 * len(self.ratios) * len(self.m_set)
        pooled = None
        if index == 0:
            pooled = rec.request("sweep.2w",
                                 lambda: coverage.sweep_designs(self.ratios, self.m_set, workers=2),
                                 cells, sample=False)
        serial = rec.request("sweep.serial",
                             lambda: coverage.sweep_designs(self.ratios, self.m_set), cells)
        for rows in (serial, pooled):
            if rows is not None:
                self.check(rows, cells, rec)
        if serial is not None and pooled is not None:
            rec.check(serial == pooled, "2-worker sweep rows differ from the serial rows")

    def check(self, rows, cells: int, rec: Recorder) -> None:
        if not rec.check(len(rows) == cells, f"sweep returned {len(rows)} rows, not {cells}"):
            return
        for row in rows:
            key = (str(row.r), row.m, row.rule)
            rec.check(row.status == "ok", f"sweep {key}: status {row.status}")
            ref = self.reference.get(key)
            rec.check(ref is not None and ref[2] == row.status
                      and close(row.fill_factor, ref[0]) and close(row.scanning_range, ref[1]),
                      f"sweep {key}: ({row.fill_factor}, {row.scanning_range}) vs reference {ref}")
        if self.full:
            self.check_dominance(rows, rec)

    @staticmethod
    def check_dominance(rows, rec: Recorder) -> None:
        """Acceptance criterion 3 on the whole grid."""
        cells = {}
        for row in rows:
            cells.setdefault((row.r, row.m), {})[row.rule] = row
        pairs = [p for p in cells.values() if p["proposed"].status == p["baseline"].status == "ok"]
        range_wins = sum(p["proposed"].scanning_range >= p["baseline"].scanning_range for p in pairs)
        fill_holds = sum(p["proposed"].fill_factor >= p["baseline"].fill_factor - 0.05
                         for p in pairs)
        rec.check(range_wins >= 0.80 * len(cells), f"range wins only {range_wins}/{len(cells)}")
        rec.check(fill_holds >= 0.80 * len(cells), f"fill holds only {fill_holds}/{len(cells)}")
        for m in (6, 7, 8, 9):
            by_r = {float(r): p["proposed"].scanning_range
                    for (r, mm), p in cells.items() if mm == m}
            rec.check(by_r[2.0] < by_r[1.95] and by_r[2.0] < by_r[2.05]
                      and by_r[1.0] < by_r[1.05] and by_r[3.0] < by_r[2.95],
                      f"m={m}: scanning-range dips missing")


# ---------------------------------------------------------------- phase tolerance

class PhaseTolerance:
    """Fill factor of seed-drawn designs at many x-phase offsets: the same
    coverage layer as the sweep, with every geometry in a round distinct.

    Fill-factor cost depends on the pattern's geometry (about 12% between
    designs), so a run cycles through several input sets of 3 designs each:
    the designs of one run average out that dependence on the seed.
    """

    N_SETS, N_DESIGNS, N_OFFSETS = 4, 3, 40

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.n_sets = 1 if tiny else self.N_SETS
        n_designs, n_offsets = (1, 4) if tiny else (self.N_DESIGNS, self.N_OFFSETS)
        self.sets = [[self.draw(rng, n_offsets) for _ in range(n_designs)]
                     for _ in range(self.n_sets)]

    @staticmethod
    def draw(rng, n_offsets: int) -> tuple:
        """A design with r = p/100 in [1, 3] and m in 6..9, and distinct x
        phase offsets in [0, 40) degrees."""
        r = Fraction(int(rng.integers(100, 301)), 100)
        m = int(rng.integers(6, 10))
        deltas = np.unique(np.radians(rng.uniform(0.0, 40.0, n_offsets)))
        return (design.design_unmodulated(r, m), scanner.ScannerConfig.normalized(float(r)),
                deltas.tolist())

    def run_round(self, rec: Recorder, index: int) -> None:
        for i, (d, config, deltas) in enumerate(self.sets[index % self.n_sets]):
            out = rec.request("phase_tolerance",
                              lambda: coverage.phase_tolerance_sweep(d, config, deltas),
                              len(deltas))
            if out is None:
                continue
            rec.check([delta for delta, _ in out] == deltas, "offsets came back reordered")
            rec.check(all(math.isfinite(ff) and 0.0 < ff <= 2.0 for _, ff in out),
                      f"fill factor outside (0, 2]: {out}")
            if i == 0:
                expected = brute_force_fill(float(d.fx), d.phix + deltas[0], d.m,
                                            coverage.N_SAMPLES_DEFAULT, coverage.N_GRID_DEFAULT)
                rec.check(close(out[0][1], expected),
                          f"fx={d.fx} m={d.m}: fill factor {out[0][1]} vs brute force {expected}")


# ---------------------------------------------------------------- roi

class Roi:
    """Projected-gradient ROI focusing over the acceptance cases, a warm
    start, one absolute-constraint case on a seed-drawn rectangle, and ROI_B
    on a 64x64 map."""

    n_sets = 1
    # (r, region, tones, y single tone, map size, bar on ROI density over the
    # unmodulated reference's). The bars are acceptance criterion 4's.
    CASES = [
        (Fraction(1), "ROI_A", 5, False, 32, "gt1"),
        (Fraction(1), "ROI_B", 5, False, 32, "gt1"),
        (Fraction(13, 10), "ROI_A", 5, False, 32, "ge0.95"),
        (Fraction(13, 10), "ROI_B", 5, False, 32, "ge0.95"),
        (Fraction(2), "ROI_A", 5, False, 32, "gt1"),
        (Fraction(2), "ROI_B", 5, False, 32, "gt1"),
        (Fraction(2), "ROI_B", 3, True, 32, "ge1.3"),
        (Fraction(2), "ROI_B", 5, False, 64, "gt1"),
    ]
    TINY_CASES = [(Fraction(2), "ROI_B", 5, False, 32, "gt1")]
    BARS = {"gt1": lambda q: q > 1.0, "ge0.95": lambda q: q >= 0.95, "ge1.3": lambda q: q >= 1.3}
    WARM_FROM = (Fraction(13, 10), "ROI_B", 5, 32)
    SIDE = 0.6   # seed-drawn rectangles are SIDE x SIDE inside [-0.95, 0.95]^2
    # The drawn case runs a fixed number of iterations (patience beyond
    # max_iters), so its cost does not depend on the rectangle the seed drew.
    DRAWN_OPTIONS = dict(constraint="absolute", max_iters=60, patience=61)

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.cases = self.TINY_CASES if tiny else self.CASES
        x0, y0 = rng.uniform(-0.95, 0.95 - self.SIDE, 2)
        self.rect = (float(x0), float(x0) + self.SIDE, float(y0), float(y0) + self.SIDE)
        self.rois = {"ROI_A": modulated.ROI_A, "ROI_B": modulated.ROI_B,
                     # the warm start's region: ROI_B moved left, 80% overlap
                     "ROI_B_shifted": (modulated.ROI_B[0] - 0.14, modulated.ROI_B[1] - 0.14,
                                       modulated.ROI_B[2], modulated.ROI_B[3]),
                     "drawn": self.rect}
        self.maps = {(name, size): modulated.WeightMap.from_rectangles([roi], size)
                     for name, roi in self.rois.items() for size in (32, 64)}
        self.focus_ratios: list[float] = []

    def solve(self, rec: Recorder, init, wmap, opts):
        return rec.request("roi.solve", lambda: modulated.optimize(init, wmap, opts), 1)

    def focus_ratio(self, params, r, roi) -> float:
        density = modulated.roi_density(modulated.synthesize_modulated(params, 500), [roi])
        reference = modulated.roi_density(modulated.reference_pattern(r, 7), [roi])
        return density / reference if reference > 0 else math.inf

    def run_round(self, rec: Recorder, index: int) -> None:
        warm_from = None
        for r, name, tones, y_single, size, bar in self.cases:
            init = modulated.initial_params(r, m=7, n_tones=tones, y_single_tone=y_single)
            result = self.solve(rec, init, self.maps[name, size], modulated.OptimizeOptions())
            if result is None:
                continue
            ratio = self.focus_ratio(result.params, r, self.rois[name])
            self.focus_ratios.append(ratio)
            rec.check(self.BARS[bar](ratio),
                      f"r={r} {name} {tones} tones {size}x{size}: focus ratio {ratio} fails {bar}")
            if (r, name, tones, size) == self.WARM_FROM:
                warm_from = result.params
        if warm_from is not None:
            result = self.solve(rec, warm_from, self.maps["ROI_B_shifted", 32],
                                modulated.OptimizeOptions())
            if result is not None:
                ratio = self.focus_ratio(result.params, Fraction(13, 10), self.rois["ROI_B_shifted"])
                self.focus_ratios.append(ratio)
                rec.check(ratio >= 0.95, f"warm start on shifted ROI_B: focus ratio {ratio}")
        # A drawn region has no acceptance bar on focusing; check the
        # optimizer's own guarantees instead (criterion 5).
        init = modulated.initial_params(Fraction(2), m=7)
        result = self.solve(rec, init, self.maps["drawn", 32],
                            modulated.OptimizeOptions(**self.DRAWN_OPTIONS))
        if result is not None:
            trace = result.loss_trace
            rec.check(bool(np.all(result.norm_trace <= 1.0 + FEASIBILITY_SLACK)),
                      f"absolute case {self.rect}: an iterate left the constraint set")
            rec.check(result.loss == float(np.min(trace)) and result.loss <= trace[0],
                      f"absolute case {self.rect}: returned loss {result.loss} is not the best seen")


# ---------------------------------------------------------------- cli

# A command, then its peak resident set and the calibration kernel's time,
# measured in a forked child so the command's process never loads the
# kernel's modules; these and the time from the end of the command to the
# report (the tail, which the command's time excludes) go to the file named
# by argv[1]. The command's own exit stays in its time.
CLI_MAIN = f"""
import json, resource, sys, time
from lissscan.cli import cli_dispatch
code = cli_dispatch(sys.argv[2:])
tail = time.perf_counter()
rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
sys.path.insert(0, {str(BENCH_DIR)!r})
import forkcal
cal = forkcal.speed()
with open(sys.argv[1], "w") as fh:
    json.dump({{"cal": cal, "rss_kb": rss_kb, "tail": time.perf_counter() - tail}}, fh)
sys.exit(code)
"""
OMEGAS = [2.0 * math.pi * f for f in (13 / 14, 1.0, 15 / 14)]
FRAME_TIME = 7.0


def write_pgm(path: Path, wmap) -> None:
    """8-bit binary PGM; image row 0 is the top of the field of view."""
    image = np.flipud(wmap.w.T)
    pixels = np.round(image * 255.0).astype(np.uint8)
    size = image.shape[0]
    path.write_bytes(b"P5\n%d %d\n255\n" % (size, size) + pixels.tobytes())


class Cli:
    """Five commands per round, each in a fresh interpreter."""

    n_sets = 1

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.dir = workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        for name, fx in (("scanner_1465.json", 1.465), ("scanner_2.json", 2.0)):
            (self.dir / name).write_text(json.dumps({"fx_res": fx, "fy_res": 1.0,
                                                     "qx": 20.0, "qy": 20.0}))
        (self.dir / "scenario.json").write_text(json.dumps({
            "axis": "x", "f_drive": 2.0, "frame_time": 6.4, "control_enabled": True,
            "measurement_noise_deg": 0.5, "drift": {"type": "phase_target", "target_deg": 10.0}}))
        write_pgm(self.dir / "roi_b.pgm", modulated.WeightMap.from_rectangles([modulated.ROI_B], 32))
        # 3-tone quadrature samples at t = 0, T/2, T, and a phase-sim seed
        self.amps = rng.uniform(0.05, 1.0, 3).tolist()
        phases = rng.uniform(-math.pi, math.pi, 3)
        arg = np.outer([0.0, FRAME_TIME / 2.0, FRAME_TIME], OMEGAS) + phases
        (self.dir / "samples.json").write_text(json.dumps({
            "x": (np.cos(arg) @ self.amps).tolist(), "xq": (np.sin(arg) @ self.amps).tolist(),
            "omegas": OMEGAS, "frame_time": FRAME_TIME}))
        self.sim_seed = int(rng.integers(0, 2 ** 31))
        reference = json.loads(REFERENCE.read_text())
        self.ref_design, self.ref_metrics = reference["cli_design"], reference["cli_metrics"]
        self.focus_ratios: list[float] = []
        self.dispatch_ms: dict[str, float] = {}
        self.command_rss_kb: list[int] = []     # each command's peak, before calibration

    def commands(self, out: Path) -> list[tuple[str, list[str]]]:
        d = self.dir
        return [
            ("design", ["design", "--r", "1.465", "--m", "7", "--out", str(out / "design.json")]),
            ("metrics", ["metrics", "--design", str(out / "design.json"),
                         "--scanner", str(d / "scanner_1465.json"),
                         "--out", str(out / "metrics.json")]),
            ("phase-solve", ["phase-solve", "--samples", str(d / "samples.json"),
                             "--out", str(out / "solve.json")]),
            ("phase-sim", ["phase-sim", "--scenario", str(d / "scenario.json"),
                           "--scanner", str(d / "scanner_2.json"), "--duration", "2400",
                           "--seed", str(self.sim_seed), "--out", str(out / "sim.csv")]),
            ("optimize", ["optimize", "--scanner", str(d / "scanner_2.json"),
                          "--roi", str(d / "roi_b.pgm"), "--out", str(out / "opt.json")]),
        ]

    def run_round(self, rec: Recorder, index: int) -> None:
        import calibrate
        out = self.dir / "sub"
        out.mkdir(exist_ok=True)
        report = self.dir / "calibration.json"
        for name, argv in self.commands(out):
            # a command is calibrated by the kernel run here just before it
            # and in its own process just after it
            before = calibrate.kernel()
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", CLI_MAIN, str(report), *argv],
                                  env=self.env, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            wall = time.perf_counter() - start
            if not rec.check(proc.returncode == 0 and proc.stderr == "",
                             f"{name} exited {proc.returncode}: {proc.stderr}"):
                continue
            tail = json.loads(report.read_text())
            rec.record("cli." + name, wall - tail["tail"], 1, (before + tail["cal"]) / 2.0)
            self.command_rss_kb.append(tail["rss_kb"])
            self.check(name, out, rec)
        tracer = rec.tracer
        if tracer is not None:
            # the same commands in this process, so spans reach io, phase, ...
            inproc = self.dir / "inproc"
            inproc.mkdir(exist_ok=True)
            for name, argv in self.commands(inproc):
                start = time.perf_counter()
                with tracer.span("cli.dispatch." + name):
                    code = cli.cli_dispatch(argv)
                self.dispatch_ms[name] = (time.perf_counter() - start) * 1e3
                if rec.check(code == 0, f"in-process {name} exited {code}"):
                    self.check(name, inproc, rec)

    def check(self, name: str, out: Path, rec: Recorder) -> None:
        if name == "design":
            got = json.loads((out / "design.json").read_text())
            rec.check(got.keys() == self.ref_design.keys() and all(
                close(got[k], v) if isinstance(v, float) else got[k] == v
                for k, v in self.ref_design.items()), f"design output {got} vs reference")
        elif name == "metrics":
            got = json.loads((out / "metrics.json").read_text())
            rec.check(got.keys() == self.ref_metrics.keys()
                      and all(close(got[k], v) for k, v in self.ref_metrics.items()),
                      f"metrics output {got} vs reference {self.ref_metrics}")
        elif name == "phase-solve":
            got = json.loads((out / "solve.json").read_text())["amplitudes"]
            rec.check(len(got) == 3 and all(close(a, b, 1e-9) for a, b in zip(got, self.amps)),
                      f"phase-solve amplitudes {got} vs {self.amps}")
        elif name == "phase-sim":
            with open(out / "sim.csv", newline="") as fh:
                errors = [float(row["phase_error_deg"]) for row in csv.DictReader(fh)]
            std = statistics.pstdev(errors) if errors else math.inf
            rec.check(std <= 1.5, f"phase-sim closed-loop std {std} deg > 1.5")
        elif name == "optimize":
            got = json.loads((out / "opt.json").read_text())
            self.focus_ratios.append(got["roi_density"] / max(got["roi_density_reference"], 1))
            rec.check(got["roi_density"] > got["roi_density_reference"],
                      f"optimize roi_density {got['roi_density']} <= "
                      f"reference {got['roi_density_reference']}")


WORKLOADS = {"sweep": Sweep, "phase-tolerance": PhaseTolerance, "roi": Roi, "cli": Cli}


def package_path() -> Path:
    return Path(lissscan.__file__).resolve().parent
