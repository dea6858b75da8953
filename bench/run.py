"""lissscan benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root or anywhere else: the package is imported from
the sibling ``src/`` and nowhere else. The process imports the package and
draws the workload's inputs, then forks one child per round, so every round
starts from the same state and no process-level cache carries over from one
round to the next. With ``--trace 0`` the run first times ``SETUP_PROBES``
set-ups in fresh interpreters (``setup_s``), then runs rounds until
``--seconds`` is spent and reports the end-to-end metrics. With
``--trace 1`` it runs half that time untraced and half with spans around
every call into the package, probes import cost and reports the per-layer
metrics. Text lines name every metric with its unit and record the machine;
the last line is one JSON object ``{correct, attempted, failed, metrics}``.
``failed`` counts failed output checks, requests that raised, non-ok sweep
statuses and non-zero CLI exits.

Times are at reference speed (see calibrate.py): each request's time is
scaled by calibrate.REFERENCE_S over the calibration kernel's time measured
around it in the same process. A request's time is then the median of its
repeats over the rounds (same input set, same place in the round), and a
rate is the work of one round of each input set over the sum of those
medians. Raw rates and the spread of repeats are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from tracing import Tracer, instrument, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep", "phase-tolerance", "roi", "cli")
CLI_COMMANDS = ("design", "metrics", "phase-solve", "phase-sim", "optimize")
MODULES = ("scanner", "design", "coverage", "modulated", "phase", "io", "cli")
SETUP_PROBES = 7
IMPORT_PROBES = 5
ROUND_TIMEOUT_S = 100
PROBE_TIMEOUT_S = 60

# What one unit of work_per_s is, per workload.
WORK_UNIT = {
    "sweep": "rule cells of the serial pass",
    "phase-tolerance": "fill-factor evaluations",
    "roi": "optimizer solves",
    "cli": "CLI commands",
}

# Requests measured and reported but kept out of the gated end-to-end
# metrics. The 2-worker sweep's time depends on both vCPUs and on the pool's
# start-up: over 6 seeds its rate spread 14% (quartile distance over median)
# against 2% for the serial pass. The calibration kernel runs in one process,
# so it does not describe a pool of two: its rates are from raw times.
NOT_GATED = {"sweep.2w"}

# Spans a traced run must record at least once; zero means the trace broke.
EXPECTED_SPANS = {
    "sweep": ["coverage.sweep", "design.rule", "scanner.transfer_amplitude",
              "coverage.sample", "coverage.fill_factor"],
    "phase-tolerance": ["coverage.phase_tolerance", "coverage.sample", "coverage.fill_factor"],
    "roi": ["modulated.optimize", "modulated.objective", "modulated.gradient",
            "modulated.project", "modulated.synthesize", "scanner.transfer_amplitude",
            "coverage.sample", "design.rule"],
    "cli": [f"cli.dispatch.{c}" for c in CLI_COMMANDS] + [
        "io.load_weight_map", "io.load_design", "io.load_scanner", "phase.drift_sim",
        "phase.offset_solve", "phase.solve_multitone", "modulated.optimize",
        "modulated.objective", "coverage.fill_factor", "coverage.sample", "design.rule"],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few requests per round, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lissscan" / "__init__.py").is_file():
        print(f"error: no lissscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("LISSSCAN_THREADS", None)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(workdir / "tmp")     # pool and tempfile scratch
    try:
        import workloads
        if workloads.package_path() != (SRC / "lissscan").resolve():
            print(f"error: imported lissscan from {workloads.package_path()}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", workdir)
        if args.setup_probe:
            # set-up ends here; the calibration and its imports are the tail,
            # which the parent takes off the probe's wall time, and the probe
            # ends without the interpreter's teardown, which is not set-up
            tail = time.perf_counter()
            import calibrate
            calibrate.kernel()       # the first run in a new process is slow
            cal = calibrate.speed(5)
            print(json.dumps({"cal": cal, "tail": time.perf_counter() - tail}), flush=True)
            shutil.rmtree(workdir, ignore_errors=True)
            os._exit(0)
        return run(args, workloads, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------- rounds

class Phase:
    """The merged records of the rounds of one measured phase."""

    def __init__(self) -> None:
        self.rounds = 0
        self.requests: list = []     # (round, key, kind, seconds, units, calibration s)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.focus_ratios: list[float] = []
        self.dispatch_ms: list = []  # (round, command, ms at reference speed)
        self.spans: list = []        # times at reference speed
        self.fill_keys: list = []
        self.iterations: list = []
        self.command_rss_kb: list = []  # each CLI command's peak resident set

    def add(self, index: int, record: dict) -> None:
        self.rounds += 1
        self.requests += [(index, *r) for r in record["requests"]]
        self.attempted += record["attempted"]
        self.failed += record["failed"]
        self.failures += record["failures"]
        self.focus_ratios += record["focus_ratios"]
        scale = record["scale"]
        self.dispatch_ms += [(index, c, ms * scale) for c, ms in record["dispatch_ms"].items()]
        offset = len(self.spans)
        self.spans += [(name, start * scale, end * scale,
                        None if parent is None else parent + offset, run_id)
                       for name, start, end, parent, run_id in record["spans"]]
        self.fill_keys += record["fill_keys"]
        self.iterations += record["iterations"]
        self.command_rss_kb += record["command_rss_kb"]

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def round_child(conn, wl, workload, index: int, trace: bool) -> None:
    """One round in a forked child; sends the round's record to the parent."""
    import calibrate
    calibrate.kernel()               # the first run in a new process is slow
    rec = wl.Recorder(index % workload.n_sets)
    tracer = None
    if trace:
        tracer = rec.tracer = Tracer()
        tracer.run_id = index
        instrument(tracer, wl.lissscan)
    try:
        workload.run_round(rec, index)
    except Exception:                # keep the record of what did run
        rec.fail(f"round {index} raised:\n{traceback.format_exc(limit=4)}")
    cals = [r[4] for r in rec.requests] or [calibrate.speed()]
    conn.send({
        "requests": rec.requests, "attempted": rec.attempted, "failed": rec.failed,
        "failures": rec.failures, "scale": calibrate.REFERENCE_S / statistics.median(cals),
        "focus_ratios": getattr(workload, "focus_ratios", []),
        "dispatch_ms": getattr(workload, "dispatch_ms", {}),
        "command_rss_kb": getattr(workload, "command_rss_kb", []),
        "spans": tracer.spans if tracer else [],
        "fill_keys": [[run_id, repr(key)] for run_id, key in tracer.fill_keys] if tracer else [],
        "iterations": tracer.iterations if tracer else [],
    })
    conn.close()


def measure(wl, workload, phase: Phase, seconds: float, trace: bool = False) -> None:
    """Rounds, each in a forked child, until the next one would end past
    `seconds`; at least one round per input set.

    Fork, not spawn: the child must start from this process's state, with
    the package imported and the inputs drawn but no request run yet.
    """
    # The objects of import and set-up go to the permanent generation. A full
    # collection in a round would otherwise scan them all, which took about
    # 25 ms, and the request it lands in depends on how much the seed's
    # inputs allocated: one roi solve took 34 ms with one seed, 59 with another.
    gc.collect()
    gc.freeze()
    ctx = multiprocessing.get_context("fork")
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        index = phase.rounds
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=round_child, args=(send, wl, workload, index, trace))
        child.start()
        send.close()
        try:
            record = receive.recv() if receive.poll(ROUND_TIMEOUT_S) else None
        except EOFError:             # the child ended without a record
            record = None
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
        receive.close()
        if record is not None and child.exitcode == 0:
            phase.add(index, record)
        else:
            phase.rounds += 1
            phase.check(False, f"round {index} ended with exit code {child.exitcode}")
        now = time.perf_counter()
        if phase.rounds >= workload.n_sets and (now - start) + (now - round_start) > seconds:
            return


# ---------------------------------------------------------------- the run

def run(args, wl, workload) -> int:
    machine = machine_info()
    if args.trace:
        plain, traced = Phase(), Phase()
        measure(wl, workload, plain, args.seconds / 2)
        measure(wl, workload, traced, args.seconds / 2, trace=True)
        recorded = {s[0] for s in traced.spans}
        for span in EXPECTED_SPANS[args.workload]:
            traced.check(span in recorded, f"traced run recorded no {span} span")
        metrics = layer_metrics(plain, traced, import_probes())
        phases = [plain, traced]
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        write_spans(traced.spans, trace_path)
        print(f"spans {len(traced.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        setup = Phase()
        setup_s = [setup_probe(args, setup) for _ in range(SETUP_PROBES)]
        phase = Phase()
        measure(wl, workload, phase, args.seconds)
        metrics = end_to_end(phase, setup_s)
        phases = [setup, phase]
        print_named(args.workload, phase, metrics)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    for phase in phases:
        for what in phase.failures:
            print(f"FAILED: {what}", file=sys.stderr)
    machine["loadavg_end"] = os.getloadavg()
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    print(f"failed_share = {failed / max(attempted, 1)!r} ({failed} of {attempted} attempts)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def setup_probe(args, setup: Phase) -> float:
    """Seconds at reference speed for a fresh interpreter to import the
    package and draw the workload's inputs."""
    import calibrate
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--size", args.size, "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - start
    setup.check(proc.returncode == 0, f"setup probe exited {proc.returncode}")
    if proc.returncode != 0:
        return wall
    tail = json.loads(proc.stdout.strip().splitlines()[-1])
    return (wall - tail["tail"]) * calibrate.REFERENCE_S / tail["cal"]


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "commit": git_commit(), "loadavg_start": os.getloadavg()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def repeats(phase: Phase, kinds=None, raw: bool = False) -> dict:
    """key -> (units, every time the request took), for requests of `kinds`;
    times at reference speed unless raw."""
    import calibrate
    out = {}
    for _, key, kind, seconds, units, cal in phase.requests:
        if kinds is None or kind in kinds:
            t = seconds if raw else seconds * calibrate.REFERENCE_S / cal
            out.setdefault(key, (units, []))[1].append(t)
    return out


def rate(phase: Phase, kinds=None, raw: bool = False) -> float:
    """Units of work per second, each request at the median of its repeats."""
    by_key = repeats(phase, kinds, raw).values()
    seconds = sum(statistics.median(times) for _, times in by_key)
    return sum(units for units, _ in by_key) / seconds if seconds else 0.0


def peak_rss_mb(phase: Phase) -> float:
    """Largest resident set of a CLI command, taken before the benchmark's
    calibration ran in it; on the other workloads, of this process or any
    process it waited for."""
    if phase.command_rss_kb:
        return max(phase.command_rss_kb) / 1024.0
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def gated(phase: Phase) -> set:
    return {kind for _, _, kind, *_ in phase.requests} - NOT_GATED


def end_to_end(phase: Phase, setup_s: list[float]) -> dict:
    ms = [statistics.median(times) * 1e3 for _, times in repeats(phase, gated(phase)).values()]
    return {
        "work_per_s": metric(rate(phase, gated(phase)), "1/s"),
        "request_ms_p50": metric(statistics.median(ms) if ms else 0.0, "ms"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "peak_rss_mb": metric(peak_rss_mb(phase), "MB"),
    }


def print_named(name: str, phase: Phase, metrics: dict) -> None:
    """The workload's metrics under the names the rationale note uses, raw
    figures, and how far repeats of one request spread."""
    by_key = repeats(phase).values()
    counts = [len(times) for _, times in by_key]
    spread = [max(times) / min(times) - 1.0 for _, times in by_key]
    cals = [r[5] * 1e3 for r in phase.requests]
    print(f"workload {name}: {phase.rounds} rounds, {len(phase.requests)} requests, "
          f"{len(counts)} distinct, repeats {min(counts, default=0)}..{max(counts, default=0)}; "
          f"work_per_s counts {WORK_UNIT[name]}")
    if spread:
        print(f"noise: slowest over fastest repeat of a request at reference speed, median "
              f"{statistics.median(spread):.1%}, worst {max(spread):.1%}; calibration kernel "
              f"{min(cals):.2f}..{max(cals):.2f} ms")
        print(f"raw work_per_s = {rate(phase, gated(phase), raw=True)!r} 1/s (at the speed the host gave)")
    if name == "sweep":
        print(f"named sweep_cells_per_s = {rate(phase, {'sweep.serial'})!r} rule cells/s")
        print(f"named sweep_cells_per_s_2w = {rate(phase, {'sweep.2w'}, raw=True)!r} "
              f"rule cells/s (raw)")
    elif name == "phase-tolerance":
        print(f"named tolerance_evals_per_s = {metrics['work_per_s']['value']!r} evals/s")
    elif name == "roi":
        print(f"named roi_solves_per_s = {metrics['work_per_s']['value']!r} cases/s")
        print(f"named roi_focus_ratio_min = {min(phase.focus_ratios, default=0.0)!r} ratio")
    elif name == "cli":
        ms = sorted(t * 1e3 for _, times in by_key for t in times)
        if len(ms) > 1:
            p90 = statistics.quantiles(ms, n=10)[-1]
            print(f"named cli_ms_p50 = {statistics.median(ms)!r} ms (every command run, n={len(ms)})")
            print(f"named cli_ms_p90 = {p90!r} ms (n={len(ms)}, "
                  f"{sum(v > p90 for v in ms)} beyond it; 10 beyond needs n >= 100)")


# ---------------------------------------------------------------- traced run

def write_spans(spans: list, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("name", "start", "end", "parent", "run_id")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# Imports after the marker line are the calibration's, not lissscan's.
IMPORT_MARK = "-- lissscan imported --"
IMPORT_PROBE = f"""
import sys
import lissscan
print({IMPORT_MARK!r}, file=sys.stderr, flush=True)
sys.path.insert(0, {str(BENCH_DIR)!r})
import calibrate
calibrate.kernel()
print(calibrate.speed(5))
"""


def import_probes() -> dict:
    """Median wall time of a bare interpreter (raw), and median -X importtime
    cumulative cost of lissscan and of scipy.spatial inside it (0 if
    `import lissscan` does not load it), at reference speed."""
    import calibrate
    bare, lissscan_s, spatial_s = [], [], []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], timeout=PROBE_TIMEOUT_S)
        bare.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        scale = calibrate.REFERENCE_S / float(proc.stdout.split()[-1])
        cumulative = {}
        for line in proc.stderr.split(IMPORT_MARK)[0].splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6 * scale)
        lissscan_s.append(cumulative.get("lissscan", 0.0))
        spatial_s.append(cumulative.get("scipy.spatial", 0.0))
    return {"python": statistics.median(bare), "lissscan": statistics.median(lissscan_s),
            "scipy_spatial": statistics.median(spatial_s)}


def layer_metrics(plain: Phase, traced: Phase, imports: dict) -> dict:
    import calibrate

    spans = traced.spans
    durations = defaultdict(list)
    counts = defaultdict(lambda: [0] * traced.rounds)
    for name, start, end, _, run_id in spans:
        durations[name].append(end - start)
        counts[name][run_id] += 1

    def per_call(name: str, scale: float) -> float:
        values = durations.get(name)
        return statistics.median(values) * scale if values else 0.0

    def per_round(name: str) -> float:
        return statistics.median(counts[name]) if name in counts else 0

    kinds = gated(plain)
    out = {"trace_overhead_share": metric(rate(plain, kinds) / rate(traced, kinds) - 1.0
                                          if rate(traced, kinds) else 0.0, "share"),
           "import.python_s": metric(imports["python"], "s"),
           "import.lissscan_s": metric(imports["lissscan"], "s"),
           "import.scipy_spatial_s": metric(imports["scipy_spatial"], "s")}

    # CLI: in-process dispatch per command, and what a fresh process adds
    dispatch = {(r, c): ms for r, c, ms in traced.dispatch_ms}
    startup = [seconds * calibrate.REFERENCE_S / cal * 1e3 - dispatch[r, kind[4:]]
               for r, _, kind, seconds, _, cal in traced.requests if (r, kind[4:]) in dispatch]
    out["cli.startup_ms"] = metric(statistics.median(startup) if startup else 0.0, "ms")
    for command in CLI_COMMANDS:
        out[f"cli.dispatch_ms.{command}"] = metric(per_call(f"cli.dispatch.{command}", 1e3), "ms")

    out["design.rule_ms"] = metric(per_call("design.rule", 1e3), "ms")
    out["design.rule_calls"] = metric(per_round("design.rule"), "count")
    out["scanner.transfer_amplitude_us"] = metric(per_call("scanner.transfer_amplitude", 1e6), "us")
    out["scanner.transfer_amplitude_calls"] = metric(per_round("scanner.transfer_amplitude"),
                                                     "count")
    out["coverage.sample_ms"] = metric(per_call("coverage.sample", 1e3), "ms")
    out["coverage.fill_factor_ms"] = metric(per_call("coverage.fill_factor", 1e3), "ms")
    out["coverage.fill_factor_calls"] = metric(per_round("coverage.fill_factor"), "count")
    out["coverage.distinct_geometry_share"] = metric(distinct_share(traced.fill_keys), "share")
    out["coverage.sweep_cells_per_s"] = metric(rate(plain, {"sweep.serial"}), "1/s")
    out["coverage.sweep_cells_per_s_2w"] = metric(rate(plain, {"sweep.2w"}, raw=True), "1/s")
    out["coverage.pool_efficiency"] = metric(pool_efficiency(plain), "share")

    iterations = [0] * traced.rounds
    for run_id, count in traced.iterations:
        iterations[run_id] += count
    total = sum(iterations)
    out["modulated.iterations"] = metric(statistics.median(iterations) if total else 0, "count")
    out["modulated.ms_per_iter"] = metric(
        sum(durations["modulated.optimize"]) * 1e3 / total if total else 0.0, "ms")
    out["modulated.objective_ms"] = metric(per_call("modulated.objective", 1e3), "ms")
    out["modulated.gradient_ms"] = metric(per_call("modulated.gradient", 1e3), "ms")
    out["modulated.synthesize_ms"] = metric(per_call("modulated.synthesize", 1e3), "ms")
    out["modulated.project_us"] = metric(per_call("modulated.project", 1e6), "us")
    out["modulated.focus_ratio_min"] = metric(
        min(plain.focus_ratios + traced.focus_ratios, default=0.0), "ratio")

    out["phase.drift_sim_ms"] = metric(per_call("phase.drift_sim", 1e3), "ms")
    out["phase.offset_solve_us"] = metric(per_call("phase.offset_solve", 1e6), "us")
    out["phase.solve_multitone_us"] = metric(per_call("phase.solve_multitone", 1e6), "us")
    out["io.load_weight_map_ms"] = metric(per_call("io.load_weight_map", 1e3), "ms")
    out["io.load_design_ms"] = metric(per_call("io.load_design", 1e3), "ms")
    out["io.load_scanner_ms"] = metric(per_call("io.load_scanner", 1e3), "ms")

    # share of the traced requests' time spent in each module's own code
    own = self_times(spans)
    root_time = sum(end - start for _, start, end, parent, _ in spans if parent is None)
    for module in MODULES:
        t = sum(own[i] for i, s in enumerate(spans) if s[0].startswith(module + "."))
        out[f"self_share.{module}"] = metric(t / root_time if root_time else 0.0, "share")
    return out


def pool_efficiency(phase: Phase) -> float:
    """2-worker rate / serial rate / 2, from raw times: the two passes run
    back to back in one round's process, and the calibration kernel, run in
    one process, does not describe a pool of two. Median over rounds."""
    per_round = defaultdict(lambda: {"sweep.serial": [0.0, 0], "sweep.2w": [0.0, 0]})
    for r, _, kind, seconds, units, _ in phase.requests:
        if kind in ("sweep.serial", "sweep.2w"):
            per_round[r][kind][0] += seconds
            per_round[r][kind][1] += units
    ratios = [(p["sweep.2w"][1] / p["sweep.2w"][0]) / (p["sweep.serial"][1] / p["sweep.serial"][0]) / 2
              for p in per_round.values() if p["sweep.2w"][0] and p["sweep.serial"][0]]
    return statistics.median(ratios) if ratios else 0.0


def distinct_share(fill_keys: list) -> float:
    """Per round, distinct fill-factor geometries over fill-factor calls;
    median over rounds. A call on a pattern not from sample_unmodulated
    counts as distinct."""
    per_round = defaultdict(list)
    for run_id, key in fill_keys:
        per_round[run_id].append(key)
    shares = []
    for keys in per_round.values():
        distinct = len({k for k in keys if k != "None"}) + sum(k == "None" for k in keys)
        shares.append(distinct / len(keys))
    return statistics.median(shares) if shares else 0.0


if __name__ == "__main__":
    sys.exit(main())
