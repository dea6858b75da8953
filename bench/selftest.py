"""Self-test of the benchmark: a tiny run of every workload, untraced and
traced, must pass its own checks, print every metric BENCHMARK.json names
with its unit, and record the spans its layers should produce. The benchmark
must also refuse to run in a directory without the package sources.

    python3 bench/selftest.py          # about two minutes on 2 cores

Exits 0 when every check holds and prints one line per failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics a traced run of each workload must report as non-zero.
NONZERO = {
    "sweep": ["design.rule_calls", "scanner.transfer_amplitude_calls",
              "coverage.fill_factor_calls", "coverage.fill_factor_ms", "coverage.sample_ms",
              "coverage.sweep_cells_per_s", "coverage.sweep_cells_per_s_2w"],
    "phase-tolerance": ["coverage.fill_factor_calls", "coverage.fill_factor_ms",
                        "coverage.sample_ms", "coverage.distinct_geometry_share"],
    "roi": ["modulated.iterations", "modulated.objective_ms", "modulated.gradient_ms",
            "modulated.synthesize_ms", "modulated.project_us", "modulated.focus_ratio_min",
            "scanner.transfer_amplitude_calls"],
    "cli": ["cli.startup_ms", "cli.dispatch_ms.design", "cli.dispatch_ms.metrics",
            "cli.dispatch_ms.phase-solve", "cli.dispatch_ms.phase-sim",
            "cli.dispatch_ms.optimize", "io.load_weight_map_ms", "io.load_design_ms",
            "io.load_scanner_ms", "phase.drift_sim_ms", "phase.offset_solve_us",
            "phase.solve_multitone_us", "coverage.fill_factor_calls", "modulated.iterations"],
}
ALWAYS_NONZERO = ["import.python_s", "import.lissscan_s"]


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
                           "--seconds", "1", "--size", "tiny", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload: str, trace: int, errors: list[str]) -> None:
    where = f"{workload} --trace {trace}"
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}\n{proc.stderr}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in spec}:
        errors.append(f"{where}: metrics {sorted(metrics)} differ from BENCHMARK.json")
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got["value"]
        if got["unit"] != m["unit"] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{where}: {m['name']} = {got}, expected a number in {m['unit']}")
        elif not any(line.startswith(f"metric {m['name']} = ") and line.endswith(" " + m["unit"])
                     for line in lines):
            errors.append(f"{where}: no text line names {m['name']} with its unit")
    wanted = ALWAYS_NONZERO + NONZERO[workload] if trace else [m["name"] for m in spec]
    for name in wanted:
        if name in metrics and not metrics[name]["value"] > 0:
            errors.append(f"{where}: {name} is {metrics[name]['value']}, expected > 0")


def check_bare_directory(errors: list[str]) -> None:
    """Only BENCHMARK.json and the benchmark's own files: must fail fast."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    errors: list[str] = []
    check_bare_directory(errors)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, errors)
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
