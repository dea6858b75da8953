"""Command-line front end.

Subcommands: design, metrics, sweep, optimize, phase-sim, phase-solve.
Exit codes: 0 success, 1 domain error (single machine-parsable line on
stderr, prefixed "error:"), 2 usage error. Runs with identical flags and
seed write byte-identical outputs. Each command imports the numpy-backed
modules it calls, so start-up loads nothing a command does not use.
"""

from __future__ import annotations

import argparse
import sys

from . import io as lio
from .design import (N_GRID_DEFAULT, N_SAMPLES_DEFAULT, as_fraction,
                     baseline_repeating_design, design_unmodulated, repeat_period)
from .errors import (DomainError, InvalidParams, LissscanError, record_errors, record_value,
                     value_text)


def _emit_json(payload: dict, out: str | None) -> None:
    """Write payload to the --out file, or to stdout when --out is absent."""
    if out:
        lio.write_text(out, lio.json_text(payload))
    else:
        sys.stdout.write(lio.json_text(payload))


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named flags the command line gave; an absent one keeps the library's default."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _path(text: str) -> str:
    """argparse type of every file flag: an empty path is a usage error."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


# ---------------------------------------------------------------- subcommands

def cmd_design(args: argparse.Namespace) -> int:
    make = baseline_repeating_design if args.baseline else design_unmodulated
    design = make(args.r, args.m)
    periods = repeat_period(design.fx, design.fy, design.phix, design.phiy)
    payload = design.to_dict()
    payload["signal_period"] = str(periods.signal_period)
    payload["coverage_period"] = str(periods.coverage_period)
    _emit_json(payload, args.out)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    from .coverage import (_grid_count, _sample_count, fill_factor, sample_unmodulated,
                           scanning_range)
    _sample_count(args.n_samples)     # the bounds come before any input is read
    _grid_count(args.grid)
    scanner = lio.load_scanner(args.scanner)
    design = lio.load_design(args.design)
    pattern = sample_unmodulated(design, scanner, **_given(args, "frame_index", "n_samples"))
    report = fill_factor(pattern, args.grid)
    payload = {"fill_factor": report.fill_factor, "r_max": report.r_max,
               "scanning_range": scanning_range(design, scanner)}
    _emit_json(payload, args.out)
    return 0


def _parse_m_list(text: str) -> list[int]:
    try:
        values = list(dict.fromkeys(int(tok) for tok in text.split(",") if tok.strip() != ""))
    except ValueError as exc:
        raise DomainError(f"--m must be comma-separated integers, got {value_text(text)}") from exc
    if not values:
        raise DomainError("--m must name at least one frame time")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    from .coverage import (MAX_SWEEP_CELLS, _grid_count, _sample_count, sweep_designs,
                           sweep_workers_from_env)
    lio.check_out_paths(args.out)
    _sample_count(args.n_samples)     # the bounds come before any input is read
    _grid_count(args.grid)
    scanner = lio.load_scanner(args.scanner) if args.scanner else None
    r_min, r_max, r_step = map(as_fraction, (args.r_min, args.r_max, args.r_step))
    if r_step <= 0 or r_max < r_min:
        raise DomainError("need r_step > 0 and r_max >= r_min")
    n_ratios, m_list = (r_max - r_min) // r_step + 1, _parse_m_list(args.m)
    if (cells := n_ratios * len(m_list)) > MAX_SWEEP_CELLS:
        raise DomainError(f"sweep of {value_text(cells)} cells exceeds {MAX_SWEEP_CELLS}")
    r_grid = [r_min + i * r_step for i in range(n_ratios)]
    rows = sweep_designs(r_grid, m_list, config=scanner,
                         n_samples=args.n_samples, n_grid=args.grid,
                         workers=sweep_workers_from_env())
    lio.write_csv(args.out, ["r", "m", "rule", "fill_factor", "scanning_range", "status"],
                  ([float(row.r), row.m, row.rule, row.fill_factor, row.scanning_range,
                    row.status] for row in rows))
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from .modulated import (ModulatedParams, OptimizeOptions, initial_params, optimize,
                            positive_region_density, reference_pattern, synthesize_modulated)
    lio.check_out_paths(args.out, args.trace)
    opts = OptimizeOptions(**_given(args, "max_iters", "step", "threshold", "n_samples",
                                    "constraint"))
    scanner = lio.load_scanner(args.scanner)
    wmap = lio.load_weight_map(args.roi)
    r = as_fraction(scanner.fx_res) / as_fraction(scanner.fy_res)
    if args.init:
        init = ModulatedParams.from_dict(lio.read_json(args.init, InvalidParams))
    else:
        init = initial_params(r, qx=scanner.qx, qy=scanner.qy,
                              **_given(args, "m", "n_tones", "y_single_tone"))
    # the result keeps init's m, so its reference is built, or refused, before the descent
    reference = reference_pattern(r, m=init.m, config=scanner, n_samples=opts.n_samples)
    result = optimize(init, wmap, opts)
    optimized = synthesize_modulated(result.params, opts.n_samples)
    payload = result.params.to_dict()
    payload.update({
        "fx_tone_freqs": result.params.fx_tones.tolist(),
        "fy_tone_freqs": result.params.fy_tones.tolist(),
        "final_loss": result.loss,
        "iterations": result.iterations,
        "converged": result.converged,
        "roi_density": positive_region_density(optimized, wmap),
        "roi_density_reference": positive_region_density(reference, wmap),
    })
    _emit_json(payload, args.out)
    if args.trace:
        lio.write_csv(args.trace, ["iteration", "loss"], enumerate(result.loss_trace))
    return 0


def _drift_fn(spec: dict, f_drive: float, f_res: float, q: float, duration: float):
    from .phase import resonance_offset_for_phase_shift
    if not isinstance(spec, dict):
        raise DomainError(f"drift must be a JSON object, got {type(spec).__name__}")
    kind = spec.get("type", "none")
    if kind == "none":
        return lambda t: t * 0.0
    if kind == "linear":
        rate = record_value(spec["rate_per_s"], "rate_per_s")
        return lambda t: rate * t
    if kind == "linear_total":
        total = record_value(spec["total_offset"], "total_offset")
    elif kind == "phase_target":
        target = record_value(spec["target_deg"], "target_deg")
        total = resonance_offset_for_phase_shift(f_drive, f_res, q, target)
    else:
        raise DomainError(f"unknown drift type {value_text(kind)}")
    return lambda t: total * t / duration


def cmd_phase_sim(args: argparse.Namespace) -> int:
    from .phase import DriftScenario, simulate_drift_control
    lio.check_out_paths(args.out)
    scanner = lio.load_scanner(args.scanner)
    spec = lio.read_json(args.scenario, DomainError)
    axis = spec.get("axis", "x")
    with record_errors(f"scenario {lio.path_text(args.scenario)}", DomainError):
        f_res, q = scanner.axis(axis)
        f_drive = record_value(spec.get("f_drive", f_res), "f_drive")
        scenario = DriftScenario(
            drift_fn=_drift_fn(spec.get("drift", {}), f_drive, f_res, q, args.duration),
            frame_time=spec["frame_time"],
            **{k: spec[k] for k in ("control_enabled", "measurement_noise_deg") if k in spec})
    trace = simulate_drift_control(scenario, scanner, axis, f_drive, args.duration,
                                   **_given(args, "seed"))
    lio.write_csv(args.out, ["t", "phase_error_deg", "corrected"],
                  zip(trace.t, trace.phase_error_deg, trace.correction_deg))
    return 0


def cmd_phase_solve(args: argparse.Namespace) -> int:
    from .phase import solve_multitone
    data = lio.read_json(args.samples, DomainError)
    with record_errors(f"samples {lio.path_text(args.samples)}", DomainError):
        x, xq, omegas = ([record_value(v, key) for v in data[key]] for key in ("x", "xq", "omegas"))
        frame_time = record_value(data["frame_time"], "frame_time")
    state = solve_multitone(x, xq, omegas, frame_time)
    payload = {"omegas": list(state.omegas), "amplitudes": list(state.amps),
               "phases_rad": list(state.phases)}
    _emit_json(payload, args.out)
    return 0


# --------------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lissscan",
                                     description="Resonant-scanner trajectory design toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="select a single-tone design near resonance")
    p.add_argument("--r", required=True, help="resonance ratio, decimal or p/q")
    p.add_argument("--m", required=True, type=int, help="frame time in y cycles")
    p.add_argument("--baseline", action="store_true",
                   help="use the every-frame repeating rule instead")
    p.add_argument("--out", type=_path, help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("metrics", help="fill-factor and scanning range of a design")
    p.add_argument("--design", required=True, type=_path,
                   help="design JSON (from the design command)")
    p.add_argument("--scanner", required=True, type=_path, help="scanner config JSON")
    p.add_argument("--frame", dest="frame_index", type=int, default=argparse.SUPPRESS)
    p.add_argument("--n-samples", type=int, default=N_SAMPLES_DEFAULT)
    p.add_argument("--grid", type=int, default=N_GRID_DEFAULT)
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("sweep", help="evaluate both rules over an (r, m) grid")
    p.add_argument("--r-min", required=True)
    p.add_argument("--r-max", required=True)
    p.add_argument("--r-step", required=True)
    p.add_argument("--m", required=True, help="comma-separated frame times")
    p.add_argument("--scanner", type=_path, help="scanner config JSON (quality factors)")
    p.add_argument("--n-samples", type=int, default=N_SAMPLES_DEFAULT)
    p.add_argument("--grid", type=int, default=N_GRID_DEFAULT)
    p.add_argument("--out", required=True, type=_path, help="output CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="focus a multi-tone pattern on a weighted region")
    p.add_argument("--scanner", required=True, type=_path)
    p.add_argument("--roi", required=True, type=_path, help="weight map (PGM or CSV)")
    p.add_argument("--tones", dest="n_tones", type=int, default=argparse.SUPPRESS)
    p.add_argument("--m", type=int, default=argparse.SUPPRESS)
    p.add_argument("--n-samples", type=int, default=argparse.SUPPRESS)
    p.add_argument("--max-iters", type=int, default=argparse.SUPPRESS)
    p.add_argument("--step", type=float, default=argparse.SUPPRESS)
    p.add_argument("--threshold", type=float, default=argparse.SUPPRESS)
    p.add_argument("--constraint", default=argparse.SUPPRESS)
    p.add_argument("--y-single-tone", action="store_true", default=argparse.SUPPRESS)
    p.add_argument("--init", type=_path, help="warm-start params JSON")
    p.add_argument("--out", required=True, type=_path, help="output params JSON")
    p.add_argument("--trace", type=_path, help="optional loss trace CSV")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("phase-sim", help="simulate drift of the oscillator phase")
    p.add_argument("--scenario", required=True, type=_path, help="scenario JSON")
    p.add_argument("--scanner", required=True, type=_path)
    p.add_argument("--duration", required=True, type=float)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--out", required=True, type=_path, help="output trace CSV")
    p.set_defaults(func=cmd_phase_sim)

    p = sub.add_parser("phase-solve", help="recover 3-tone amplitudes and phases")
    p.add_argument("--samples", required=True, type=_path, help="quadrature samples JSON")
    p.add_argument("--out", type=_path)
    p.set_defaults(func=cmd_phase_solve)

    return parser


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message; keep its code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except LissscanError as exc:
        print(f"error:{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
