"""Run hand-made mutants of src/ against the tests that should notice them.

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

Each mutant replaces one piece of text, found exactly once, in a copy of
src/ (with tests/, bench/ and pyproject.toml beside it in a temporary
directory, so the whole suite can run there too), then runs its named
tests there with pytest. A failing run kills the mutant. The named tests are first run once on the unchanged copy, which
must pass. One line per mutant gives the outcome and the name; a mutant whose
outcome differs from the one expected is marked with "!", and any such
mutant, or one whose text is no longer in src/, makes the exit status 1.
An expected survivor is an equivalent mutant: no input tells it apart
(see the reason beside it). Standard library only; pytest does not
collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULATED = "tests/test_modulated.py::"
ASSIGN_TESTS = [MODULATED + "test_assign_is_bit_identical_to_the_row_loop"]
COVERAGE = "tests/test_coverage.py::"
PHASE = "tests/test_phase.py::"
DESIGN = "tests/test_design.py::"
IO_CLI = "tests/test_io_cli.py::"
SCANNER = "tests/test_scanner.py::"
FUZZ = "tests/test_api_fuzz.py::"
WORK = "tests/test_work_counts.py::"

# name: (file under src/lissscan, text, replacement, tests, expected outcome, reason)
MUTANTS = {
    "nan-samples-dropped": (
        "modulated.py",
        "    if hint is not None and not (np.isfinite(x).all() and np.isfinite(y).all()):\n",
        "    if False:\n",
        ASSIGN_TESTS, "killed", "a NaN x fails both box comparisons"),
    "r2-one-ulp-low": (
        "modulated.py", "reach = _reach(bound[p:q].max())",
        "reach = _reach(np.nextafter(bound[p:q].max(), 0.0))",
        ASSIGN_TESTS, "survived", "one ulp of r2 is far inside the relative margin 2**-20"),
    "box-test-strict": (
        "modulated.py",
        "keep = ((x >= xlo - reach) & (x <= xhi + reach)\n"
        "                    & (y >= ylo - reach) & (y <= yhi + reach))",
        "keep = ((x > xlo - reach) & (x < xhi + reach)\n"
        "                    & (y > ylo - reach) & (y < yhi + reach))",
        ASSIGN_TESTS, "survived", "a sample on the widened box's edge is already past r2"),
    "hint-unused": (
        "modulated.py", "        if hint is not None:\n", "        if False:\n",
        ASSIGN_TESTS, "survived", "it costs only time"),
    "no-margin": (
        "modulated.py", "return math.sqrt(r2) * (1.0 + 2.0**-20) + 2.0**-20",
        "return math.sqrt(r2)", ASSIGN_TESTS, "killed", ""),
    "no-absolute-margin": (
        "modulated.py", "return math.sqrt(r2) * (1.0 + 2.0**-20) + 2.0**-20",
        "return math.sqrt(r2) * (1.0 + 2.0**-20)", ASSIGN_TESTS, "killed", ""),
    "no-relative-margin": (
        "modulated.py", "return math.sqrt(r2) * (1.0 + 2.0**-20) + 2.0**-20",
        "return math.sqrt(r2) + 2.0**-20", ASSIGN_TESTS, "killed", ""),
    "smallest-hint-distance": (
        "modulated.py", "reach = _reach(bound[p:q].max())", "reach = _reach(bound[p:q].min())",
        ASSIGN_TESTS, "killed", ""),
    "line-search-strict": (
        "modulated.py", "if _loss_fixed(x, y, wmap, idx, wbar) <= trace[-1]:",
        "if _loss_fixed(x, y, wmap, idx, wbar) < trace[-1]:",
        [MODULATED + "test_optimize_takes_the_full_step_when_its_loss_equals_the_current_one"],
        "killed", ""),
    "patience-strict": (
        "modulated.py", "if before - best_loss <= REL_TOL * max(before, 1e-12):",
        "if before - best_loss < REL_TOL * max(before, 1e-12):",
        [MODULATED + "test_optimize_stops_when_the_progress_equals_the_tolerance_exactly"],
        "killed", ""),
    "optimize-gradient-check-alpha-only": (
        "modulated.py",
        "            if not np.isfinite(grad).all():\n                raise OptimizationFailed",
        "            if not np.isfinite(grad[:n_x]).all():\n                raise OptimizationFailed",
        [MODULATED + "test_optimize_fails_with_its_trace_when_the_gradient_is_not_finite"],
        "killed", ""),
    "gradient-check-alpha-only": (
        "modulated.py",
        "    if not np.isfinite(grad).all():\n        raise DomainError",
        "    if not np.isfinite(grad[:len(params.alpha)]).all():\n        raise DomainError",
        [MODULATED + "test_gradient_refuses_a_non_finite_entry_in_any_coefficient"], "killed", ""),
    "absolute-never-shifted": (
        "modulated.py", "    if total <= DIRECT_SIMPLEX_SUM:\n", "    if total <= math.inf:\n",
        [MODULATED + "test_absolute_projection_places_magnitudes_of_2_to_the_53_and_above"],
        "killed", ""),
    "absolute-norm-x-only": (
        "modulated.py",
        "        norm = max(axis_norm(a, g), axis_norm(b, d))\n",
        "        norm = axis_norm(a, g)\n",
        [MODULATED + "test_absolute_constraint_norm_is_the_larger_axis_sum"], "killed", ""),
    "baseline-zero-ratio-allowed": (
        "design.py", '    if r <= 0:\n        raise DomainError(f"resonance ratio must be positive',
        '    if r < 0:\n        raise DomainError(f"resonance ratio must be positive',
        [DESIGN + "test_ratio_and_frame_time_bounds"], "killed", ""),
    "design-fy-unchecked": (
        "design.py", "if self.fx <= 0 or self.fy <= 0:", "if self.fx <= 0:",
        [DESIGN + "test_a_design_refuses_a_tone_frequency_that_is_not_positive"], "killed", ""),
    "retrace-tolerance-inclusive": (
        "design.py", "* 10**9 < q:", "* 10**9 <= q:",
        [DESIGN + "test_a_phase_offset_of_exactly_the_tolerance_is_not_an_integer"], "killed", ""),
    "help-exits-two": (
        "cli.py", "return int(exc.code or 0)", "return 2", [IO_CLI + "test_cli_error_paths"],
        "killed", ""),
    "reference-of-default-m": (
        "cli.py", "reference_pattern(r, m=init.m,", "reference_pattern(r, m=7,",
        [IO_CLI + "test_cli_optimize_refuses_a_reference_it_cannot_build_before_the_descent"],
        "killed", ""),
    "seed-default-restated": (
        "cli.py", '"--seed", type=int, default=argparse.SUPPRESS', '"--seed", type=int, default=0',
        [IO_CLI + "test_cli_metrics_and_phase_sim_take_an_absent_frame_and_seed_from_the_library"],
        "killed", ""),
    "out-path-twice-allowed": (
        "io.py", "        if real in seen:\n", "        if False:\n",
        [IO_CLI + "test_check_out_paths_refuses_a_file_named_twice"], "killed", ""),
    "fill-reach-no-slack": (
        "coverage.py", "reach = np.sqrt(bound.take(flat)) / n_grid + 1e-9",
        "reach = np.sqrt(bound.take(flat)) / n_grid",
        [COVERAGE + "test_fill_factor_measures_a_nearest_sample_just_past_its_cell_bound"],
        "killed", ""),
    "coarse-reach-no-slack": (
        "coverage.py", "reach = np.minimum(reach, np.sqrt(coarse) + 1e-9)",
        "reach = np.minimum(reach, np.sqrt(coarse))",
        [COVERAGE + "test_nearest_squared_keeps_what_the_coarse_reach_allows"], "killed", ""),
    "window-never-widens": (
        "coverage.py", "    if last > _BOUND_ROWS:\n", "    if False:\n",
        [WORK + "test_fill_factor_work_on_phase_shifted_designs"], "killed", ""),
    "bound-rows-two": (
        "coverage.py", "_BOUND_ROWS = 6 ", "_BOUND_ROWS = 2 ",
        [WORK + "test_fill_factor_work_on_the_acceptance_sweep"], "killed", ""),
    "widen-offset-short": (
        "coverage.py", "(2 * dj + 1) ** 2", "(2 * dj) ** 2",
        [COVERAGE + "test_fill_factor_r_max_is_exactly_the_every_center_maximum"], "killed", ""),
    "sweep-workers-zero-allowed": (
        "coverage.py", 'number_value(workers, "workers", 1, convert=int)',
        'number_value(workers, "workers", 0, convert=int)',
        [COVERAGE + "test_sweep_refuses_fewer_than_one_worker"], "killed", ""),
    "sweep-only-domain-errors-flagged": (
        "coverage.py", "        except LissscanError as exc:\n", "        except DomainError as exc:\n",
        [COVERAGE + "test_sweep_flags_failing_cells_instead_of_dropping_them"], "survived",
        "the rules, ScannerConfig and scanning_range raise no other LissscanError"),
    "sweep-last-geometry-args": (
        "coverage.py", "jobs.setdefault(geometry, (design, cell_config, n_samples, n_grid))",
        "jobs[geometry] = (design, cell_config, n_samples, n_grid)",
        [COVERAGE + "test_sweep_cells_sharing_a_geometry_share_a_fill_factor"], "survived",
        "a geometry is scored at unit amplitude, so its cell's config does not enter"),
    "sample-y-phase-dropped": (
        "coverage.py", "np.cos(2.0 * np.pi * float(design.fy) * t + design.phiy)",
        "np.cos(2.0 * np.pi * float(design.fy) * t)",
        [COVERAGE + "test_sampling_takes_the_y_phase_of_the_design"], "killed", ""),
    "pattern-ndim-t-only": (
        "coverage.py", "if not (self.t.ndim == self.x.ndim == self.y.ndim == 1):",
        "if not self.t.ndim == 1:",
        [COVERAGE + "test_sampled_pattern_refuses_a_column_of_samples"], "killed", ""),
    "pattern-step-no-atol": (
        "coverage.py", "(np.abs(steps - step) <= 1e-12 + 1e-9 * step)",
        "(np.abs(steps - step) <= 1e-9 * step)",
        [COVERAGE + "test_the_uniform_step_check_keeps_the_tolerances_of_np_allclose"], "killed",
        ""),
    "offset-from-raw-arguments": (
        "phase.py", "    f_drive, f_res, q = _plant(f_drive, f_res, q)\n    base = ",
        "    base = ",
        ["tests/test_phase.py::test_resonance_offset_is_computed_from_the_checked_floats"],
        "killed", ""),
    "phase-target-pi": (
        "phase.py", "    if not 0.0 < target < math.pi:\n", "    if not 0.0 < target <= math.pi:\n",
        ["tests/test_phase.py::test_resonance_offset_refuses_a_target_of_exactly_180_degrees"],
        "killed", ""),
    "p2-raster-one-past": (
        "io.py", "dtype=np.float64)[:n]", "dtype=np.float64)[:n + 1]",
        ["tests/test_io_cli.py::test_pgm_drops_samples_past_width_times_height"], "killed", ""),
    "sweep-empty-m-allowed": (
        "cli.py",
        '    if not values:\n        raise DomainError("--m must name at least one frame time")\n',
        "", [IO_CLI + "test_cli_sweep_refuses_an_empty_m_list_before_building_the_grid"],
        "killed", ""),
    "comb-pair-clause-dropped": (
        "phase.py", "            if abs(beats - round(beats)) < 1e-9:\n", "            if False:\n",
        [PHASE + "test_doubled_frame_time_aliases_the_tones"], "killed", ""),
    "whole-cycles-clause-dropped": (
        "phase.py", "    if np.all(np.abs(cycles - np.round(cycles)) < 1e-9):\n", "    if False:\n",
        [PHASE + "test_doubled_frame_time_aliases_the_tones"], "killed", ""),
    "whole-cycles-clause-always": (
        "phase.py", "    if np.all(np.abs(cycles - np.round(cycles)) < 1e-9):\n", "    if True:\n",
        [PHASE + "test_a_pair_on_the_sampling_comb_is_named_alone"], "killed", ""),
    "multitone-finite-unchecked": (
        "phase.py",
        "    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xq))"
        " and np.all(np.isfinite(w))):\n", "    if False:\n",
        [PHASE + "test_solve_multitone_validation"], "killed", ""),
    "ladder-ratio-sign-unchecked": (
        "modulated.py",
        '    if r <= 0:\n        raise InvalidParams("resonance ratio must be positive")\n', "",
        [MODULATED + "test_tone_ladders_pinned"], "killed", ""),
    "synthesis-errstate-dropped": (
        "modulated.py",
        '@np.errstate(over="ignore", invalid="ignore")    # non-finite samples raise instead\n'
        "def synthesize_modulated(", "def synthesize_modulated(",
        [MODULATED + "test_synthesis_past_float_range_is_a_domain_error_without_a_warning"],
        "killed", ""),
    "ratio-exponent-unbounded": (
        "design.py", "    if isinstance(value, str):\n        _exponent_bounded(value)\n", "",
        [DESIGN + "test_a_ratio_exponent_past_the_int_digit_bound_is_refused_unparsed"], "killed",
        ""),
    "out-path-not-required": (
        "io.py", "(_require_path(path) for path in paths if path is not None)",
        "(Path(path) for path in filter(None, paths))",
        [IO_CLI + "test_a_path_argument_must_be_a_non_empty_str_or_path_like"], "killed", ""),
    "value-text-cut-one-late": (
        "errors.py", "return text if len(text) <= _SHOWN else",
        "return text if len(text) <= _SHOWN + 1 else",
        [FUZZ + "test_a_refused_value_is_shown_whole_up_to_64_characters_of_its_repr"], "killed",
        ""),
    "bytes-read-as-number": (
        "errors.py", "isinstance(value, (str, bytes, bytearray))", "isinstance(value, str)",
        [FUZZ + "test_an_edge_value_gives_a_checked_result_or_a_lissscan_error"], "killed", ""),
    "int-digit-limit-unguarded": (
        "errors.py", "    except ValueError:      # an int past",
        "    except TypeError:      # an int past",
        [FUZZ + "test_a_refused_number_of_any_length_gives_a_short_message"], "killed", ""),
    "missing-field-raw": (
        "errors.py",
        '    except KeyError as exc:\n        raise error(f"{record} missing field {exc}") from exc\n',
        "", [SCANNER + "test_a_missing_or_null_scanner_field_is_named"], "killed", ""),
    "q-below-one": (
        "scanner.py", '("qy", 1)', '("qy", 0)', [SCANNER + "test_config_validation"], "killed", ""),
    "y-axis-takes-qx": (
        "scanner.py", "return self.fy_res, self.qy", "return self.fy_res, self.qx",
        [SCANNER + "test_axes_are_independent"], "killed", ""),
    "zero-division-uncaught": (
        "scanner.py", "except (OverflowError, ZeroDivisionError):", "except OverflowError:",
        [SCANNER + "test_response_stays_finite_where_a_square_leaves_the_float_range"], "killed",
        ""),
    "from-dict-drops-qy": (
        "scanner.py", '("fy_res", "qx", "qy")', '("fy_res", "qx")',
        [SCANNER + "test_from_dict_takes_absent_fields_from_the_dataclass"], "killed", ""),
}


def passes(tests: list[str], file: str = "", text: str = "", replacement: str = "") -> bool | None:
    """Whether tests pass on a copy of the tree with text replaced in file
    (nothing replaced when file is empty); None when text is not there once."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "bench"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if file:
            target = copy / "src" / "lissscan" / file
            source = target.read_text()
            if source.count(text) != 1:
                return None
            target.write_text(source.replace(text, replacement))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
    return done.returncode == 0


def run(name: str) -> tuple[str, bool]:
    """The outcome of one mutant, and whether it is the expected one."""
    file, text, replacement, tests, expected, _ = MUTANTS[name]
    passed = passes(tests, file, text, replacement)
    outcome = "stale" if passed is None else "survived" if passed else "killed"
    return outcome, outcome == expected


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(MUTANTS)}")
        return 2
    tests = sorted({test for name in names or MUTANTS for test in MUTANTS[name][3]})
    if not passes(tests):
        print("the named tests fail on the unchanged tree")
        return 1
    ok = True
    for name in names or MUTANTS:
        outcome, as_expected = run(name)
        reason = MUTANTS[name][5]
        mark = "" if as_expected else "!"
        print(f"{mark}{outcome:9s} {name}" + (f"  ({reason})" if reason else ""))
        ok &= as_expected
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
