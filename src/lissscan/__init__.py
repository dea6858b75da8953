"""Trajectory design toolkit for biaxial resonant scanners.

Covers near-resonance single-tone selection with exact rational
frequencies, spatial coverage metrics, multi-tone optimization that
focuses sampling on weighted regions of interest, and phase recovery /
drift-control simulation for keeping patterns locked on hardware. The
namespace is lazy (PEP 562): a name imports its module on first use.
"""

import importlib

__version__ = "0.1.0"

# Each module and the names it exports; __all__ is derived from this table.
_EXPORTS = {
    "coverage": """CoverageReport SampledPattern SweepRow fill_factor phase_tolerance_sweep
        sample_unmodulated scanning_range sweep_designs sweep_workers_from_env""",
    "design": """DesignCase PeriodReport UnmodulatedDesign as_fraction baseline_repeating_design
        case1_criterion design_unmodulated repeat_period""",
    "errors": """ConfigError DegeneratePattern DomainError IllConditioned InvalidParams
        LissscanError OptimizationFailed UndefinedPhase WeightMapError""",
    "io": """export_pattern import_pattern load_design load_scanner load_weight_map save_design
        save_scanner""",
    "modulated": """ROI_A ROI_B Assignment ModulatedGradient ModulatedParams OptimizeOptions
        OptimizeResult WeightMap default_tone_indices gradient initial_params objective optimize
        polar_coefficients positive_region_density project_absolute project_rms
        reference_pattern roi_density synthesize_modulated""",
    "phase": """DriftScenario DriftTrace MultitoneState QuadraturePair plant_phase_lag
        quadrature_phase resonance_offset_for_phase_shift simulate_drift_control
        solve_multitone synthesize_quadrature wrap_phase""",
    "scanner": "ScannerConfig peak_frequency settle_time transfer_amplitude",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    elif name in _EXPORTS or name == "cli":      # a submodule
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
