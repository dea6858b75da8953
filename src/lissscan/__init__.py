"""Trajectory design toolkit for biaxial resonant scanners.

Covers near-resonance single-tone selection with exact rational
frequencies, spatial coverage metrics, multi-tone optimization that
focuses sampling on weighted regions of interest, and phase recovery /
drift-control simulation for keeping patterns locked on hardware.
"""

from .coverage import (CoverageReport, SampledPattern, SweepRow, fill_factor,
                       phase_tolerance_sweep, sample_unmodulated,
                       scanning_range, sweep_designs, sweep_workers_from_env)
from .design import (DesignCase, PeriodReport, UnmodulatedDesign, as_fraction,
                     baseline_repeating_design, case1_criterion,
                     design_unmodulated, repeat_period)
from .errors import (ConfigError, DegeneratePattern, DomainError,
                     IllConditioned, InvalidParams, LissscanError,
                     NoFeasibleDesign, OptimizationFailed, UndefinedPhase,
                     WeightMapError)
from .io import (export_pattern, import_pattern, load_design, load_scanner,
                 load_weight_map, save_design, save_scanner)
from .modulated import (ROI_A, ROI_B, Assignment, ModulatedGradient,
                        ModulatedParams, OptimizeOptions, OptimizeResult,
                        WeightMap, default_tone_indices, gradient,
                        initial_params, objective, optimize,
                        polar_coefficients, positive_region_density,
                        project_absolute, project_rms, reference_pattern,
                        roi_density, synthesize_modulated)
from .phase import (DriftScenario, DriftTrace, MultitoneState, QuadraturePair,
                    plant_phase_lag, quadrature_phase,
                    resonance_offset_for_phase_shift, simulate_drift_control,
                    solve_multitone, synthesize_quadrature, wrap_phase)
from .scanner import (ScannerConfig, peak_frequency, settle_time,
                      transfer_amplitude)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "ConfigError", "CoverageReport", "DegeneratePattern",
    "DesignCase", "DomainError", "DriftScenario", "DriftTrace",
    "IllConditioned", "InvalidParams", "LissscanError", "ModulatedGradient",
    "ModulatedParams", "MultitoneState", "NoFeasibleDesign",
    "OptimizationFailed", "OptimizeOptions", "OptimizeResult", "PeriodReport",
    "QuadraturePair", "ROI_A", "ROI_B", "SampledPattern", "ScannerConfig",
    "SweepRow", "UndefinedPhase", "UnmodulatedDesign", "WeightMap",
    "WeightMapError", "as_fraction", "baseline_repeating_design",
    "case1_criterion", "default_tone_indices", "design_unmodulated",
    "export_pattern", "fill_factor", "gradient",
    "import_pattern", "initial_params", "load_design", "load_scanner",
    "load_weight_map", "objective", "optimize", "peak_frequency",
    "phase_tolerance_sweep", "plant_phase_lag", "polar_coefficients",
    "positive_region_density", "project_absolute", "project_rms",
    "quadrature_phase", "reference_pattern",
    "repeat_period", "resonance_offset_for_phase_shift", "roi_density",
    "sample_unmodulated",
    "save_design", "save_scanner", "scanning_range", "settle_time",
    "simulate_drift_control", "solve_multitone", "sweep_designs", "sweep_workers_from_env",
    "synthesize_modulated", "synthesize_quadrature", "transfer_amplitude",
    "wrap_phase",
]
