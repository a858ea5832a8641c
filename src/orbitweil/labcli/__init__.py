"""Experiment configs, runners, serialization, and the CLI."""

from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .experiments import (
    AuditFailure,
    GapRow,
    GapSeries,
    RatioRow,
    RatioSeries,
    Thm14Report,
    Thm17Report,
    run_gap_experiment,
    run_ratio_experiment,
    thm14_hypothesis_report,
    thm17_set_membership,
)
from .io import (
    fmt12,
    write_gap_csv,
    write_orbit_csv,
    write_ratio_csv,
    write_ratio_svg,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "AuditFailure",
    "GapRow",
    "GapSeries",
    "RatioRow",
    "RatioSeries",
    "Thm14Report",
    "Thm17Report",
    "run_gap_experiment",
    "run_ratio_experiment",
    "thm14_hypothesis_report",
    "thm17_set_membership",
    "fmt12",
    "write_gap_csv",
    "write_orbit_csv",
    "write_ratio_csv",
    "write_ratio_svg",
]
