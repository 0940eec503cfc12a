"""High-level experiment API: named configurations, the shared simulation
session, metrics, and result tables."""

from .experiment import CONFIG_NAMES, ExperimentResult, ExperimentRunner
from .metrics import MetricsRegistry, get_metrics, reset_metrics
from .results import ResultTable, metrics_report, render_metrics
from .session import SimSession, canonical_variant_key, get_session, reset_session
from .sweep import render_sweep, speedup_series, sweep_machine

__all__ = [
    "CONFIG_NAMES",
    "ExperimentResult",
    "ExperimentRunner",
    "MetricsRegistry",
    "ResultTable",
    "SimSession",
    "canonical_variant_key",
    "get_metrics",
    "get_session",
    "metrics_report",
    "render_metrics",
    "render_sweep",
    "reset_metrics",
    "reset_session",
    "speedup_series",
    "sweep_machine",
]
