"""Compiler back end: liveness, webs, interference, reallocation, marking."""

from .interference import build_interference, interferes
from .liveness import LivenessInfo, compute_liveness, defs_and_uses
from .marking import MARKING_LEVELS, mark_static_rvp, marked_pcs
from .realloc import ReallocReport, reallocate
from .webs import Web, WebAnalysis, build_webs

__all__ = [
    "build_interference",
    "interferes",
    "LivenessInfo",
    "compute_liveness",
    "defs_and_uses",
    "MARKING_LEVELS",
    "mark_static_rvp",
    "marked_pcs",
    "ReallocReport",
    "reallocate",
    "Web",
    "WebAnalysis",
    "build_webs",
]
