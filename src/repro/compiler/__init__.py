"""Compiler back end: liveness, webs, interference, reallocation, marking, insertion."""

from .insertion import insert_after
from .interference import build_interference, interferes
from .liveness import LivenessInfo, compute_liveness, defs_and_uses
from .marking import MARKING_LEVELS, mark_static_rvp, marked_pcs
from .realloc import ReallocReport, reallocate
from .stride_pass import StridePassReport, apply_stride_pass
from .webs import Web, WebAnalysis, build_webs

__all__ = [
    "insert_after",
    "StridePassReport",
    "apply_stride_pass",
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
