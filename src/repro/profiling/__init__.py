"""Profiling: register reuse, deadness, last-value locality, critical path."""

from .critpath import CriticalPathBuilder, critical_path_profile
from .deadness import NUM_REG_IDS, reg_id, resolve_deadness
from .lists import DeadHint, HintKind, ProfileLists
from .reuse import Fig1Stats, MAX_MATCHES, ReuseProfile, ReuseProfileBuilder, SiteStats

__all__ = [
    "CriticalPathBuilder",
    "ReuseProfileBuilder",
    "critical_path_profile",
    "NUM_REG_IDS",
    "reg_id",
    "resolve_deadness",
    "DeadHint",
    "HintKind",
    "ProfileLists",
    "Fig1Stats",
    "MAX_MATCHES",
    "ReuseProfile",
    "SiteStats",
]
