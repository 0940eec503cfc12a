"""Synthetic SPEC95-model workloads (see DESIGN.md Section 2 for the mapping)."""

from .base import DATA_BASE, HEADER_BASE, SCRATCH_BASE, STACK_BASE, Workload
from .suite import C_SPEC, F_SPEC, PAPER_WORKLOADS, WORKLOAD_CLASSES, all_workloads, make_workload

__all__ = [
    "DATA_BASE",
    "HEADER_BASE",
    "SCRATCH_BASE",
    "STACK_BASE",
    "Workload",
    "C_SPEC",
    "F_SPEC",
    "PAPER_WORKLOADS",
    "WORKLOAD_CLASSES",
    "all_workloads",
    "make_workload",
]
