"""Functional simulation substrate: memory, architectural state, interpreter, traces."""

from .decoded import DecodedProgram, decode
from .functional import (
    FunctionalSimulator,
    RunResult,
    SimulationError,
    run_program,
)
from .machine import ArchState
from .memory import WORD_BYTES, Memory
from .trace import TraceRecord

__all__ = [
    "DecodedProgram",
    "decode",
    "FunctionalSimulator",
    "RunResult",
    "SimulationError",
    "run_program",
    "ArchState",
    "WORD_BYTES",
    "Memory",
    "TraceRecord",
]
