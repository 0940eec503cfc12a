"""Pipeline statistics: IPC plus the prediction coverage/accuracy of Table 2."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class SimStats:
    """Counters accumulated over one pipeline run."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    # Value prediction
    predictions: int = 0
    correct_predictions: int = 0
    value_squashes: int = 0  # refetch squash events
    reissued_instructions: int = 0
    # Branches
    branch_mispredicts: int = 0
    # Memory
    l1d_misses: int = 0
    l1i_misses: int = 0
    # Stall attribution (cycles)
    fetch_stall_cycles: int = 0  # fetch blocked on redirect/unresolved branch
    iq_stall_cycles: int = 0  # dispatch blocked: instruction queue full
    rob_stall_cycles: int = 0  # dispatch blocked: reorder buffer full
    iq_occupancy_sum: int = 0  # summed int+fp IQ occupancy per cycle

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of committed instructions that were value-predicted."""
        return self.predictions / self.committed if self.committed else 0.0

    @property
    def accuracy(self) -> float:
        return self.correct_predictions / self.predictions if self.predictions else 0.0

    def counters(self) -> Dict[str, int]:
        """Every raw counter field by name (no derived ratios).

        This is the exact contract the fast timing tier is held to: two
        engines are equivalent iff their ``counters()`` dicts are equal —
        cycle counts, stall attribution and occupancy included, not just IPC.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "ipc": self.ipc,
            "coverage": self.coverage,
            "accuracy": self.accuracy,
            "branch_mispredicts": self.branch_mispredicts,
            "value_squashes": self.value_squashes,
        }
