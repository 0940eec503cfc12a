"""Dynamic trace records emitted by the functional simulator.

One :class:`TraceRecord` per *committed* instruction.  The fields cover
everything the profilers and the Figure 1 analysis need:

* ``old_dest`` — the value in the destination register *before* the write.
  Register-value prediction predicts ``result == old_dest``; this field is the
  heart of the whole reproduction.
* ``src_values`` — operand values actually read.
* ``addr`` — effective address for loads/stores.
* ``taken`` / ``next_pc`` — control-flow outcome.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import NamedTuple, Optional, Tuple

from ..isa.instructions import Instruction
from ..isa.registers import Reg


class TraceRecord(NamedTuple):
    """One committed dynamic instruction.

    A tuple-backed record: every run builds one per dynamic instruction, and
    ``tuple.__new__(TraceRecord, fields)`` (what the decoded engine's
    handlers call) costs about 0.18 µs against 1.56 µs for the frozen
    dataclass it replaces, whose constructor sets each field through
    ``object.__setattr__``.  Fields read through C-level tuple getters, and
    records are immutable: assigning a field raises
    :class:`dataclasses.FrozenInstanceError`.  Build a changed copy with
    ``record._replace(...)``.
    """

    seq: int  # dynamic instruction number, 0-based
    pc: int
    inst: Instruction
    next_pc: int
    result: Optional[int] = None  # value written to dst (None if no dest)
    old_dest: Optional[int] = None  # prior value of dst (None if no dest)
    src_values: Tuple[int, ...] = ()
    addr: Optional[int] = None  # effective address for memory ops
    store_value: Optional[int] = None
    taken: Optional[bool] = None  # conditional branches only

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def op_name(self) -> str:
        return self.inst.op.name

    @property
    def dst(self) -> Optional[Reg]:
        return self.inst.writes

    @property
    def is_load(self) -> bool:
        return self.inst.is_load

    @property
    def register_value_reused(self) -> bool:
        """True when the instruction produced the value already in its
        destination register — i.e. a correct same-register RVP prediction."""
        return self.result is not None and self.result == self.old_dest
