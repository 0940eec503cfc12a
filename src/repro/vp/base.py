"""Common value-predictor interface shared by the pipeline simulator.

The pipeline interrogates a predictor at *rename* time and trains it at
*execute/commit* time:

1. ``source(inst)`` — is this instruction a prediction candidate, and where
   would its prediction come from?  Returns a :class:`PredictionSource`
   (``DST`` = the instruction's own destination register, ``REG`` = a
   correlated register, ``STORED`` = a value the predictor itself holds —
   only buffer-based LVP and the idealised last-value-reallocation model use
   ``STORED``).
2. ``confident(pc)`` — should a prediction actually be made this time?
3. ``stored_value(pc)`` — for ``STORED`` sources, the value (or None).
4. ``update(pc, correct, actual)`` — train after the real result is known.
   ``correct`` means the *source value captured at rename* matched the
   result; register-based predictors are trained on this signal whether or
   not a prediction was issued, exactly like the hardware (the candidate
   instruction always reads its old mapping for the comparison).
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from ..isa.instructions import Instruction
from ..isa.registers import Reg


class SourceKind(enum.Enum):
    DST = "dst"  # old value of the destination register (pure RVP)
    REG = "reg"  # value of a correlated register (dead/live hints)
    STORED = "stored"  # value held by the predictor (LVP buffer / ideal LVR)


@dataclass(frozen=True)
class PredictionSource:
    kind: SourceKind
    reg: Optional[Reg] = None  # for REG sources


class ValuePredictor(abc.ABC):
    """Interface the pipeline drives.  Stateless instructions (no destination
    register) are never candidates."""

    __slots__ = ()

    #: human-readable configuration name (shown in stats)
    name: str = "predictor"

    #: does a prediction come from a dedicated value buffer (no register-file
    #: read port cost)?  Mirrors the paper's storage/port accounting.
    table_backed: bool = False

    @abc.abstractmethod
    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        """Prediction source for this instruction, or None if not a candidate."""

    @abc.abstractmethod
    def confident(self, pc: int) -> bool:
        """Whether to actually speculate on this instance."""

    def stored_value(self, pc: int) -> Optional[int]:
        """Value for STORED sources (None suppresses the prediction)."""
        return None

    @abc.abstractmethod
    def update(self, pc: int, correct: bool, actual: int) -> None:
        """Train with the committed outcome."""

    def reset(self) -> None:  # pragma: no cover - trivial default
        """Clear learned state (between runs)."""

    def timing_key(self) -> Optional[Tuple]:
        """The constructor arguments that shape this predictor's run-time
        state, or ``None`` if its timing runs must never be memoized.

        Two fresh instances of one class with equal keys must answer
        ``confident``/``stored_value`` identically for every sequence of
        ``update`` calls.  Everything that only decides *which* pcs are
        candidates and from which source (load filters, hint lists) is left
        out: the routing of :func:`repro.uarch.stream.predictor_routing`
        carries it.  The default, ``None``, is the safe answer for any
        predictor whose state has not been audited this way.
        """
        return None


class NoPredictor(ValuePredictor):
    """The no-prediction baseline."""

    __slots__ = ()

    name = "no_predict"

    def timing_key(self) -> Optional[Tuple]:
        return ()

    def source(self, inst: Instruction) -> Optional[PredictionSource]:
        return None

    def confident(self, pc: int) -> bool:
        return False

    def update(self, pc: int, correct: bool, actual: int) -> None:
        pass
