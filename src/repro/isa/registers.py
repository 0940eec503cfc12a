"""Architectural register file specification.

The ISA models an Alpha-flavoured 64-bit load/store RISC machine with 32
integer registers (``r0``-``r31``) and 32 floating-point registers
(``f0``-``f31``).  ``r31`` and ``f31`` are hardwired to zero, as on the Alpha:
writes to them are discarded and reads always return 0.

The calling convention mirrors the DEC OSF/1 Alpha convention closely enough
for the register allocator's purposes (the paper's Section 7.3 assumes "all
non-volatile registers are live at entrance and exit, and each procedure call
uses all argument registers"):

* ``r0``          — integer return value (volatile)
* ``r1``-``r8``   — temporaries (volatile)
* ``r9``-``r14``  — callee-saved (non-volatile)
* ``r15``         — frame pointer (non-volatile)
* ``r16``-``r21`` — argument registers (volatile)
* ``r22``-``r25`` — temporaries (volatile)
* ``r26``         — return address (volatile, written by ``jsr``)
* ``r27``-``r28`` — temporaries (volatile)
* ``r29``         — global pointer (non-volatile)
* ``r30``         — stack pointer (non-volatile)
* ``r31``         — hardwired zero

FP registers follow the same split: ``f0`` return, ``f1``-``f9`` volatile
temporaries, ``f10``-``f15`` callee-saved, ``f16``-``f21`` arguments,
``f22``-``f30`` volatile temporaries, ``f31`` zero.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Tuple

NUM_INT_REGS = 32
NUM_FP_REGS = 32

INT = "int"
FP = "fp"


class Reg(tuple):
    """An architectural register, identified by class (``int``/``fp``) and index.

    ``Reg`` objects are value objects: two references to ``r4`` compare and
    hash equal.  Use the module-level :data:`R` and :data:`F` banks to obtain
    them (``R[4]``, ``F[2]``) rather than constructing instances directly.

    A validated ``(kind, index)`` tuple: the compiler passes and the verifier
    hash and compare registers constantly, and as a tuple those run in C
    (hashing takes about 0.12 µs against 0.28 µs for the frozen dataclass
    this replaces, with the same hash values and the same ``(kind, index)``
    order).  Being a tuple, a register also compares equal to the plain
    tuple ``(kind, index)``.
    """

    __slots__ = ()

    def __new__(cls, kind: str, index: int) -> "Reg":
        if kind not in (INT, FP):
            raise ValueError(f"unknown register class {kind!r}")
        limit = NUM_INT_REGS if kind == INT else NUM_FP_REGS
        if not 0 <= index < limit:
            raise ValueError(f"register index {index} out of range for {kind}")
        return tuple.__new__(cls, (kind, index))

    def __getnewargs__(self) -> Tuple[str, int]:
        # Pickle and copy rebuild through the validating __new__.
        return tuple(self)

    #: ``"int"`` or ``"fp"``
    kind = property(itemgetter(0))
    #: register number within its bank
    index = property(itemgetter(1))

    @property
    def name(self) -> str:
        prefix = "r" if self.kind == INT else "f"
        return f"{prefix}{self.index}"

    @property
    def is_zero(self) -> bool:
        """True for the hardwired-zero registers ``r31`` and ``f31``."""
        return self.index == 31

    @property
    def is_int(self) -> bool:
        return self.kind == INT

    @property
    def is_fp(self) -> bool:
        return self.kind == FP

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


class _RegisterBank:
    """Indexable factory for one register class: ``R[4]`` -> ``Reg('int', 4)``."""

    def __init__(self, kind: str, count: int) -> None:
        self._kind = kind
        self._regs = tuple(Reg(kind, i) for i in range(count))

    def __getitem__(self, index: int) -> Reg:
        return self._regs[index]

    def __iter__(self) -> Iterator[Reg]:
        return iter(self._regs)

    def __len__(self) -> int:
        return len(self._regs)


R = _RegisterBank(INT, NUM_INT_REGS)
F = _RegisterBank(FP, NUM_FP_REGS)

ZERO = R[31]
FZERO = F[31]
RETURN_VALUE = R[0]
RETURN_ADDRESS = R[26]
STACK_POINTER = R[30]
GLOBAL_POINTER = R[29]
FRAME_POINTER = R[15]

ARG_REGS = tuple(R[i] for i in range(16, 22))
FP_ARG_REGS = tuple(F[i] for i in range(16, 22))

CALLEE_SAVED_INT = tuple(R[i] for i in range(9, 16)) + (GLOBAL_POINTER, STACK_POINTER)
CALLEE_SAVED_FP = tuple(F[i] for i in range(10, 16))

#: Registers the register allocator may freely reassign inside a procedure.
#: The special-purpose registers (zero, ra, sp, gp, fp) are excluded.
ALLOCATABLE_INT = tuple(
    R[i] for i in range(NUM_INT_REGS) if R[i] not in (ZERO, RETURN_ADDRESS, STACK_POINTER, GLOBAL_POINTER, FRAME_POINTER)
)
ALLOCATABLE_FP = tuple(F[i] for i in range(NUM_FP_REGS) if not F[i].is_zero)


def is_volatile(reg: Reg) -> bool:
    """True if ``reg`` is caller-saved under the calling convention."""
    if reg.is_zero:
        return False
    if reg.kind == INT:
        return reg not in CALLEE_SAVED_INT
    return reg not in CALLEE_SAVED_FP


def parse_reg(text: str) -> Reg:
    """Parse a register name such as ``r17`` or ``f3`` (case-insensitive)."""
    text = text.strip().lower()
    if len(text) < 2 or text[0] not in "rf":
        raise ValueError(f"bad register name {text!r}")
    try:
        index = int(text[1:])
    except ValueError as exc:
        raise ValueError(f"bad register name {text!r}") from exc
    bank = R if text[0] == "r" else F
    if not 0 <= index < len(bank):
        raise ValueError(f"register index out of range in {text!r}")
    return bank[index]
