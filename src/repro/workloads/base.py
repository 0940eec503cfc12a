"""Workload framework.

A :class:`Workload` pairs one fixed :class:`Program` (the "binary") with a
family of memory images (the "inputs").  The paper profiles on the SPEC95
*train* inputs and measures on *ref*; we reproduce that split: ``train`` and
``ref`` memory images are drawn from the same distributions with different
seeds, and the program text never changes between them.

Each of the nine workload classes models the value-locality *structure* of one
SPEC95 benchmark the paper evaluates — see DESIGN.md Section 2 for why this
substitution is faithful.  The structural levers are:

* run-length / sparsity / Zipf reuse of loaded data (last-value and constant
  locality),
* correlated arrays and shared heap atoms (dead/live-register correlation,
  Figure 2a),
* deliberately tight register allocation that clobbers a load's destination
  register inside the loop (the Figure 2c pattern, which the last-value
  reallocation can undo),
* branchiness and pointer chasing (go / li / perl) versus regular FP loops
  (hydro2d / mgrid / su2cor / turb3d).
"""

from __future__ import annotations

import abc
import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from ..isa.program import Program
from ..sim.memory import Memory, MemoryImage

#: Memory-map conventions shared by all workloads (byte addresses).
HEADER_BASE = 0x1000  # per-workload scalar parameters (loop counts, bases)
DATA_BASE = 0x1_0000  # first data array
DATA_STRIDE = 0x10_0000  # spacing between major arrays
SCRATCH_BASE = 0xF0_0000  # outputs / scratch
STACK_BASE = 0xE0_0000  # stack pointer initial value (grows down)

INPUT_NAMES = ("train", "ref")


class Workload(abc.ABC):
    """One benchmark model: a fixed program plus seeded memory images."""

    #: short benchmark name, e.g. ``"li"``
    name: str = ""
    #: ``"C"`` (integer SPEC) or ``"F"`` (floating-point SPEC)
    category: str = "C"
    #: one-line description of what the model captures
    description: str = ""

    def __init__(self, scale: float = 1.0) -> None:
        """``scale`` multiplies the default data sizes / iteration counts."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self._program: Optional[Program] = None
        self._images: Dict[str, MemoryImage] = {}

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _build_program(self) -> Program:
        """Construct the (input-independent) program."""

    @abc.abstractmethod
    def _populate_memory(self, memory: Memory, rng: np.random.Generator) -> None:
        """Fill ``memory`` with one input image (header + data arrays)."""

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = self._build_program()
        return self._program

    def seed(self, input_name: str) -> int:
        """Deterministic seed for an input image."""
        if input_name not in INPUT_NAMES:
            raise ValueError(f"unknown input {input_name!r}; expected one of {INPUT_NAMES}")
        return zlib.crc32(f"{self.name}:{input_name}".encode())

    def image(self, input_name: str = "ref") -> MemoryImage:
        """The input image, populated once per workload instance.

        :class:`~repro.core.session.SimSession` keeps one instance per
        ``(name, scale)``, so each image is built once per session; the
        campaign's journal header digests this same stored image.
        """
        image = self._images.get(input_name)
        if image is None:
            rng = np.random.default_rng(self.seed(input_name))
            memory = Memory()
            self._populate_memory(memory, rng)
            image = self._images[input_name] = memory.image()
        return image

    def memory(self, input_name: str = "ref") -> Memory:
        """A fresh mutable :class:`Memory` holding the input image.

        Every call returns an independent memory rebuilt from the stored
        :meth:`image`, so a run's stores never reach the next run.
        """
        return self.image(input_name).memory()

    def build(self, input_name: str = "ref") -> Tuple[Program, Memory]:
        return self.program, self.memory(input_name)

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def n(self, base: int, minimum: int = 1) -> int:
        """Scale an element count."""
        return max(minimum, int(round(base * self.scale)))

    @staticmethod
    def write_header(memory: Memory, *values: int) -> None:
        """Write scalar parameters at HEADER_BASE (word slots 0, 1, ...)."""
        memory.write_words(HEADER_BASE, values)

    @staticmethod
    def array_base(index: int) -> int:
        """Byte address of major data array ``index``."""
        return DATA_BASE + index * DATA_STRIDE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.name} scale={self.scale}>"
