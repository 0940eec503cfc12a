"""Sparse 64-bit word memory.

Addresses are byte addresses; every access moves one aligned 64-bit word
(8 bytes), which is the only access size in the ISA.  Backing storage is a
dict keyed by word index, so programs can scatter data structures anywhere in
a 64-bit address space without preallocating.

A :class:`MemoryImage` is the immutable, compact form of one memory's
contents (two ``uint64`` arrays); workloads keep each input image in that
form and rebuild a fresh mutable :class:`Memory` from it per run.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from ..isa.opcodes import MASK64

WORD_BYTES = 8


class Memory:
    """Sparse word-addressable memory; unwritten words read as zero."""

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}

    @staticmethod
    def _word_index(addr: int) -> int:
        addr &= MASK64
        if addr % WORD_BYTES:
            raise ValueError(f"unaligned access at address {addr:#x}")
        return addr // WORD_BYTES

    def load(self, addr: int) -> int:
        return self._words.get(self._word_index(addr), 0)

    def store(self, addr: int, value: int) -> None:
        self._words[self._word_index(addr)] = value & MASK64

    # ------------------------------------------------------------------
    # Aligned word-index fast path
    # ------------------------------------------------------------------
    # The decoded interpreter (repro.sim.decoded) masks the effective address
    # and checks alignment itself, so its handlers address memory directly by
    # word index and skip the per-access mask/modulo of the checked API above.
    # Callers of these two methods own both invariants: ``index`` is
    # ``masked_addr >> 3`` for an 8-byte-aligned address, and stored values
    # are already confined to 64 bits.

    def load_word_index(self, index: int) -> int:
        return self._words.get(index, 0)

    def store_word_index(self, index: int, value: int) -> None:
        self._words[index] = value

    def write_words(self, addr: int, values: Iterable[int]) -> None:
        """Bulk-initialise consecutive words starting at ``addr``."""
        index = self._word_index(addr)
        for offset, value in enumerate(values):
            self._words[index + offset] = value & MASK64

    def image(self) -> "MemoryImage":
        """The current contents as an immutable :class:`MemoryImage`."""
        words = self._words
        count = len(words)
        return MemoryImage(
            np.fromiter(words.keys(), dtype=np.uint64, count=count),
            np.fromiter(words.values(), dtype=np.uint64, count=count),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memory):
            return NotImplemented
        # Compare modulo zero-valued words (unwritten == written-zero).
        mine = {k: v for k, v in self._words.items() if v}
        theirs = {k: v for k, v in other._words.items() if v}
        return mine == theirs

    def __len__(self) -> int:
        return len(self._words)


class MemoryImage:
    """An immutable memory image: every written word, zeros included, as
    parallel ``uint64`` word-index and value arrays in write order.

    About 16 bytes per word where a :class:`Memory` dict entry costs several
    times that, so a session can keep every input image resident and hand
    each run its own :meth:`memory`.
    """

    __slots__ = ("indices", "values")

    def __init__(self, indices: np.ndarray, values: np.ndarray) -> None:
        self.indices = indices
        self.values = values
        indices.flags.writeable = False
        values.flags.writeable = False

    def memory(self) -> Memory:
        """A fresh mutable :class:`Memory` holding this image."""
        memory = Memory()
        memory._words = dict(zip(self.indices.tolist(), self.values.tolist()))
        return memory

    def image_bytes(self) -> bytes:
        """Canonical bytes of the nonzero words, for content digests.

        The sorted word indices, then their values, as little-endian 64-bit
        integers: memories equal under ``==`` (modulo zero words) give equal
        bytes, on every host.
        """
        keep = self.values != 0
        indices = self.indices[keep]
        order = np.argsort(indices)
        return indices[order].astype("<u8").tobytes() + self.values[keep][order].astype("<u8").tobytes()
