"""Critical-path profiling (Tullsen & Calder [15], used by Section 7.3).

The reallocator's third pruning heuristic ranks instructions by their
contribution to the critical data-dependence path through the program.  We
compute the longest dependence chain over the dynamic trace — register
dependences plus memory dependences (load depends on the last store to the
same address) — then walk the chain backward and count how many of each
static instruction's dynamic instances lie on it.

Instructions with zero critical-path contribution are the cheapest register
reuses to abandon when the interference graph cannot be coloured.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from ..sim.trace import TraceRecord
from .deadness import NUM_REG_IDS, reg_id


class CriticalPathBuilder:
    """Incremental single-pass critical-path profiler.

    Feed committed records in order, then call :meth:`finish`.  Only three
    ints per dynamic instruction are retained (depth, parent, static pc), so
    the full :class:`TraceRecord` stream never needs to be materialized.
    """

    def __init__(self) -> None:
        self._depth: List[int] = []
        self._parent: List[Optional[int]] = []
        self._pcs: List[int] = []
        self._reg_producer: List[Optional[int]] = [None] * NUM_REG_IDS
        self._mem_producer: Dict[int, int] = {}
        #: pc -> (nonzero read ids, destination id or None, is_load, is_store)
        self._static: Dict[int, Tuple[Tuple[int, ...], Optional[int], bool, bool]] = {}

    def feed(self, record: TraceRecord) -> None:
        pc = record.pc
        static = self._static.get(pc)
        if static is None:
            inst = record.inst
            dst = inst.writes
            static = self._static[pc] = (
                tuple(reg_id(src) for src in inst.reads if not src.is_zero),
                None if dst is None else reg_id(dst),
                inst.is_load,
                inst.is_store,
            )
        read_ids, dst_id, is_load, is_store = static
        depth = self._depth
        best_depth = 0
        best_parent: Optional[int] = None
        # The first deepest producer wins: operands in order, then memory.
        producers = [self._reg_producer[rid] for rid in read_ids]
        addr = record.addr
        if is_load and addr is not None:
            producers.append(self._mem_producer.get(addr))
        for producer in producers:
            if producer is not None and depth[producer] > best_depth:
                best_depth = depth[producer]
                best_parent = producer

        i = len(depth)
        depth.append(best_depth + 1)
        self._parent.append(best_parent)
        self._pcs.append(pc)

        if dst_id is not None and record.result is not None:
            self._reg_producer[dst_id] = i
        if is_store and addr is not None:
            self._mem_producer[addr] = i

    def finish(self) -> Counter:
        """Walk the deepest chain backward, attributing instances to pcs."""
        if not self._depth:
            return Counter()
        tip = max(range(len(self._depth)), key=lambda i: self._depth[i])
        contributions: Counter = Counter()
        node: Optional[int] = tip
        while node is not None:
            contributions[self._pcs[node]] += 1
            node = self._parent[node]
        return contributions


def critical_path_profile(trace: Iterable[TraceRecord]) -> Counter:
    """Counter mapping static pc -> dynamic instances on the critical path."""
    builder = CriticalPathBuilder()
    for record in trace:
        builder.feed(record)
    return builder.finish()
