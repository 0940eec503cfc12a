"""Register-reuse profiling (paper Sections 1 and 5).

Single streamed forward pass over a functional trace
(:class:`ReuseProfileBuilder`): it mirrors the architectural register file,
keeps an inverted index ``value -> registers currently holding it``, and for
every result-producing dynamic instruction records which registers already
held the result (excluding the destination and the hardwired zeros), who
wrote them, whether the destination itself held it (same-register reuse),
and whether the instruction's previous dynamic result matches (last-value).

Deadness of each matched register is resolved *online* in the same pass: a
match opens a pending query on the register, and the register's next
architectural access answers it — a read means the register was live, a
write (or end of trace) means it was dead, with reads taking precedence
within one instruction.  This is the streaming equivalent of the backward
sweep in :func:`repro.profiling.deadness.resolve_deadness`, and it never
needs the trace materialized.

The aggregate feeds three consumers:

* the Figure 1 analysis (cumulative same / dead / any / any-or-LVP fractions
  for loads),
* the four profile lists of Section 5 (:class:`~repro.profiling.lists.ProfileLists`),
* the Section 7.3 reallocator, which needs each dead-correlation's *primary
  producer* instruction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..isa.registers import F, R, Reg
from ..sim.trace import TraceRecord
from .deadness import NUM_REG_IDS, reg_id
from .lists import DeadHint, ProfileLists

#: Cap on per-instruction match candidates, to bound profile memory on
#: pathological value distributions (e.g. a register file full of zeros).
MAX_MATCHES = 12


def _reg_from_id(rid: int) -> Reg:
    return R[rid] if rid < 32 else F[rid - 32]


@dataclass
class SiteStats:
    """Aggregated reuse statistics for one static instruction."""

    pc: int
    op_name: str
    is_load: bool
    count: int = 0
    same_hits: int = 0
    lv_hits: int = 0
    any_hits: int = 0  # result present in some other register
    dead_hits: Counter = field(default_factory=Counter)  # rid -> hits while dead
    live_hits: Counter = field(default_factory=Counter)  # rid -> hits while live
    producers: Dict[int, Counter] = field(default_factory=dict)  # rid -> Counter[pc]

    def same_rate(self) -> float:
        return self.same_hits / self.count if self.count else 0.0

    def lv_rate(self) -> float:
        return self.lv_hits / self.count if self.count else 0.0

    def best_dead(self) -> Optional[Tuple[Reg, float, Optional[int]]]:
        """Best dead-correlated register: (reg, hit rate, primary producer pc)."""
        if not self.dead_hits or not self.count:
            return None
        rid, hits = self.dead_hits.most_common(1)[0]
        producer = None
        if rid in self.producers and self.producers[rid]:
            producer = self.producers[rid].most_common(1)[0][0]
        return _reg_from_id(rid), hits / self.count, producer

    def best_any_reg(self) -> Optional[Tuple[Reg, float]]:
        """Best correlated register regardless of deadness (live optimisation)."""
        combined = self.dead_hits + self.live_hits
        if not combined or not self.count:
            return None
        rid, hits = combined.most_common(1)[0]
        return _reg_from_id(rid), hits / self.count


@dataclass
class Fig1Stats:
    """Cumulative load-reuse fractions, the four bars of Figure 1."""

    loads: int = 0
    same: int = 0
    same_or_dead: int = 0
    any_reg: int = 0
    any_reg_or_lvp: int = 0

    def fractions(self) -> Dict[str, float]:
        if not self.loads:
            return {"same": 0.0, "dead": 0.0, "any": 0.0, "any_or_lvp": 0.0}
        return {
            "same": self.same / self.loads,
            "dead": self.same_or_dead / self.loads,
            "any": self.any_reg / self.loads,
            "any_or_lvp": self.any_reg_or_lvp / self.loads,
        }


class _DeadEvent:
    """Defers one Figure-1 ``same_or_dead`` increment until the first matched
    register of a load proves dead (it may never, in which case it lapses)."""

    __slots__ = ("fig1", "counted")

    def __init__(self, fig1: Fig1Stats) -> None:
        self.fig1 = fig1
        self.counted = False


class ReuseProfileBuilder:
    """Incremental single-pass construction of a :class:`ReuseProfile`.

    Feed committed records in order (e.g. straight off
    :meth:`~repro.sim.functional.FunctionalSimulator.iter_run`), then call
    :meth:`finish`.  Deadness queries opened by value matches are answered by
    the matched register's next architectural access, so no backward pass —
    and no materialized trace — is needed.
    """

    def __init__(self) -> None:
        self._sites: Dict[int, SiteStats] = {}
        self._fig1 = Fig1Stats()
        self._reg_values = [0] * NUM_REG_IDS
        self._value_to_regs: Dict[int, Set[int]] = {0: set(range(NUM_REG_IDS))}
        self._last_writer: List[Optional[int]] = [None] * NUM_REG_IDS
        self._last_result: Dict[int, int] = {}
        #: rid -> open queries [(site, producer pc, deferred fig1 event)]
        self._pending: Dict[int, List[Tuple[SiteStats, Optional[int], Optional[_DeadEvent]]]] = {}
        #: pc -> (nonzero read ids, destination id or None, its register
        #: class's id range, is_load)
        self._static: Dict[int, Tuple[Tuple[int, ...], Optional[int], Tuple[int, int], bool]] = {}

    def feed(self, record: TraceRecord) -> None:
        result = record.result
        pc = record.pc
        static = self._static.get(pc)
        if static is None:
            inst = record.inst
            dst = inst.writes
            static = self._static[pc] = (
                tuple(reg_id(src) for src in inst.reads if not src.is_zero),
                None if dst is None else reg_id(dst),
                (0, 32) if dst is None or dst.is_int else (32, 64),
                inst.is_load,
            )
        read_ids, dst_rid, (lo, hi), is_load = static
        pending = self._pending

        if result is not None:
            site = self._sites.get(pc)
            if site is None:
                site = self._sites[pc] = SiteStats(pc, record.op_name, is_load)
            site.count += 1

            same = result == record.old_dest and dst_rid is not None
            if same:
                site.same_hits += 1
            lvp = self._last_result.get(pc) == result
            if lvp:
                site.lv_hits += 1
            self._last_result[pc] = result

            holders = self._value_to_regs.get(result)
            matched: Tuple[int, ...] = ()
            if holders and dst_rid is not None:
                # Only same-class registers are usable prediction sources
                # (an fp load cannot read its prediction from an int reg).
                matched = tuple(
                    rid for rid in holders if lo <= rid < hi and rid != dst_rid and rid % 32 != 31
                )[:MAX_MATCHES]
            if matched:
                site.any_hits += 1

            event: Optional[_DeadEvent] = None
            if is_load:
                self._fig1.loads += 1
                any_reg = bool(matched) or same
                self._fig1.same += same
                self._fig1.any_reg += any_reg
                self._fig1.any_reg_or_lvp += any_reg or lvp
                if same:
                    self._fig1.same_or_dead += 1
                elif matched:
                    event = _DeadEvent(self._fig1)
            for rid in matched:
                pending.setdefault(rid, []).append((site, self._last_writer[rid], event))

        # This record's own accesses are the nearest *future* accesses for
        # every query opened at-or-before it: a read keeps the register live
        # and takes precedence over the same instruction's write (the same
        # semantics as resolve_deadness's backward sweep).
        for rid in read_ids:
            waiting = pending.pop(rid, None)
            if waiting:
                for site, _, _ in waiting:
                    site.live_hits[rid] += 1
        if dst_rid is not None:
            waiting = pending.pop(dst_rid, None)
            if waiting:
                for site, producer, event in waiting:
                    self._resolve_dead(site, dst_rid, producer, event)

        # Apply the architectural write to the value mirrors.
        if dst_rid is not None and result is not None:
            old = self._reg_values[dst_rid]
            if old != result:
                holders = self._value_to_regs.get(old)
                if holders is not None:
                    holders.discard(dst_rid)
                    if not holders:
                        del self._value_to_regs[old]
                self._reg_values[dst_rid] = result
                self._value_to_regs.setdefault(result, set()).add(dst_rid)
            self._last_writer[dst_rid] = pc

    @staticmethod
    def _resolve_dead(
        site: SiteStats, rid: int, producer: Optional[int], event: Optional[_DeadEvent]
    ) -> None:
        site.dead_hits[rid] += 1
        if producer is not None:
            producers = site.producers.get(rid)
            if producers is None:
                producers = site.producers[rid] = Counter()
            producers[producer] += 1
        if event is not None and not event.counted:
            event.counted = True
            event.fig1.same_or_dead += 1

    def finish(self) -> "ReuseProfile":
        # A register never accessed again is dead from the match onward.
        for rid, waiting in self._pending.items():
            for site, producer, event in waiting:
                self._resolve_dead(site, rid, producer, event)
        self._pending.clear()
        return ReuseProfile(self._sites, self._fig1)


class ReuseProfile:
    """Full register-reuse profile of one trace."""

    def __init__(self, sites: Dict[int, SiteStats], fig1: Fig1Stats) -> None:
        self.sites = sites
        self.fig1 = fig1

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Iterable[TraceRecord]) -> "ReuseProfile":
        """Profile any iterable of committed records in one streamed pass."""
        builder = ReuseProfileBuilder()
        for record in trace:
            builder.feed(record)
        return builder.finish()

    # ------------------------------------------------------------------
    # Profile lists (Section 5)
    # ------------------------------------------------------------------
    def profile_lists(
        self,
        threshold: float = 0.8,
        loads_only: bool = False,
        min_count: int = 8,
    ) -> ProfileLists:
        """Derive the four lists at a predictability ``threshold``.

        ``loads_only`` restricts candidates to load instructions (the static
        RVP experiments); dynamic all-instruction RVP passes False.
        ``min_count`` ignores sites executed too rarely to judge.
        """
        lists = ProfileLists(threshold=threshold)
        for pc, site in self.sites.items():
            if loads_only and not site.is_load:
                continue
            if site.count < min_count:
                continue
            if site.same_rate() >= threshold:
                lists.same.add(pc)
            dead = site.best_dead()
            if dead is not None and dead[1] >= threshold:
                lists.dead[pc] = DeadHint(reg=dead[0], producer_pc=dead[2])
            live = site.best_any_reg()
            if live is not None and live[1] >= threshold:
                lists.live[pc] = DeadHint(reg=live[0], producer_pc=None)
            if site.lv_rate() >= threshold:
                lists.last_value.add(pc)
        return lists
