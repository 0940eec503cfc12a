"""Cycle-level out-of-order superscalar pipeline with register-value prediction.

Models the paper's machine (Table 1 / Section 6): superscalar fetch behind a
gshare front end, register renaming, int/fp instruction queues, limited
functional units, in-order commit from a ROB, the Table 1 memory hierarchy,
and the three value-misprediction recovery schemes of Section 4.3.

The simulator is execution-driven along the correct path (see
:mod:`repro.uarch.stream`): wrong-path instructions are not executed, their
cost is modelled by stalling fetch until the mispredicted branch resolves
(paper pipeline: 7-cycle minimum penalty).  Value prediction follows the
paper's renaming scheme exactly:

* a predicted instruction keeps its *old* register mapping visible, so
  consumers' dependences are redirected to the previous writer of the
  prediction-source register (they issue as soon as that old value exists);
* the predicted instruction itself takes the old mapping as an extra source
  operand — resolution cannot happen before the comparison value is readable;
* on a correct prediction nothing happens; on a mispredict the configured
  recovery scheme fires (refetch squash / full reissue / selective reissue),
  and consumers re-issue one cycle after resolution at the earliest.

Instruction-queue occupancy follows Section 7.1.1: refetch frees IQ entries
at issue; reissue holds every post-first-use instruction until it is no
longer speculative; selective reissue holds only the dependence cone.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..isa.opcodes import OpKind
from ..sim.trace import TraceRecord
from ..vp.base import SourceKind, ValuePredictor
from .branch import BranchPredictor
from .cache import MemoryHierarchy
from .config import MachineConfig
from .recovery import RecoveryScheme
from .stats import SimStats
from .stream import PredictionOverlay, StreamEntry, prepare_stream

_WAIT, _ISSUED, _DONE = 0, 1, 2

#: Engine selection: ``fast`` (event-driven, the default) or ``reference``
#: (this module's per-cycle loop, kept verbatim as the stats-exact oracle).
PIPELINE_ENGINES = ("fast", "reference")


def _resolve_engine(engine: Optional[str]) -> str:
    resolved = engine if engine is not None else "fast"
    if resolved not in PIPELINE_ENGINES:
        raise ValueError(
            f"unknown pipeline engine {resolved!r}; choose from {PIPELINE_ENGINES}"
        )
    return resolved


def _metrics():
    # Lazy: repro.core imports repro.uarch transitively at package-init time.
    from ..core.metrics import get_metrics

    return get_metrics()


class DynInst:
    """Runtime state of one in-flight dynamic instruction."""

    __slots__ = (
        "entry",
        "state",
        "gen",
        "deps",
        "dep_fix",
        "spec_on",
        "spec_consumers",
        "predicted",
        "resolved",
        "pred_correct",
        "pred_value_dep",
        "first_use",
        "complete_cycle",
        "earliest_issue",
        "min_issue",
        "iq_released",
        "train",
    )

    def __init__(self, entry: StreamEntry) -> None:
        self.entry = entry
        self.reset(fetch_cycle=0)

    def reset(self, fetch_cycle: int) -> None:
        self.state = _WAIT
        self.gen = 0
        self.deps: List[int] = []
        self.dep_fix: List[Tuple[int, int]] = []
        self.spec_on: Set[int] = set()
        self.spec_consumers: List["DynInst"] = []
        self.predicted = False
        self.resolved = True
        self.pred_correct = False
        self.pred_value_dep: Optional[int] = None
        self.first_use: Optional[int] = None
        self.complete_cycle = -1
        self.earliest_issue = fetch_cycle
        self.min_issue = 0
        self.iq_released = False
        self.train = False

    @property
    def seq(self) -> int:
        return self.entry.seq


class PipelineSimulator:
    """One run = one (trace, predictor, config, recovery scheme) combination.

    Two engines share this class's stats contract: the per-cycle loop below
    (``engine="reference"``, the oracle) and the event-driven fast tier
    (``engine="fast"``, :mod:`repro.uarch.fast`), selected by the ``engine``
    argument.  Both
    produce identical :class:`~repro.uarch.stats.SimStats` — every counter,
    not just IPC — which the differential test matrix enforces.

    ``stream`` optionally supplies a pre-built :func:`prepare_stream` result
    (e.g. the :class:`~repro.core.session.SimSession` stream cache) so
    campaign cells that share a trace prepare its stream once; when given,
    ``trace`` is ignored.  The predictor's view of the stream — its
    :class:`~repro.uarch.stream.PredictionOverlay` — is built here, per run.
    """

    #: resolved engine name of instances of this class
    engine = "reference"

    def __new__(
        cls,
        trace: Optional[Iterable[TraceRecord]] = None,
        predictor: Optional[ValuePredictor] = None,
        config: Optional[MachineConfig] = None,
        recovery: RecoveryScheme = RecoveryScheme.SELECTIVE,
        engine: Optional[str] = None,
        stream: Optional[Sequence[StreamEntry]] = None,
    ) -> "PipelineSimulator":
        if cls is PipelineSimulator and _resolve_engine(engine) == "fast":
            from .fast import FastPipelineSimulator

            return super().__new__(FastPipelineSimulator)
        return super().__new__(cls)

    def __init__(
        self,
        trace: Iterable[TraceRecord],
        predictor: ValuePredictor,
        config: MachineConfig,
        recovery: RecoveryScheme = RecoveryScheme.SELECTIVE,
        engine: Optional[str] = None,
        stream: Optional[Sequence[StreamEntry]] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.predictor = predictor
        self.recovery = recovery
        self.stream = stream if stream is not None else prepare_stream(trace)
        self.overlay = PredictionOverlay(self.stream, predictor)
        #: STORED predictions come from the predictor's own table (no
        #: register read, no value dependence)
        self._table_backed = getattr(predictor, "table_backed", False)
        self.branch = BranchPredictor(config)
        self.memory = MemoryHierarchy(config.l1i, config.l1d, config.l2)
        self.stats = SimStats()

        # Pipeline state
        self.cycle = 0
        self.fetch_cursor = 0
        self.fetch_resume = 0
        self.fetch_stalled_on: Optional[int] = None  # seq of unresolved mispredicted branch
        self.fetch_queue: Deque[Tuple[DynInst, int]] = deque()  # (inst, fetch_cycle)
        self.window: Dict[int, DynInst] = {}  # in-flight, by seq
        self.rob: Deque[DynInst] = deque()  # in-flight, seq order
        self.iq_used = {"int": 0, "fp": 0}
        self.completions: Dict[int, List[Tuple[DynInst, int]]] = {}
        self.unresolved_preds: Dict[int, DynInst] = {}
        self.halted = False
        self._fetch_queue_cap = 3 * config.fetch_width
        self._rename_delay = 3  # fetch -> rename/dispatch latency (front stages)
        self._trained: Set[int] = set()  # seqs whose outcome already trained the predictor
        #: predictions whose comparison operand has not completed yet,
        #: keyed by the comparison producer's seq
        self._resolution_waiters: Dict[int, List[DynInst]] = {}

    # ==================================================================
    # Main loop
    # ==================================================================
    def run(self, max_cycles: int = 5_000_000) -> SimStats:
        metrics = _metrics()
        with metrics.timer("pipeline.wall"):
            self._run(max_cycles)
        metrics.inc("pipeline.runs")
        metrics.inc("pipeline.cycles", self.stats.cycles)
        metrics.inc(f"predictor.{self.predictor.name}.predictions", self.stats.predictions)
        metrics.inc(f"predictor.{self.predictor.name}.correct", self.stats.correct_predictions)
        return self.stats

    def _run(self, max_cycles: int) -> SimStats:
        while not self.halted:
            self.cycle += 1
            if self.cycle > max_cycles:
                raise RuntimeError(f"simulation exceeded {max_cycles} cycles (deadlock?)")
            self._commit()
            if self.halted:
                break
            self._complete()
            self._issue()
            self._dispatch()
            self._fetch()
            if self.fetch_cursor >= len(self.stream) and not self.rob and not self.fetch_queue:
                # Trace truncated before a halt: pipeline has drained.
                self.halted = True
        self.stats.cycles = self.cycle
        self.stats.l1d_misses = self.memory.l1d.misses
        self.stats.l1i_misses = self.memory.l1i.misses
        return self.stats

    # ==================================================================
    # Commit (in order, up to commit_width)
    # ==================================================================
    def _commit(self) -> None:
        committed = 0
        while self.rob and committed < self.config.commit_width:
            head = self.rob[0]
            if head.state != _DONE or head.spec_on or (head.predicted and not head.resolved):
                break
            self.rob.popleft()
            del self.window[head.seq]
            if not head.iq_released:
                self._release_iq(head)
            entry = head.entry
            if head.predicted:
                self.stats.predictions += 1
                if head.pred_correct:
                    self.stats.correct_predictions += 1
            self.stats.committed += 1
            committed += 1
            if entry.record.inst.is_halt:
                self.halted = True
                return

    # ==================================================================
    # Completion + prediction resolution
    # ==================================================================
    def _complete(self) -> None:
        events = self.completions.pop(self.cycle, None)
        if not events:
            return
        for inst, gen in events:
            if inst.gen != gen or inst.state != _ISSUED:
                continue  # stale event (instruction was reset or squashed)
            inst.state = _DONE
            inst.complete_cycle = self.cycle
            entry = inst.entry
            # Train the predictor at writeback (once per dynamic instance).
            record = entry.record
            if inst.seq not in self._trained:
                if self.overlay.kind[inst.seq] is not None:
                    self._trained.add(inst.seq)
                    if record.is_load and hasattr(self.predictor, "update_load"):
                        self.predictor.update_load(entry.pc, record.addr, record.result)
                    else:
                        self.predictor.update(entry.pc, inst.train, record.result)
            if inst.seq == self.fetch_stalled_on:
                self.fetch_stalled_on = None
                self.fetch_resume = max(self.fetch_resume, self.cycle + 1)
            if inst.predicted and not inst.resolved:
                self._try_resolve(inst)
            # A completed value may be the comparison operand some older
            # prediction is waiting on.
            waiters = self._resolution_waiters.pop(inst.seq, None)
            if waiters:
                for pred in waiters:
                    if pred.predicted and not pred.resolved and pred.state == _DONE:
                        self._try_resolve(pred)

    def _try_resolve(self, pred: DynInst) -> None:
        """Resolve a completed prediction once its comparison value (the old
        register mapping) is also available; otherwise wait for it."""
        dep_seq = pred.pred_value_dep
        if dep_seq is not None:
            producer = self.window.get(dep_seq)
            if producer is not None and producer.state != _DONE:
                self._resolution_waiters.setdefault(dep_seq, []).append(pred)
                return
        self._resolve(pred)

    def _resolve(self, pred: DynInst) -> None:
        pred.resolved = True
        self.unresolved_preds.pop(pred.seq, None)
        if pred.pred_correct:
            for consumer in pred.spec_consumers:
                consumer.spec_on.discard(pred.seq)
                if (
                    self.recovery is RecoveryScheme.SELECTIVE
                    and not consumer.spec_on
                    and consumer.state != _WAIT
                    and not consumer.iq_released
                ):
                    self._release_iq(consumer)
            if self.recovery is RecoveryScheme.REISSUE:
                self._reissue_release_scan()
            return

        # ---- misprediction ----
        if self.recovery is RecoveryScheme.REFETCH:
            if pred.first_use is not None:
                self._squash_from(pred.first_use)
                self.stats.value_squashes += 1
            return
        if self.recovery is RecoveryScheme.SELECTIVE:
            for consumer in pred.spec_consumers:
                if consumer.seq not in self.window:
                    continue
                self._repair_and_reset(consumer, pred)
            return
        # REISSUE: everything after the first use replays.
        first = pred.first_use
        for consumer in pred.spec_consumers:
            if consumer.seq in self.window:
                self._repair_deps(consumer, pred)
        if first is not None:
            for inst in self.rob:
                if inst.seq >= first and inst.seq != pred.seq:
                    self._reset_inst(inst)
        self._reissue_release_scan()

    def _repair_and_reset(self, consumer: DynInst, pred: DynInst) -> None:
        self._repair_deps(consumer, pred)
        self._reset_inst(consumer)

    def _repair_deps(self, consumer: DynInst, pred: DynInst) -> None:
        consumer.spec_on.discard(pred.seq)
        for index, true_seq in consumer.dep_fix:
            producer = self.window.get(true_seq)
            if true_seq == pred.seq or (producer is not None and pred.seq in producer.spec_on):
                consumer.deps[index] = true_seq

    def _reset_inst(self, inst: DynInst) -> None:
        if inst.state == _WAIT:
            inst.min_issue = max(inst.min_issue, self.cycle + 1)
            return
        inst.state = _WAIT
        inst.gen += 1
        inst.min_issue = max(inst.min_issue, self.cycle + 1)
        inst.complete_cycle = -1
        self.stats.reissued_instructions += 1

    def _held_by_older_prediction(self, inst: DynInst) -> bool:
        return any(seq < inst.seq for seq in self.unresolved_preds)

    def _reissue_release_scan(self) -> None:
        oldest = min(self.unresolved_preds) if self.unresolved_preds else None
        for inst in self.rob:
            if inst.iq_released or inst.state == _WAIT:
                continue
            if oldest is None or inst.seq < oldest:
                self._release_iq(inst)

    # ==================================================================
    # Issue (oldest first, FU-limited)
    # ==================================================================
    def _issue(self) -> None:
        fu_free = {"int": self.config.fu_int, "fp": self.config.fu_fp}
        ldst_free = self.config.fu_ldst
        cycle = self.cycle
        for inst in self.rob:
            if fu_free["int"] <= 0 and fu_free["fp"] <= 0:
                break
            if inst.state != _WAIT:
                continue
            if inst.earliest_issue > cycle or inst.min_issue > cycle:
                continue
            entry = inst.entry
            fu = entry.fu
            if fu == "ldst":
                if ldst_free <= 0 or fu_free["int"] <= 0:
                    continue
            elif fu == "none":
                pass
            elif fu_free[fu] <= 0:
                continue
            if not self._deps_ready(inst):
                continue
            # Issue it.
            if fu == "ldst":
                ldst_free -= 1
                fu_free["int"] -= 1
            elif fu != "none":
                fu_free[fu] -= 1
            latency = entry.base_latency
            if entry.record.is_load and entry.record.addr is not None:
                latency += self.memory.data_latency(entry.record.addr, cycle)
            elif entry.record.inst.is_store and entry.record.addr is not None:
                self.memory.data_latency(entry.record.addr, cycle)
            inst.state = _ISSUED
            done = cycle + max(1, latency)
            self.completions.setdefault(done, []).append((inst, inst.gen))
            # IQ release policy (Section 7.1.1): refetch frees at issue;
            # selective holds the speculative cone; reissue holds everything
            # younger than the oldest unresolved prediction.
            if self.recovery is RecoveryScheme.REFETCH:
                self._release_iq(inst)
            elif self.recovery is RecoveryScheme.SELECTIVE:
                if not inst.spec_on:
                    self._release_iq(inst)
            else:  # REISSUE
                if not self._held_by_older_prediction(inst):
                    self._release_iq(inst)

    def _deps_ready(self, inst: DynInst) -> bool:
        window = self.window
        cycle = self.cycle
        for dep in inst.deps:
            producer = window.get(dep)
            if producer is None:
                continue  # committed (or never in flight): ready
            if producer.state != _DONE or producer.complete_cycle > cycle:
                return False
        return True

    # ==================================================================
    # Dispatch / rename
    # ==================================================================
    def _dispatch(self) -> None:
        dispatched = 0
        pred_ports = self.config.pred_ports if self.config.pred_ports is not None else 1 << 30
        self.stats.iq_occupancy_sum += self.iq_used["int"] + self.iq_used["fp"]
        while self.fetch_queue and dispatched < self.config.fetch_width:
            inst, fetch_cycle = self.fetch_queue[0]
            if fetch_cycle + self._rename_delay > self.cycle:
                break
            if len(self.rob) >= self.config.rob_size:
                self.stats.rob_stall_cycles += 1
                break
            iq = inst.entry.iq
            if self.iq_used[iq] >= getattr(self.config, f"iq_{iq}"):
                self.stats.iq_stall_cycles += 1
                break
            self.fetch_queue.popleft()
            used_port = self._rename(inst, pred_ports > 0)
            if used_port:
                pred_ports -= 1
            self.iq_used[iq] += 1
            inst.iq_released = False
            self.window[inst.seq] = inst
            self.rob.append(inst)
            dispatched += 1

    def _rename(self, inst: DynInst, port_available: bool) -> bool:
        """Resolve dependences, decide on a prediction.  Returns True if an
        extra prediction read port was consumed (non-load predictions)."""
        entry = inst.entry
        window = self.window
        deps: List[int] = []
        dep_fix: List[Tuple[int, int]] = []
        spec_on: Set[int] = set()
        attached: Set[int] = set()

        def add_dep(producer_seq: Optional[int]) -> None:
            if producer_seq is None:
                return
            producer = window.get(producer_seq)
            if producer is None:
                deps.append(producer_seq)
                return
            if producer.predicted and not producer.resolved:
                # Read the *predicted* value: the old physical mapping, i.e.
                # the previous writer's actual output (renaming guarantees it
                # is the real value, whether or not that writer was itself
                # predicted — its execution is never speculative, only its
                # prediction is).
                dep_seq = producer.pred_value_dep
                index = len(deps)
                deps.append(dep_seq if dep_seq is not None else -1)
                dep_fix.append((index, producer_seq))
                spec_on.add(producer_seq)
                if producer_seq not in attached:
                    producer.spec_consumers.append(inst)
                    attached.add(producer_seq)
                if producer.first_use is None:
                    producer.first_use = inst.seq
                # If the old value itself came from a speculative execution,
                # inherit that input-speculation.
                old_producer = window.get(dep_seq) if dep_seq is not None else None
                if old_producer is not None and old_producer.spec_on:
                    _inherit(old_producer)
            else:
                deps.append(producer_seq)
                if producer.spec_on:
                    _inherit(producer)

        def _inherit(producer: DynInst) -> None:
            for pseq in producer.spec_on:
                pending = self.unresolved_preds.get(pseq)
                if pending is not None:
                    spec_on.add(pseq)
                    if pseq not in attached:
                        pending.spec_consumers.append(inst)
                        attached.add(pseq)

        for dep in entry.src_deps:
            add_dep(dep)
        if entry.store_dep is not None:
            add_dep(entry.store_dep)

        # Memory-renaming predictors snoop stores at rename (store-queue
        # forwarding: the value is visible in program order, not at commit).
        record = entry.record
        if record.inst.is_store and record.addr is not None and hasattr(self.predictor, "observe_store"):
            self.predictor.observe_store(entry.pc, record.addr, record.store_value)

        # ---- value prediction decision ----
        used_port = False
        kind = self.overlay.kind[entry.seq]
        if kind is not None:
            value_dep, inst.train = self.overlay.facts(entry)
            predictable = self.predictor.confident(entry.pc)
            stored_ok = True
            if kind is SourceKind.STORED:
                if self._table_backed:
                    stored = self.predictor.stored_value(entry.pc)
                    stored_ok = stored is not None
                    inst.train = stored_ok and stored == entry.record.result
                    value_dep = None
                else:
                    stored_ok = value_dep is not None
            # Buffer-based predictors read no register for the prediction;
            # register-based prediction of a non-load needs an extra port.
            needs_port = not entry.record.is_load and not self._table_backed
            if predictable and stored_ok and (not needs_port or port_available):
                inst.predicted = True
                inst.resolved = False
                inst.pred_correct = inst.train
                used_port = needs_port
                # The comparison value (the old mapping, i.e. the previous
                # writer's actual output) gates *resolution*, not execution:
                # the instruction issues on its normal operands and the
                # old-vs-new check completes when both are available (see
                # _complete/_try_resolve).  If the old value was produced by
                # a speculative execution, this prediction inherits that
                # input-speculation.
                inst.pred_value_dep = value_dep
                old_producer = window.get(value_dep) if value_dep is not None else None
                if old_producer is not None and old_producer.spec_on:
                    _inherit(old_producer)
                self.unresolved_preds[inst.seq] = inst

        inst.deps = [d for d in deps if d >= 0]
        # Re-index dep_fix against the filtered list.
        if dep_fix:
            remap: List[Tuple[int, int]] = []
            kept = 0
            for i, d in enumerate(deps):
                for index, true_seq in dep_fix:
                    if index == i and d >= 0:
                        remap.append((kept, true_seq))
                if d >= 0:
                    kept += 1
            inst.dep_fix = remap
        else:
            inst.dep_fix = []
        inst.spec_on = spec_on
        return used_port

    # ==================================================================
    # Fetch
    # ==================================================================
    def _fetch(self) -> None:
        if self.cycle < self.fetch_resume or self.fetch_stalled_on is not None:
            self.stats.fetch_stall_cycles += 1
            return
        if self.fetch_cursor >= len(self.stream):
            return
        fetched = 0
        blocks_left = self.config.fetch_blocks
        last_line: Optional[int] = None
        while (
            fetched < self.config.fetch_width
            and len(self.fetch_queue) < self._fetch_queue_cap
            and self.fetch_cursor < len(self.stream)
        ):
            entry = self.stream[self.fetch_cursor]
            line = entry.pc * 8 // self.config.l1i.line_bytes
            if line != last_line:
                latency = self.memory.fetch_latency(entry.pc, self.cycle)
                if latency > 0:
                    self.fetch_resume = self.cycle + latency
                    break
                last_line = line
            inst = DynInst(entry)
            inst.reset(fetch_cycle=self.cycle)
            inst.earliest_issue = self.cycle + self.config.front_depth
            self.fetch_queue.append((inst, self.cycle))
            self.fetch_cursor += 1
            fetched += 1
            self.stats.fetched += 1

            record = entry.record
            op_kind = record.inst.op.kind
            if record.inst.is_halt:
                break
            if record.inst.is_control:
                taken = bool(record.taken) if op_kind is OpKind.BRANCH else True
                correct = self.branch.predict_and_train(record.inst, taken, record.next_pc)
                if not correct:
                    self.stats.branch_mispredicts += 1
                    self.fetch_stalled_on = entry.seq
                    break
                if taken:
                    blocks_left -= 1
                    if blocks_left <= 0:
                        break
                    last_line = None  # new fetch block may be a new line

    # ==================================================================
    # Refetch squash
    # ==================================================================
    def _squash_from(self, first_seq: int) -> None:
        # Remove squashed instructions from ROB/window/IQ.
        keep: List[DynInst] = []
        for inst in self.rob:
            if inst.seq >= first_seq:
                if not inst.iq_released:
                    self._release_iq(inst)
                inst.gen += 1  # invalidate pending completion events
                del self.window[inst.seq]
                self.unresolved_preds.pop(inst.seq, None)
            else:
                keep.append(inst)
        self.rob = deque(keep)
        self.fetch_queue = deque((inst, fc) for inst, fc in self.fetch_queue if inst.seq < first_seq)
        # Clean prediction bookkeeping that referenced squashed consumers.
        for pred in self.unresolved_preds.values():
            pred.spec_consumers = [c for c in pred.spec_consumers if c.seq < first_seq]
            if pred.first_use is not None and pred.first_use >= first_seq:
                pred.first_use = min((c.seq for c in pred.spec_consumers), default=None)
        for inst in self.rob:
            inst.spec_on = {s for s in inst.spec_on if s in self.unresolved_preds}
        for key in list(self._resolution_waiters):
            kept_waiters = [p for p in self._resolution_waiters[key] if p.seq < first_seq]
            if kept_waiters and key < first_seq:
                self._resolution_waiters[key] = kept_waiters
            else:
                del self._resolution_waiters[key]
        if self.fetch_stalled_on is not None and self.fetch_stalled_on >= first_seq:
            self.fetch_stalled_on = None
        self.fetch_cursor = first_seq
        self.fetch_resume = max(self.fetch_resume, self.cycle + 1)

    # ==================================================================
    # Helpers
    # ==================================================================
    def _release_iq(self, inst: DynInst) -> None:
        if not inst.iq_released:
            inst.iq_released = True
            self.iq_used[inst.entry.iq] -= 1


def simulate(
    trace: Optional[Iterable[TraceRecord]],
    predictor: ValuePredictor,
    config: MachineConfig,
    recovery: RecoveryScheme = RecoveryScheme.SELECTIVE,
    max_cycles: int = 5_000_000,
    engine: Optional[str] = None,
    stream: Optional[Sequence[StreamEntry]] = None,
) -> SimStats:
    """Convenience wrapper: build a pipeline and run it to completion.

    ``trace`` may be any iterable of committed records (cached tuple or live
    generator); it is consumed once during stream preparation.  When a
    pre-built ``stream`` is supplied (the SimSession stream cache), ``trace``
    is unused and may be None; the stream carries no predictor state, so one
    stream serves any number of ``(predictor, config, recovery)`` runs.
    ``engine`` selects the timing tier (``fast``/``reference``; default
    ``fast``).
    """
    return PipelineSimulator(
        trace, predictor, config, recovery, engine=engine, stream=stream
    ).run(max_cycles=max_cycles)
