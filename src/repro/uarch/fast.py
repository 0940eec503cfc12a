"""Event-driven fast timing tier (``PipelineSimulator(engine="fast")``).

Stats-exact reimplementation of the reference per-cycle pipeline loop in
:mod:`repro.uarch.pipeline`.  The speedup comes from four mechanisms; none of
them is allowed to change a single :class:`~repro.uarch.stats.SimStats`
counter:

**Event-driven cycle skipping.**  After every simulated cycle the engine
computes the next cycle at which anything can *happen* — the earliest of:

* a committable ROB head (commit fires next cycle),
* the next pending completion event (min over a lazily-cleaned heap of
  ``completions`` keys),
* a possible fetch (``max(next, fetch_resume)`` whenever fetch is neither
  redirect-stalled, cursor-exhausted nor queue-full),
* the fetch-queue head reaching rename maturity (``fetch_cycle +
  rename_delay``) — included *unconditionally* while the head is immature so
  dispatch-stall accounting stays uniform inside a skipped region,
* a dispatch that can actually happen now (mature head + ROB and IQ space),
* the earliest ``max(earliest_issue, min_issue)`` over issue candidates
  whose producers have all completed.

Everything between the current cycle and that wake-up point is a *quiet*
region: no stage changes machine state, and the per-cycle stat accrual the
reference loop would have performed (IQ occupancy, fetch/ROB/IQ stall
attribution) is a closed-form function of the frozen state — added in one
step by :meth:`_account_skip`.  Branch-predictor training, cache accesses and
value-predictor queries only ever occur in simulated cycles, so skipping
preserves their state bit for bit.

**Wakeup-driven issue.**  The reference ``_issue`` scans the whole ROB (200
entries) every cycle.  Here a waiting instruction lives in exactly one of
two places: the sorted *candidate* list (``_cand``, seqs of ``_WAIT``
instructions with no known-incomplete producer) or the ``waiters`` list of
one non-DONE producer.  Completion drains a producer's waiters back into the
candidate list; the issue scan re-verifies each candidate's operands and
re-parks it on the first still-incomplete producer it finds.  Because every
``_WAIT`` instruction outside ``_cand`` provably has a non-DONE producer,
iterating ``_cand`` in seq order is issue-order-equivalent to the reference
ROB scan (including the "both FU banks exhausted" early break).

**Pre-decoded stream facts + pooled DynInsts.**  The hot loop reads the flat
per-pc booleans :func:`~repro.uarch.stream.prepare_stream` bakes onto
:class:`~repro.uarch.stream.StreamEntry` (``is_load``/``is_halt``/
``cond_branch``/...) and the per-seq candidate kinds of the run's
:class:`~repro.uarch.stream.PredictionOverlay` instead of chasing
``record.inst.op`` attribute chains, and fetch recycles committed/squashed
:class:`FastDynInst` objects from a free pool instead of allocating per
dynamic instruction.  Two pool-hygiene invariants: (1) a DynInst's ``gen``
is **monotonically increasing across reuse** (acquire restores ``gen + 1``
over the reset), so a completion event — ``(inst, gen)``, validated by
``inst.gen == gen and state == _ISSUED`` exactly as in the reference — can
never be claimed by a later incarnation or a later issue of the same one;
(2) an instruction that never touched speculative state (renamed on the
fast path below, committed normally) is returned to the pool with every
other field already at its post-reset default, so acquire only rewrites the
handful of fields the plain lifecycle dirties — the ``dirty`` flag marks the
exceptions (full rename, squash victims) that need a complete reset.

**Speculation-free rename fast path.**  While no prediction is unresolved,
no in-flight instruction carries speculative state (every ``spec_on`` entry
is discarded when its prediction resolves, and refetch squashes filter
survivors), so renaming a non-candidate instruction reduces to copying the
precomputed producer seqs — no closures, no inheritance walk.

The five pipeline stages are inlined into one loop in :meth:`_run` with
every run-invariant hoisted out; the inherited per-stage methods of the
reference class are *not* used by this tier (only the recovery callbacks —
``_try_resolve``/``_resolve``/``_repair_deps``/``_release_iq`` — are shared,
with :meth:`_reset_inst` and :meth:`_squash_from` overridden to maintain the
wakeup structures).

``_TEST_SKIP_EVENT`` is the mutation seam for the ``pipeline-equivalence``
fuzz oracle's self-test: setting it True suppresses the closed-form IQ
occupancy accounting for skipped cycles — exactly the class of bug the
oracle exists to catch.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from heapq import heappop, heappush
from typing import Iterable, List, Optional, Sequence

from ..sim.trace import TraceRecord
from ..vp.base import ValuePredictor
from .config import MachineConfig
from .pipeline import _DONE, _ISSUED, _WAIT, DynInst, PipelineSimulator
from .recovery import RecoveryScheme
from .stats import SimStats
from .stream import StreamEntry

#: Mutation seam (see module docstring): True seeds a skip-accounting bug.
_TEST_SKIP_EVENT = False


class FastDynInst(DynInst):
    """DynInst plus the fast tier's wakeup and pooling bookkeeping.

    ``waiters`` holds the _WAIT consumers parked on this (non-DONE) producer;
    ``in_cand`` mirrors membership in the simulator's sorted candidate list;
    ``dirty`` records that this incarnation touched state outside the plain
    fetch/dispatch/issue/commit lifecycle (full rename or squash) and must be
    fully reset before reuse.  All are cleared by :meth:`reset`.
    """

    __slots__ = ("waiters", "in_cand", "dirty")

    def reset(self, fetch_cycle: int) -> None:
        super().reset(fetch_cycle)
        self.waiters: List["FastDynInst"] = []
        self.in_cand = False
        self.dirty = False


class FastPipelineSimulator(PipelineSimulator):
    """Event-driven timing tier; stats-identical to the reference loop."""

    engine = "fast"

    def __init__(
        self,
        trace: Iterable[TraceRecord],
        predictor: ValuePredictor,
        config: MachineConfig,
        recovery: RecoveryScheme = RecoveryScheme.SELECTIVE,
        engine: Optional[str] = None,
        stream: Optional[Sequence[StreamEntry]] = None,
    ) -> None:
        super().__init__(trace, predictor, config, recovery, stream=stream)
        #: free FastDynInst objects (commit/squash return, fetch acquires)
        self._pool: List[FastDynInst] = []
        #: min-heap over completions keys (lazily cleaned: a key is live
        #: only while it is still present in ``self.completions``)
        self._comp_heap: List[int] = []
        #: sorted seqs of _WAIT instructions with no known-incomplete
        #: producer (the issue candidates; see module docstring)
        self._cand: List[int] = []
        # Per-run constants hoisted out of the hot loops.  The fast tier's
        # fetch queue holds bare instructions (no (inst, fetch_cycle)
        # tuples); the fetch cycle is recovered as earliest_issue -
        # front_depth, both immutable after fetch.
        self._iq_cap = {"int": config.iq_int, "fp": config.iq_fp}
        self._front_depth = config.front_depth
        self._observe_store = getattr(predictor, "observe_store", None)
        self._update_load = getattr(predictor, "update_load", None)

    # ==================================================================
    # Main loop: all five stages inlined, one frame of hoisted locals
    # ==================================================================
    def _run(self, max_cycles: int) -> SimStats:
        config = self.config
        stats = self.stats
        window = self.window
        wget = window.get
        completions = self.completions
        heap = self._comp_heap
        pool = self._pool
        iq_used = self.iq_used
        iq_cap = self._iq_cap
        stream = self.stream
        stream_len = len(stream)
        memory = self.memory
        data_latency = memory.data_latency
        fetch_latency = memory.fetch_latency
        # Inlined L1 hit paths (miss / in-flight-fill fall back to the cache
        # model): set lists, line shift and the MSHR map of each L1.
        l1i = memory.l1i
        l1i_sets = l1i._sets
        l1i_shift = l1i._line_shift
        l1i_nsets = l1i.num_sets
        l1i_fill = l1i._fill_ready
        l1d = memory.l1d
        l1d_sets = l1d._sets
        l1d_shift = l1d._line_shift
        l1d_nsets = l1d.num_sets
        l1d_fill = l1d._fill_ready
        branch = self.branch
        predict_and_train = branch.predict_and_train
        # Inlined gshare conditional path (BTB traffic still goes through
        # the model's helpers; indirect/call/return use predict_and_train).
        bp_pht = branch._pht
        bp_mask = branch._history_mask
        btb_lookup = branch._btb_lookup
        btb_update = branch._btb_update
        predictor = self.predictor
        kinds = self.overlay.kind
        update_load = self._update_load
        observe_store = self._observe_store
        trained = self._trained
        unresolved = self.unresolved_preds
        resolution_waiters = self._resolution_waiters
        recovery = self.recovery
        refetch = recovery is RecoveryScheme.REFETCH
        selective = recovery is RecoveryScheme.SELECTIVE
        commit_width = config.commit_width
        fetch_width = config.fetch_width
        rob_size = config.rob_size
        front_depth = config.front_depth
        fetch_blocks = config.fetch_blocks
        rename_delay = self._rename_delay
        queue_cap = self._fetch_queue_cap
        cfg_fu_int = config.fu_int
        cfg_fu_fp = config.fu_fp
        cfg_fu_ldst = config.fu_ldst
        pred_ports_cfg = config.pred_ports if config.pred_ports is not None else 1 << 30
        cycle = self.cycle

        while not self.halted:
            cycle += 1
            self.cycle = cycle
            if cycle > max_cycles:
                raise RuntimeError(f"simulation exceeded {max_cycles} cycles (deadlock?)")
            rob = self.rob  # refreshed each cycle: refetch squash rebinds it

            # ---------------- commit (in order, up to commit_width) -----
            committed = 0
            while rob and committed < commit_width:
                head = rob[0]
                if head.state != _DONE or head.spec_on or (head.predicted and not head.resolved):
                    break
                rob.popleft()
                entry = head.entry
                del window[entry.seq]
                if not head.iq_released:
                    head.iq_released = True
                    iq_used[entry.iq] -= 1
                if head.predicted:
                    stats.predictions += 1
                    if head.pred_correct:
                        stats.correct_predictions += 1
                committed += 1
                # Safe to recycle: every cross-instruction link is by seq
                # (resolved via `window`), except spec_consumers/waiters
                # lists — a consumer only sits on an *unresolved*
                # prediction's list (unresolved pins the consumer's spec_on,
                # blocking its commit) or a *non-DONE* producer's waiters
                # (a non-DONE producer blocks the consumer's issue).
                pool.append(head)
                if entry.is_halt:
                    self.halted = True
                    break
            if committed:
                stats.committed += committed
            if self.halted:
                break

            # ---------------- complete + prediction resolution ----------
            events = completions.pop(cycle, None)
            if events:
                for inst, gen in events:
                    if inst.gen != gen or inst.state != _ISSUED:
                        continue  # stale event (instruction reset or squashed)
                    inst.state = _DONE
                    inst.complete_cycle = cycle
                    entry = inst.entry
                    seq = entry.seq
                    # Train the predictor at writeback (once per instance).
                    if kinds[seq] is not None and seq not in trained:
                        trained.add(seq)
                        record = entry.record
                        if entry.is_load and update_load is not None:
                            update_load(entry.pc, record.addr, record.result)
                        else:
                            predictor.update(entry.pc, inst.train, record.result)
                    if seq == self.fetch_stalled_on:
                        self.fetch_stalled_on = None
                        if self.fetch_resume < cycle + 1:
                            self.fetch_resume = cycle + 1
                    if inst.predicted and not inst.resolved:
                        self._try_resolve(inst)
                    # A completed value may be the comparison operand some
                    # older prediction is waiting on.
                    if resolution_waiters:
                        waiters = resolution_waiters.pop(seq, None)
                        if waiters:
                            for pred in waiters:
                                if pred.predicted and not pred.resolved and pred.state == _DONE:
                                    self._try_resolve(pred)
                    # Wake the consumers parked on this producer: they
                    # re-enter the candidate list and re-verify their other
                    # operands at issue.
                    wake = inst.waiters
                    if wake:
                        inst.waiters = []
                        cand = self._cand
                        for consumer in wake:
                            if not consumer.in_cand:
                                consumer.in_cand = True
                                insort(cand, consumer.entry.seq)
                rob = self.rob  # a REFETCH resolve may have squashed

            # ---------------- issue (oldest first, FU-limited) ----------
            cand = self._cand
            if cand:
                fu_int = cfg_fu_int
                fu_fp = cfg_fu_fp
                ldst_free = cfg_fu_ldst
                keep: List[int] = []
                ap = keep.append
                for pos, seq in enumerate(cand):
                    if fu_int <= 0 and fu_fp <= 0:
                        keep.extend(cand[pos:])
                        break
                    inst = window[seq]
                    if inst.earliest_issue > cycle:
                        # earliest_issue is assigned once at fetch, and
                        # fetch runs in seq order, so it is nondecreasing
                        # across the seq-sorted candidates: every later
                        # candidate is immature too.
                        keep.extend(cand[pos:])
                        break
                    if inst.min_issue > cycle:
                        ap(seq)
                        continue
                    entry = inst.entry
                    fu = entry.fu
                    if fu == "int":
                        if fu_int <= 0:
                            ap(seq)
                            continue
                    elif fu == "ldst":
                        if ldst_free <= 0 or fu_int <= 0:
                            ap(seq)
                            continue
                    elif fu == "fp":
                        if fu_fp <= 0:
                            ap(seq)
                            continue
                    # fu == "none" needs no unit.
                    blocker = None
                    for dep in inst.deps:
                        producer = wget(dep)
                        if producer is not None and producer.state != _DONE:
                            blocker = producer
                            break
                    if blocker is not None:
                        # Park on the first incomplete producer; its
                        # completion returns this inst to the candidates.
                        inst.in_cand = False
                        blocker.waiters.append(inst)
                        continue
                    # Issue it.
                    if fu == "int":
                        fu_int -= 1
                    elif fu == "ldst":
                        ldst_free -= 1
                        fu_int -= 1
                    elif fu == "fp":
                        fu_fp -= 1
                    latency = entry.base_latency
                    record = entry.record
                    addr = record.addr
                    if addr is not None and (entry.is_load or entry.is_store):
                        # Inlined L1D plain-hit path: MRU bump + hit count,
                        # identical to Cache.access for a line that is
                        # resident with no fill in flight.
                        line = addr >> l1d_shift
                        ways = l1d_sets[line % l1d_nsets]
                        if ways is not None and line in ways and (not l1d_fill or line not in l1d_fill):
                            if ways[-1] != line:
                                ways.remove(line)
                                ways.append(line)
                            l1d.hits += 1
                        elif entry.is_load:
                            latency += data_latency(addr, cycle)
                        else:
                            data_latency(addr, cycle)
                    inst.state = _ISSUED
                    inst.in_cand = False
                    done = cycle + (latency if latency > 1 else 1)
                    bucket = completions.get(done)
                    if bucket is None:
                        completions[done] = [(inst, inst.gen)]
                        heappush(heap, done)
                    else:
                        bucket.append((inst, inst.gen))
                    # IQ release policy (Section 7.1.1), identical to the
                    # reference.
                    if refetch:
                        if not inst.iq_released:
                            inst.iq_released = True
                            iq_used[entry.iq] -= 1
                    elif selective:
                        if not inst.spec_on and not inst.iq_released:
                            inst.iq_released = True
                            iq_used[entry.iq] -= 1
                    else:  # REISSUE
                        if not self._held_by_older_prediction(inst):
                            if not inst.iq_released:
                                inst.iq_released = True
                                iq_used[entry.iq] -= 1
                self._cand = keep

            # ---------------- dispatch / rename -------------------------
            stats.iq_occupancy_sum += iq_used["int"] + iq_used["fp"]
            fq = self.fetch_queue  # refreshed: squash rebinds it
            if fq:
                cand = self._cand
                pred_ports = pred_ports_cfg
                mature_bar = cycle - rename_delay + front_depth
                dispatched = 0
                rob_len = len(rob)  # rob only grows during dispatch
                while fq and dispatched < fetch_width:
                    inst = fq[0]
                    if inst.earliest_issue > mature_bar:
                        break  # head not through the front-end stages yet
                    if rob_len >= rob_size:
                        stats.rob_stall_cycles += 1
                        break
                    entry = inst.entry
                    iq = entry.iq
                    if iq_used[iq] >= iq_cap[iq]:
                        stats.iq_stall_cycles += 1
                        break
                    fq.popleft()
                    # Speculation-free rename fast path (module docstring):
                    # alias the stream's prebuilt producer-seq tuple (never
                    # mutated: dep_fix repairs only touch slow-path renames)
                    # and park on any in-flight producer — its completion
                    # re-enters this inst into the candidates, where all
                    # operands are re-verified.
                    blocker = None
                    seq = entry.seq
                    if not unresolved and kinds[seq] is None:
                        deps = entry.dep_seqs
                        inst.deps = deps
                        for dep in deps:
                            producer = wget(dep)
                            if producer is not None and producer.state != _DONE:
                                blocker = producer
                                break
                        if entry.is_store and observe_store is not None:
                            record = entry.record
                            if record.addr is not None:
                                observe_store(entry.pc, record.addr, record.store_value)
                    else:
                        inst.dirty = True
                        if self._rename(inst, pred_ports > 0):
                            pred_ports -= 1
                        for dep in inst.deps:
                            producer = wget(dep)
                            if producer is not None and producer.state != _DONE:
                                blocker = producer
                                break
                    iq_used[iq] += 1
                    inst.iq_released = False
                    window[seq] = inst
                    rob.append(inst)
                    rob_len += 1
                    dispatched += 1
                    # Park on an incomplete producer, or go straight to the
                    # candidate list (new seqs are in-flight maxima: append
                    # keeps _cand sorted).
                    if blocker is not None:
                        blocker.waiters.append(inst)
                    else:
                        inst.in_cand = True
                        cand.append(seq)

            # ---------------- fetch -------------------------------------
            if cycle < self.fetch_resume or self.fetch_stalled_on is not None:
                stats.fetch_stall_cycles += 1
            else:
                cursor = self.fetch_cursor
                if cursor < stream_len:
                    fetched = 0
                    blocks_left = fetch_blocks
                    last_line = -1
                    front = cycle + front_depth
                    qlen = len(fq)
                    while fetched < fetch_width and qlen < queue_cap and cursor < stream_len:
                        entry = stream[cursor]
                        record = entry.record
                        line = (record.pc * 8) >> l1i_shift
                        if line != last_line:
                            # Inlined L1I plain-hit path (MRU bump + hit
                            # count); misses and in-flight fills go through
                            # the cache model.
                            ways = l1i_sets[line % l1i_nsets]
                            if ways is not None and line in ways and (not l1i_fill or line not in l1i_fill):
                                if ways[-1] != line:
                                    ways.remove(line)
                                    ways.append(line)
                                l1i.hits += 1
                            else:
                                latency = fetch_latency(record.pc, cycle)
                                if latency > 0:
                                    self.fetch_resume = cycle + latency
                                    break
                            last_line = line
                        if pool:
                            inst = pool.pop()
                            if inst.dirty:
                                gen = inst.gen + 1  # monotonic across reuse
                                inst.entry = entry
                                inst.reset(fetch_cycle=cycle)
                                inst.gen = gen
                            else:
                                # Plain lifecycle left every other field at
                                # its post-reset default (see FastDynInst).
                                inst.entry = entry
                                inst.gen += 1
                                inst.state = _WAIT
                                inst.min_issue = 0
                                inst.complete_cycle = -1
                        else:
                            inst = FastDynInst(entry)
                        inst.earliest_issue = front
                        fq.append(inst)
                        qlen += 1
                        cursor += 1
                        fetched += 1

                        if entry.is_halt:
                            break
                        if entry.is_control:
                            if entry.cond_branch:
                                # Inlined BranchPredictor._conditional: PHT
                                # lookup + train, history update, BTB check
                                # on predicted-taken (statement-for-
                                # statement the model's logic).
                                taken = bool(record.taken)
                                branch.cond_lookups += 1
                                inst_s = record.inst
                                history = branch._history
                                index = (inst_s.pc ^ history) & bp_mask
                                counter = bp_pht[index]
                                if taken:
                                    if counter < 3:
                                        bp_pht[index] = counter + 1
                                    branch._history = ((history << 1) | 1) & bp_mask
                                    if counter >= 2:
                                        predicted_target = btb_lookup(inst_s.pc)
                                        btb_update(inst_s.pc, record.next_pc)
                                        ok = predicted_target == record.next_pc
                                        if not ok:
                                            branch.target_mispredicts += 1
                                    else:
                                        btb_update(inst_s.pc, record.next_pc)
                                        branch.cond_mispredicts += 1
                                        ok = False
                                else:
                                    if counter > 0:
                                        bp_pht[index] = counter - 1
                                    branch._history = (history << 1) & bp_mask
                                    ok = counter < 2
                                    if not ok:
                                        branch.cond_mispredicts += 1
                            else:
                                taken = True
                                ok = predict_and_train(record.inst, True, record.next_pc)
                            if not ok:
                                stats.branch_mispredicts += 1
                                self.fetch_stalled_on = entry.seq
                                break
                            if taken:
                                blocks_left -= 1
                                if blocks_left <= 0:
                                    break
                                last_line = -1  # new block may be a new line
                    self.fetch_cursor = cursor
                    stats.fetched += fetched

            # ---------------- drain halt + cycle skipping ---------------
            if self.fetch_cursor >= stream_len and not rob and not fq:
                # Trace truncated before a halt: pipeline has drained.
                self.halted = True
                break
            # Cheap wake checks first: a committable head or an event next
            # cycle means no skip — stay on the hot path.
            if rob:
                head = rob[0]
                if head.state == _DONE and not head.spec_on and (not head.predicted or head.resolved):
                    continue
            while heap and heap[0] not in completions:
                heappop(heap)
            if heap and heap[0] <= cycle + 1:
                continue
            nxt = self._next_active_cycle(max_cycles)
            if nxt > cycle + 1:
                self._account_skip(nxt - cycle - 1)
                cycle = nxt - 1

        self.stats.cycles = self.cycle
        self.stats.l1d_misses = memory.l1d.misses
        self.stats.l1i_misses = memory.l1i.misses
        return self.stats

    # ==================================================================
    # Wake-up computation and closed-form skip accounting
    # ==================================================================
    def _next_active_cycle(self, max_cycles: int) -> int:
        """Earliest cycle > ``self.cycle`` at which any stage can act.

        Every state transition of the machine is driven by one of the wake
        sources below; a cycle none of them selects only accrues the
        per-cycle stats that :meth:`_account_skip` reproduces closed-form.
        With no wake source at all the machine is deadlocked: jump straight
        to ``max_cycles + 1`` so the loop raises the reference's exact
        diagnostic after accounting the stalled tail.
        """
        cycle = self.cycle
        nxt = cycle + 1
        horizon = max_cycles + 1
        best = horizon
        # 1. committable ROB head -> commit fires next cycle.
        rob = self.rob
        if rob:
            head = rob[0]
            if head.state == _DONE and not head.spec_on and (not head.predicted or head.resolved):
                return nxt
        # 2. pending completion events (heap is lazily cleaned: stale keys
        # are ones the completion stage already popped from the dict).
        heap = self._comp_heap
        completions = self.completions
        while heap and heap[0] not in completions:
            heappop(heap)
        if heap:
            c = heap[0]
            if c <= nxt:
                return nxt
            if c < best:
                best = c
        # 3. fetch possible (not redirect-stalled, instructions left, room).
        if (
            self.fetch_stalled_on is None
            and self.fetch_cursor < len(self.stream)
            and len(self.fetch_queue) < self._fetch_queue_cap
        ):
            c = self.fetch_resume
            if c <= nxt:
                return nxt
            if c < best:
                best = c
        # 4. dispatch: queue head maturity (unconditional while immature,
        # keeping stall attribution uniform inside a region), or an actual
        # dispatch next cycle once mature with ROB and IQ space.
        fq = self.fetch_queue
        if fq:
            head_inst = fq[0]
            mature_at = head_inst.earliest_issue - self._front_depth + self._rename_delay
            if mature_at > nxt:
                if mature_at < best:
                    best = mature_at
            else:
                iq = head_inst.entry.iq
                if len(rob) < self.config.rob_size and self.iq_used[iq] < self._iq_cap[iq]:
                    return nxt
        # 5. candidates whose producers have all completed issue at
        # max(earliest_issue, min_issue).  Producers still in flight
        # complete at a heap event (source 2), which re-evaluates; a _WAIT
        # instruction outside _cand has a non-DONE producer by invariant.
        window = self.window
        wget = window.get
        for seq in self._cand:
            inst = window[seq]
            c = inst.earliest_issue
            if c >= best:
                # earliest_issue is nondecreasing across the seq-sorted
                # candidates (assigned once, in fetch order): no later
                # candidate can beat the current bound.
                break
            ready = True
            for dep in inst.deps:
                producer = wget(dep)
                if producer is not None and producer.state != _DONE:
                    ready = False
                    break
            if not ready:
                continue
            if inst.min_issue > c:
                c = inst.min_issue
            if c <= nxt:
                return nxt
            if c < best:
                best = c
        return best if best < horizon else horizon

    def _account_skip(self, skipped: int) -> None:
        """Accrue the per-cycle stats of ``skipped`` quiet cycles at once.

        During a quiet region nothing issues, completes, commits,
        dispatches or fetches, so IQ occupancy, ROB/IQ fullness and the
        fetch-stall predicate are all frozen — each reference-loop accrual
        is a plain multiple (fetch stalls additionally clipped at
        ``fetch_resume``, the only boundary a region may legally cross,
        when fetch is blocked by a full queue or an exhausted cursor).
        """
        stats = self.stats
        if not _TEST_SKIP_EVENT:
            stats.iq_occupancy_sum += skipped * (self.iq_used["int"] + self.iq_used["fp"])
        fq = self.fetch_queue
        if fq:
            head_inst = fq[0]
            if head_inst.earliest_issue - self._front_depth + self._rename_delay <= self.cycle + 1:
                # Mature head blocked for the whole region: the reference
                # loop counts one stall per cycle, ROB checked first.
                if len(self.rob) >= self.config.rob_size:
                    stats.rob_stall_cycles += skipped
                else:
                    iq = head_inst.entry.iq
                    if self.iq_used[iq] >= self._iq_cap[iq]:
                        stats.iq_stall_cycles += skipped
        if self.fetch_stalled_on is not None:
            stats.fetch_stall_cycles += skipped
        else:
            stall = self.fetch_resume - self.cycle - 1
            if stall > 0:
                stats.fetch_stall_cycles += stall if stall < skipped else skipped

    # ==================================================================
    # Recovery callbacks (shared _resolve/_try_resolve call into these)
    # ==================================================================
    def _reset_inst(self, inst: DynInst) -> None:
        # An ISSUED/DONE instruction is neither a candidate nor parked on a
        # producer (both are _WAIT-only states); returning it to _WAIT must
        # re-enter it into the candidate list.  A _WAIT instruction keeps
        # its current parking spot (the reference only bumps min_issue).
        if inst.state != _WAIT and not inst.in_cand:
            inst.in_cand = True
            insort(self._cand, inst.seq)
        super()._reset_inst(inst)

    def _squash_from(self, first_seq: int) -> None:
        # Stats-exact copy of the reference squash, adapted to the fast
        # tier's bare-instruction fetch queue, wakeup lists and pool.
        # Victims are marked dirty (their speculative fields are stale) and
        # recycled; their gen bump invalidates pending completion events.
        window = self.window
        unresolved = self.unresolved_preds
        pool = self._pool
        keep: List[FastDynInst] = []
        for inst in self.rob:
            if inst.seq >= first_seq:
                if not inst.iq_released:
                    self._release_iq(inst)
                inst.gen += 1
                del window[inst.seq]
                unresolved.pop(inst.seq, None)
                inst.dirty = True
                pool.append(inst)
            else:
                keep.append(inst)
        self.rob = deque(keep)
        new_queue: deque = deque()
        for inst in self.fetch_queue:
            if inst.seq < first_seq:
                new_queue.append(inst)
            else:
                inst.dirty = True
                pool.append(inst)
        self.fetch_queue = new_queue
        # Clean prediction bookkeeping that referenced squashed consumers.
        for pred in unresolved.values():
            pred.spec_consumers = [c for c in pred.spec_consumers if c.seq < first_seq]
            if pred.first_use is not None and pred.first_use >= first_seq:
                pred.first_use = min((c.seq for c in pred.spec_consumers), default=None)
        for inst in self.rob:
            inst.spec_on = {s for s in inst.spec_on if s in unresolved}
            # Surviving producers must not wake squashed (pooled) consumers.
            if inst.waiters:
                inst.waiters = [w for w in inst.waiters if w.seq < first_seq]
        waiters_map = self._resolution_waiters
        for key in list(waiters_map):
            kept_waiters = [p for p in waiters_map[key] if p.seq < first_seq]
            if kept_waiters and key < first_seq:
                waiters_map[key] = kept_waiters
            else:
                del waiters_map[key]
        cand = self._cand
        if cand and cand[-1] >= first_seq:
            self._cand = [seq for seq in cand if seq < first_seq]
        if self.fetch_stalled_on is not None and self.fetch_stalled_on >= first_seq:
            self.fetch_stalled_on = None
        self.fetch_cursor = first_seq
        if self.fetch_resume < self.cycle + 1:
            self.fetch_resume = self.cycle + 1
