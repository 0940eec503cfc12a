"""Correct-path dynamic stream preparation for the pipeline simulator.

The pipeline is execution-driven off the functional simulator's committed
trace.  Because register renaming always routes a consumer to the correct
prior writer (the paper's "no stale values" property, Section 1), every
*architectural* quantity the pipeline needs is a pure function of the dynamic
instruction sequence.  It splits into two pieces:

* the **base stream** (:func:`prepare_stream`), which depends on the trace
  alone and is built once per trace: per-operand producers (the last older
  writer of each register), the destination's previous writer (RVP's
  prediction source), the last store to a load's address (memory
  dependence), FU/IQ class and latency, control facts, and the two
  correctness facts every predictor shares — does the result equal the
  destination's old value (``dst_same``), and does it equal the previous
  instance's result (``prev_same``);
* the **prediction overlay** (:class:`PredictionOverlay`), built per run
  from ``(stream, predictor)``: which instructions are candidates and from
  which source kind.  Its routing (:func:`predictor_routing`) asks
  ``predictor.source()`` once per static pc.  Same-register (DST) and
  previous-instance (STORED) candidates read the base fields;
  correlated-register (REG, dead/live hint) candidates need a
  register-mirror pass, which runs only when some pc has a REG source.

Only *timing* and predictor state (confidence counters, LVP table contents)
remain dynamic; the cycle engine handles those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..isa.instructions import Instruction
from ..isa.opcodes import FuClass, OpKind
from ..profiling.deadness import reg_id
from ..sim.trace import TraceRecord
from ..vp.base import SourceKind, ValuePredictor

#: One candidate pc's routing: ``(pc, source kind, REG register id or None)``.
Route = Tuple[int, SourceKind, Optional[int]]


@dataclass(slots=True)
class StreamEntry:
    """One correct-path dynamic instruction with precomputed dependences.

    Every field is a function of the trace alone, so one stream serves every
    predictor.  Like :class:`~repro.sim.trace.TraceRecord`, this is a
    per-dynamic-instruction record held for a whole pipeline run; it is
    slotted for footprint.
    """

    seq: int
    pc: int
    record: TraceRecord
    fu: str  # 'int' | 'fp' | 'ldst' | 'none'
    iq: str  # 'int' | 'fp'
    base_latency: int
    src_deps: Tuple[Optional[int], ...]
    store_dep: Optional[int]
    #: destination register id (None = no architectural destination)
    dst_id: Optional[int]
    #: previous writer of the destination register (DST prediction source)
    dst_old_writer: Optional[int]
    #: the result equals the destination's old value (a DST prediction hits)
    dst_same: bool
    #: previous dynamic instance of this pc (the ideal-LVR STORED source)
    prev_instance: Optional[int]
    #: the result equals the previous instance's result
    prev_same: bool
    # ------------------------------------------------------------------
    # Pre-decoded per-pc timing facts (the fast timing tier's hot path
    # reads these flat booleans instead of chasing record.inst.op.* every
    # fetch/issue/commit; the reference tier ignores them).
    # ------------------------------------------------------------------
    is_load: bool = False
    is_store: bool = False
    is_halt: bool = False
    is_control: bool = False
    #: conditional branch (OpKind.BRANCH): fetch reads the recorded outcome
    cond_branch: bool = False
    #: flattened producer seqs (non-None src_deps + store_dep): exactly the
    #: dependence list speculation-free rename produces, pre-built so the
    #: fast tier can alias it without a per-instruction list build
    dep_seqs: Tuple[int, ...] = ()

    @property
    def inst(self):
        return self.record.inst


def _fu_of(record: TraceRecord) -> Tuple[str, str]:
    op = record.inst.op
    if op.is_mem:
        return "ldst", "fp" if op.fp_dest and op.is_load else "int"
    if op.fu is FuClass.FP:
        return "fp", "fp"
    return "int", "int"


def prepare_stream(trace: Iterable[TraceRecord]) -> List[StreamEntry]:
    """Precompute the predictor-independent pipeline stream of one trace.

    ``trace`` may be any iterable of records — a cached tuple or a live
    :meth:`~repro.sim.functional.FunctionalSimulator.iter_run` generator; it
    is consumed in a single forward pass.

    Everything that is a pure function of the *static* instruction — FU/IQ
    classification, operand register ids, the destination id, the opcode
    latency — is computed once per pc and memoized, so the per-record loop
    touches only the dynamic mirrors.
    """
    entries: List[StreamEntry] = []
    append = entries.append
    last_writer: Dict[int, int] = {}
    last_store: Dict[int, int] = {}
    lw_get = last_writer.get
    last_result_of_pc: Dict[int, Tuple[int, int]] = {}  # pc -> (seq, result)
    #: pc -> (fu, iq, latency, read_ids, is_load, is_store, dst_id, is_halt,
    #:        is_control, cond_branch) — the static facts of one instruction.
    static_cache: Dict[int, Tuple] = {}

    for record in trace:
        seq = record.seq
        pc = record.pc
        static = static_cache.get(pc)
        if static is None:
            inst = record.inst
            fu, iq = _fu_of(record)
            read_ids = tuple(None if src.is_zero else reg_id(src) for src in inst.reads)
            dst = inst.writes
            static = static_cache[pc] = (
                fu, iq, inst.op.latency, read_ids, inst.op.is_load, inst.op.is_store,
                reg_id(dst) if dst is not None else None,
                inst.is_halt, inst.is_control, inst.op.kind is OpKind.BRANCH,
            )
        fu, iq, latency, read_ids, is_load, is_store, dst_id, is_halt, is_control, cond_branch = static

        # A zero-register operand has read id None, which is never a key.
        deps = tuple(map(lw_get, read_ids))
        addr = record.addr
        store_dep = last_store.get(addr) if is_load and addr is not None else None
        dep_seqs = deps if None not in deps else tuple(d for d in deps if d is not None)
        if store_dep is not None:
            dep_seqs += (store_dep,)
        dst_old_writer = lw_get(dst_id) if dst_id is not None else None

        result = record.result
        prev_instance: Optional[int] = None
        prev_same = dst_same = False
        if result is not None:
            dst_same = result == record.old_dest
            prev = last_result_of_pc.get(pc)
            if prev is not None:
                prev_instance = prev[0]
                prev_same = result == prev[1]

        # Positional, in field order: keyword construction of this many
        # fields costs more than the rest of the loop body.
        append(
            StreamEntry(
                seq, pc, record, fu, iq, latency, deps, store_dep, dst_id,
                dst_old_writer, dst_same, prev_instance, prev_same,
                is_load, is_store, is_halt, is_control, cond_branch, dep_seqs,
            )
        )

        # Advance the mirrors.
        if result is not None:
            if dst_id is not None:
                last_writer[dst_id] = seq
            last_result_of_pc[pc] = (seq, result)
        if is_store and addr is not None:
            last_store[addr] = seq
    return entries


def predictor_routing(insts: Iterable[Instruction], predictor: ValuePredictor) -> Tuple[Route, ...]:
    """The candidate pcs of ``insts`` under ``predictor``, in order.

    A candidate is an instruction with a destination that
    ``predictor.source()`` routes.  ``source()`` is called exactly once per
    instruction, which also lets a predictor that routes state by pc
    (Gabbay's register counters) fill its routing table.  The result is a
    pure value, so it doubles as the routing part of a timing-memo key.
    """
    routing: List[Route] = []
    for inst in insts:
        source = predictor.source(inst)
        if source is None or inst.writes is None:
            continue
        rid = reg_id(source.reg) if source.kind is SourceKind.REG else None
        routing.append((inst.pc, source.kind, rid))
    return tuple(routing)


class PredictionOverlay:
    """One predictor's candidates over a base stream, built per run.

    ``kind[seq]`` is the prediction source kind of every candidate — an
    instruction whose pc the routing lists — and ``None`` elsewhere.
    ``facts_of[seq]`` (also :meth:`facts`) is a candidate's prediction-value
    producer and whether a register-sourced (or ideal previous-instance)
    prediction would be correct, built for every candidate at once;
    table-backed STORED predictors read their own table at rename instead.

    The routing is :func:`predictor_routing` over the stream's static
    instructions in order of first appearance, so ``predictor.source()`` is
    called exactly once per static pc of the trace.
    """

    __slots__ = ("kind", "facts_of")

    def __init__(self, stream: Sequence[StreamEntry], predictor: ValuePredictor) -> None:
        insts = {entry.pc: entry.record.inst for entry in stream}
        routing = predictor_routing(insts.values(), predictor)
        kind_of: Dict[int, SourceKind] = {pc: kind for pc, kind, _ in routing}
        #: pc -> register id of a REG source
        reg_source: Dict[int, int] = {pc: rid for pc, _, rid in routing if rid is not None}
        #: per seq: the candidate's source kind, or None
        self.kind: List[Optional[SourceKind]] = [kind_of.get(entry.pc) for entry in stream]
        reg = _register_mirror(stream, reg_source) if reg_source else {}
        dst, stored = SourceKind.DST, SourceKind.STORED
        #: per seq: the candidate's (value_dep, correct), or None
        self.facts_of: List[Optional[Tuple[Optional[int], bool]]] = [
            None if kind is None
            else (entry.dst_old_writer, entry.dst_same) if kind is dst
            else (entry.prev_instance, entry.prev_same) if kind is stored
            else reg[entry.seq]
            for entry, kind in zip(stream, self.kind)
        ]

    def facts(self, entry: StreamEntry) -> Tuple[Optional[int], bool]:
        """``(value_dep, correct)`` of candidate ``entry``: the producer of
        the value its prediction reads, and whether that value equals the
        result."""
        return self.facts_of[entry.seq]


def _register_mirror(
    stream: Sequence[StreamEntry], reg_source: Dict[int, int]
) -> Dict[int, Tuple[Optional[int], bool]]:
    """Replay register writes to find, for every dynamic instance of a
    REG-sourced pc, the source register's last writer and whether its value
    equals the instance's result."""
    last_writer: Dict[int, int] = {}
    reg_values: List[int] = [0] * 64
    facts: Dict[int, Tuple[Optional[int], bool]] = {}
    for entry in stream:
        result = entry.record.result
        if result is None:
            continue
        rid = reg_source.get(entry.pc)
        if rid is not None:
            facts[entry.seq] = (last_writer.get(rid), result == reg_values[rid])
        dst_id = entry.dst_id
        if dst_id is not None:
            last_writer[dst_id] = entry.seq
            reg_values[dst_id] = result
    return facts
