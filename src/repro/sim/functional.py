"""Execution-driven functional (architectural) simulator.

This is both (a) the trace generator feeding all profilers and the Figure 1
reuse analysis, and (b) the golden reference for co-simulating the pipeline:
whatever prediction or recovery scheme the pipeline uses, its committed
architectural state must match this interpreter's.

Two execution engines share this class:

* the **decoded** engine (default) — the pre-decoded threaded-code core from
  :mod:`repro.sim.decoded`: each static instruction is compiled once into a
  specialized handler closure, and :meth:`FunctionalSimulator.iter_run` /
  :meth:`FunctionalSimulator.run` dispatch the handler table in a tight,
  locals-hoisted loop.  ``run(collect_trace=False)`` with no observers takes
  a further fast path that allocates no :class:`TraceRecord` at all.
* the **reference** engine — :meth:`FunctionalSimulator.step`, the original
  decode-every-time interpreter.  It is kept verbatim as the correctness
  oracle: golden tests and the ``trace-equivalence`` fuzz oracle assert the
  decoded engine reproduces its records, final state and memory bit for bit.
  Select it with ``FunctionalSimulator(engine="reference")``.

Observers receive each :class:`TraceRecord` as it commits and may also inspect
the live :class:`ArchState` (the record is delivered *after* the architectural
write, with the prior destination value preserved in ``record.old_dest``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from ..isa.instructions import Instruction
from ..isa.opcodes import OpKind
from ..isa.program import Program
from .decoded import decode
from .machine import ArchState
from .memory import Memory
from .trace import TraceRecord

Observer = Callable[[TraceRecord, ArchState], None]

#: ``decoded`` (threaded-code core, the default) or ``reference`` (the
#: step() oracle).
_ENGINES = ("decoded", "reference")


def _metrics():
    # Imported lazily: repro.core imports repro.sim at package-init time, so a
    # module-level import here would be circular.
    from ..core.metrics import get_metrics

    return get_metrics()


class SimulationError(RuntimeError):
    """Raised for runaway or malformed execution (pc out of range, no halt)."""


class BudgetExceeded(SimulationError):
    """A run committed its full instruction budget without halting.

    Raised only by simulators built with ``strict_budget=True`` — the default
    keeps the historical semantics (truncate at the budget, ``halted=False``),
    which profiling and the paper's fixed-budget measurements rely on.  The
    campaign layer (:mod:`repro.runtime`) derives per-cell wall-clock
    deadlines from ``max_instructions``; this guard is the in-process
    counterpart, turning a runaway program into a deterministic, classifiable
    fault instead of a hung worker.
    """


@dataclass
class RunResult:
    """Outcome of a functional run."""

    state: ArchState
    memory: Memory
    instructions: int
    halted: bool
    trace: Optional[List[TraceRecord]] = None


class FunctionalSimulator:
    """Interprets a :class:`Program` against an :class:`ArchState` + :class:`Memory`."""

    def __init__(
        self,
        program: Program,
        memory: Optional[Memory] = None,
        state: Optional[ArchState] = None,
        engine: Optional[str] = None,
        strict_budget: bool = False,
    ) -> None:
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.state = state if state is not None else ArchState()
        self.state.pc = program.entry
        self.engine = engine if engine is not None else "decoded"
        #: raise :class:`BudgetExceeded` instead of truncating at the budget.
        self.strict_budget = strict_budget
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {_ENGINES}")
        self._observers: List[Observer] = []
        #: trace-less :class:`RunResult` of the most recent (streamed) run.
        self.last_result: Optional[RunResult] = None

    def add_observer(self, observer: Observer) -> None:
        self._observers.append(observer)

    def _check_budget(self, halted: bool, executed: int, max_instructions: int, pc: int) -> None:
        """Raise :class:`BudgetExceeded` when a strict run exhausts its budget.

        Called after a commit loop falls off the end; identical for both
        engines so the decoded core faults exactly where the oracle would.
        """
        if self.strict_budget and not halted and executed >= max_instructions:
            raise BudgetExceeded(
                f"instruction budget exhausted: program {self.program.name!r} committed "
                f"{executed} instructions without halting (budget {max_instructions}, pc {pc})"
            )

    # ------------------------------------------------------------------
    # Reference engine (the oracle) — decodes every dynamic instruction
    # ------------------------------------------------------------------
    def step(self, seq: int) -> Tuple[TraceRecord, bool]:
        """Execute one instruction; returns (record, halted).

        This is the *reference* interpreter, deliberately unoptimized: the
        decoded engine must match it record for record (see
        ``tests/test_sim_decoded.py``), so any change here must be mirrored
        in :mod:`repro.sim.decoded`.
        """
        state = self.state
        pc = state.pc
        if not 0 <= pc < len(self.program):
            raise SimulationError(f"pc {pc} out of range (program {self.program.name})")
        inst = self.program[pc]
        op = inst.op
        kind = op.kind
        next_pc = pc + 1
        result: Optional[int] = None
        old_dest: Optional[int] = None
        addr: Optional[int] = None
        store_value: Optional[int] = None
        taken: Optional[bool] = None
        halted = False
        src_values: Tuple[int, ...] = ()

        if kind is OpKind.ALU:
            a = state.read(inst.src1) if inst.src1 is not None else 0
            if inst.src2 is not None:
                b = state.read(inst.src2)
                src_values = (a, b)
            else:
                b = inst.imm if inst.imm is not None else 0
                src_values = (a,) if inst.src1 is not None else ()
            result = op.alu_fn(a, b)  # type: ignore[misc]
        elif kind is OpKind.LOAD:
            base = state.read(inst.src1)
            src_values = (base,)
            addr = (base + (inst.imm or 0)) & ((1 << 64) - 1)
            result = self.memory.load(addr)
        elif kind is OpKind.STORE:
            base = state.read(inst.src1)
            value = state.read(inst.src2)
            src_values = (base, value)
            addr = (base + (inst.imm or 0)) & ((1 << 64) - 1)
            store_value = value
            self.memory.store(addr, value)
        elif kind is OpKind.BRANCH:
            test = state.read(inst.src1)
            src_values = (test,)
            taken = op.cond_fn(test)  # type: ignore[misc]
            if taken:
                next_pc = inst.target_pc  # type: ignore[assignment]
        elif kind is OpKind.JUMP:
            next_pc = inst.target_pc  # type: ignore[assignment]
        elif kind is OpKind.CALL:
            result = pc + 1
            next_pc = inst.target_pc  # type: ignore[assignment]
        elif kind is OpKind.INDIRECT:
            target = state.read(inst.src1)
            src_values = (target,)
            next_pc = target
        elif kind is OpKind.HALT:
            halted = True
            next_pc = pc
        # NOP falls through with no effects.

        if result is not None and inst.writes is not None:
            old_dest = state.read(inst.writes)
            state.write(inst.writes, result)
        elif result is not None:
            # Write to a zero register: result computed, architecturally dropped.
            old_dest = 0

        state.pc = next_pc
        record = TraceRecord(
            seq=seq,
            pc=pc,
            inst=inst,
            next_pc=next_pc,
            result=result,
            old_dest=old_dest,
            src_values=src_values,
            addr=addr,
            store_value=store_value,
            taken=taken,
        )
        return record, halted

    def iter_run_reference(self, max_instructions: int = 1_000_000) -> Iterator[TraceRecord]:
        """Stream a run through the reference :meth:`step` loop (the oracle)."""
        observers = self._observers
        halted = False
        executed = 0
        try:
            for seq in range(max_instructions):
                record, halted = self.step(seq)
                executed += 1
                for observer in observers:
                    observer(record, self.state)
                yield record
                if halted:
                    break
            self._check_budget(halted, executed, max_instructions, self.state.pc)
        finally:
            self.last_result = RunResult(
                state=self.state, memory=self.memory, instructions=executed, halted=halted, trace=None
            )
            metrics = _metrics()
            metrics.inc("sim.runs")
            metrics.inc("sim.instructions", executed)

    # ------------------------------------------------------------------
    # Decoded engine — pre-bound handler table, locals-hoisted dispatch
    # ------------------------------------------------------------------
    def _iter_run_decoded(self, max_instructions: int) -> Iterator[TraceRecord]:
        state = self.state
        decoded = decode(self.program)
        handlers = decoded.bind_trace(state, self.memory)
        halt_flags = decoded.halt_flags
        observers = self._observers
        name = self.program.name
        n = len(handlers)
        pc = state.pc
        executed = 0
        halted = False
        try:
            if observers:
                for seq in range(max_instructions):
                    if not 0 <= pc < n:
                        raise SimulationError(f"pc {pc} out of range (program {name})")
                    record = handlers[pc](seq)
                    executed += 1
                    for observer in observers:
                        observer(record, state)
                    yield record
                    if halt_flags[pc]:
                        halted = True
                        break
                    pc = record.next_pc
            else:
                for seq in range(max_instructions):
                    if not 0 <= pc < n:
                        raise SimulationError(f"pc {pc} out of range (program {name})")
                    record = handlers[pc](seq)
                    executed += 1
                    yield record
                    if halt_flags[pc]:
                        halted = True
                        break
                    pc = record.next_pc
            self._check_budget(halted, executed, max_instructions, pc)
        finally:
            self.last_result = RunResult(
                state=state, memory=self.memory, instructions=executed, halted=halted, trace=None
            )
            metrics = _metrics()
            metrics.inc("sim.runs")
            metrics.inc("sim.runs_traced")
            metrics.inc("sim.instructions", executed)

    def _run_fast(self, max_instructions: int) -> None:
        """No-observer, no-record dispatch: architectural effects only.

        Sets :attr:`last_result`; allocates nothing per dynamic instruction
        (no :class:`TraceRecord`, no tuples), which is what makes trace-less
        consumers cheap.
        """
        state = self.state
        decoded = decode(self.program)
        handlers = decoded.bind_fast(state, self.memory)
        name = self.program.name
        n = len(handlers)
        pc = state.pc
        executed = 0
        halted = False
        try:
            try:
                for _ in range(max_instructions):
                    if not 0 <= pc < n:
                        raise SimulationError(f"pc {pc} out of range (program {name})")
                    nxt = handlers[pc]()
                    executed += 1
                    if nxt < 0:  # HALT sentinel
                        halted = True
                        break
                    pc = nxt
            finally:
                # Keep state.pc exactly where the reference engine leaves it,
                # including on SimulationError / unaligned-access faults.
                state.pc = pc
            self._check_budget(halted, executed, max_instructions, pc)
        finally:
            self.last_result = RunResult(
                state=state, memory=self.memory, instructions=executed, halted=halted, trace=None
            )
            metrics = _metrics()
            metrics.inc("sim.runs")
            metrics.inc("sim.runs_fast")
            metrics.inc("sim.instructions", executed)

    def _run_traced(self, max_instructions: int) -> List[TraceRecord]:
        """Eager record collection without generator suspension overhead.

        Identical commit semantics to :meth:`_iter_run_decoded`, but appends
        straight into a list — ``run(collect_trace=True)`` with no observers
        lands here.
        """
        state = self.state
        decoded = decode(self.program)
        handlers = decoded.bind_trace(state, self.memory)
        halt_flags = decoded.halt_flags
        name = self.program.name
        n = len(handlers)
        pc = state.pc
        records: List[TraceRecord] = []
        append = records.append
        executed = 0
        halted = False
        try:
            for seq in range(max_instructions):
                if not 0 <= pc < n:
                    raise SimulationError(f"pc {pc} out of range (program {name})")
                record = handlers[pc](seq)
                executed += 1
                append(record)
                if halt_flags[pc]:
                    halted = True
                    break
                pc = record.next_pc
            self._check_budget(halted, executed, max_instructions, pc)
        finally:
            self.last_result = RunResult(
                state=state, memory=self.memory, instructions=executed, halted=halted, trace=None
            )
            metrics = _metrics()
            metrics.inc("sim.runs")
            metrics.inc("sim.runs_traced")
            metrics.inc("sim.instructions", executed)
        return records

    # ------------------------------------------------------------------
    # Public run surface
    # ------------------------------------------------------------------
    def iter_run(self, max_instructions: int = 1_000_000) -> Iterator[TraceRecord]:
        """Stream the run: yield each committed :class:`TraceRecord` in turn.

        Nothing is materialized — consumers that need only one pass (the
        profilers, :func:`repro.uarch.stream.prepare_stream`) process records
        as they commit, keeping resident memory flat.  Observers fire before
        the record is yielded.  After the generator is exhausted (or closed),
        :attr:`last_result` holds the trace-less :class:`RunResult`; the final
        architectural state and memory remain live on ``self.state`` /
        ``self.memory``.

        Dispatches the decoded handler table unless the simulator was built
        with ``engine="reference"``.
        """
        if self.engine == "reference":
            return self.iter_run_reference(max_instructions=max_instructions)
        return self._iter_run_decoded(max_instructions)

    def run(self, max_instructions: int = 1_000_000, collect_trace: bool = False) -> RunResult:
        """Run until ``halt`` or ``max_instructions`` committed instructions.

        ``collect_trace=True`` materializes the full record list on the
        result.  With no trace requested and no observers attached, the
        decoded engine skips record construction entirely (the no-allocation
        fast path).
        """
        if not self._observers and self.engine != "reference":
            if collect_trace:
                trace = self._run_traced(max_instructions)
            else:
                self._run_fast(max_instructions)
                trace = None
            result = self.last_result
            return RunResult(
                state=result.state,
                memory=result.memory,
                instructions=result.instructions,
                halted=result.halted,
                trace=trace,
            )
        return self._drain(self.iter_run(max_instructions=max_instructions), collect_trace)

    def _drain(self, records: Iterator[TraceRecord], collect_trace: bool) -> RunResult:
        trace: Optional[List[TraceRecord]] = [] if collect_trace else None
        if trace is None:
            for _ in records:
                pass
        else:
            trace.extend(records)
        result = self.last_result
        return RunResult(
            state=result.state,
            memory=result.memory,
            instructions=result.instructions,
            halted=result.halted,
            trace=trace,
        )


def run_program(
    program: Program,
    memory: Optional[Memory] = None,
    max_instructions: int = 1_000_000,
    collect_trace: bool = False,
    observers: Optional[List[Observer]] = None,
    state: Optional[ArchState] = None,
    strict_budget: bool = False,
) -> RunResult:
    """Convenience wrapper: build a simulator, attach observers, run.

    A caller-supplied ``state`` is used as the live architectural state
    (its ``pc`` is reset to the program entry), exactly as when passing it
    to :class:`FunctionalSimulator` directly.
    """
    sim = FunctionalSimulator(program, memory=memory, state=state, strict_budget=strict_budget)
    for observer in observers or []:
        sim.add_observer(observer)
    return sim.run(max_instructions=max_instructions, collect_trace=collect_trace)


def stream_program(
    program: Program,
    memory: Optional[Memory] = None,
    max_instructions: int = 1_000_000,
    observers: Optional[List[Observer]] = None,
    state: Optional[ArchState] = None,
) -> Tuple[FunctionalSimulator, Iterator[TraceRecord]]:
    """Streaming counterpart of :func:`run_program`.

    Returns ``(simulator, record_iterator)``; after the iterator is drained
    the simulator's ``last_result`` / ``state`` / ``memory`` hold the outcome.
    """
    sim = FunctionalSimulator(program, memory=memory, state=state)
    for observer in observers or []:
        sim.add_observer(observer)
    return sim, sim.iter_run(max_instructions=max_instructions)
