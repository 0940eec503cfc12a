"""Pre-decoded threaded-code execution core.

The reference interpreter (:meth:`~repro.sim.functional.FunctionalSimulator.step`)
re-decodes every static instruction on every dynamic execution: an
``OpKind`` if-chain, per-operand :meth:`~repro.sim.machine.ArchState.read`
calls, alignment math inside :class:`~repro.sim.memory.Memory`, and a
keyword-built record per commit.  Dynamic instruction streams are dominated
by a small static working set inside loops, so all of that work amortizes to
near zero if it is done once per *static* instruction instead.

:func:`decode` is that pass.  For each static :class:`Instruction` it
extracts, exactly once:

* the register-bank (int/fp) and slot index of every operand — the hardwired
  zero registers read as plain slots, since nothing ever writes their cells;
* the pre-masked immediate / effective-address offset;
* the resolved ``alu_fn``, or a flat branch condition on the unsigned 64-bit
  value (no ``to_signed`` round trip);
* the destination slot (or the knowledge that the result is architecturally
  dropped);
* the fall-through and branch-target pcs as constants.

The result of each extraction is one *handler builder*.  At run time
:meth:`DecodedProgram.bind_trace` instantiates one closure per static
instruction with the live register-bank lists and memory bound into the
closure cells (threaded code): ``handler(seq) -> TraceRecord``, which
performs the architectural effects, advances ``state.pc`` and returns a
record bit-identical to the reference interpreter's (including unmasked
``li`` results and the ``old_dest`` capture).  Handlers build that record
with ``tuple.__new__(TraceRecord, fields)``, skipping the generated
keyword ``__new__`` of the :class:`~typing.NamedTuple`.  Every decoded run,
with or without a trace kept, dispatches these handlers.

Handlers are rebuilt per run (one closure per *static* instruction — noise
next to tens of thousands of dynamic executions), while the decode pass
itself is memoized on the :class:`Program` instance, so suite sweeps that
re-run a cached program pay for decoding once.

Correctness is pinned by golden equivalence against ``step()`` — see
``tests/test_sim_decoded.py`` and the ``trace-equivalence`` fuzz oracle.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..isa.instructions import Instruction
from ..isa.opcodes import MASK64, OpKind, SIGN_BIT
from ..isa.program import Program
from .machine import ArchState
from .memory import Memory
from .trace import TraceRecord

#: ``handler(seq) -> TraceRecord``; also advances ``state.pc``.
TraceHandler = Callable[[int], TraceRecord]

#: Flat branch conditions on the *unsigned* 64-bit test value.  Equivalent to
#: ``cond_fn(to_signed(v))`` for every ``v`` in ``[0, 2**64)`` — the sign bit
#: is just an unsigned comparison against ``SIGN_BIT``.
_FLAT_CONDS = {
    "beq": lambda v: v == 0,
    "bne": lambda v: v != 0,
    "blt": lambda v: v >= SIGN_BIT,
    "ble": lambda v: v == 0 or v >= SIGN_BIT,
    "bgt": lambda v: 0 < v < SIGN_BIT,
    "bge": lambda v: v < SIGN_BIT,
    "fbeq": lambda v: v == 0,
    "fbne": lambda v: v != 0,
}


def _bank(state: ArchState, reg) -> List[int]:
    return state.fp_regs if reg.is_fp else state.int_regs


def _decode_one(inst: Instruction) -> Callable:
    """Compile one static instruction into its handler builder.

    The builder takes ``(state, memory)`` and returns the specialized
    handler closure for this pc.
    """
    op = inst.op
    kind = op.kind
    pc = inst.pc
    fall = pc + 1
    inst_ref = inst  # closure cell shared by every dynamic execution
    new = tuple.__new__  # builds a TraceRecord without the keyword layer
    TR = TraceRecord
    dst = inst.writes  # None: no architectural write (incl. zero-reg dest)

    # ------------------------------------------------------------------
    if kind is OpKind.ALU:
        fn = op.alu_fn
        s1, s2 = inst.src1, inst.src2
        if s1 is not None and s2 is not None:
            i1, i2 = s1.index, s2.index
            if dst is not None:
                di = dst.index

                def build_trace(state, memory, _s1=s1, _s2=s2, _dst=dst):
                    b1, b2, bd = _bank(state, _s1), _bank(state, _s2), _bank(state, _dst)

                    def run(seq):
                        a = b1[i1]
                        b = b2[i2]
                        result = fn(a, b)
                        old = bd[di]
                        bd[di] = result & MASK64
                        state.pc = fall
                        return new(TR, (seq, pc, inst_ref, fall, result, old, (a, b), None, None, None))

                    return run

            else:  # result computed, architecturally dropped (zero-reg dest)

                def build_trace(state, memory, _s1=s1, _s2=s2):
                    b1, b2 = _bank(state, _s1), _bank(state, _s2)

                    def run(seq):
                        a = b1[i1]
                        b = b2[i2]
                        result = fn(a, b)
                        state.pc = fall
                        return new(TR, (seq, pc, inst_ref, fall, result, 0, (a, b), None, None, None))

                    return run

        elif s1 is not None:  # register + immediate (or 1-operand mov)
            i1 = s1.index
            imm = inst.imm if inst.imm is not None else 0
            if dst is not None:
                di = dst.index

                def build_trace(state, memory, _s1=s1, _dst=dst):
                    b1, bd = _bank(state, _s1), _bank(state, _dst)

                    def run(seq):
                        a = b1[i1]
                        result = fn(a, imm)
                        old = bd[di]
                        bd[di] = result & MASK64
                        state.pc = fall
                        return new(TR, (seq, pc, inst_ref, fall, result, old, (a,), None, None, None))

                    return run

            else:

                def build_trace(state, memory, _s1=s1):
                    b1 = _bank(state, _s1)

                    def run(seq):
                        a = b1[i1]
                        result = fn(a, imm)
                        state.pc = fall
                        return new(TR, (seq, pc, inst_ref, fall, result, 0, (a,), None, None, None))

                    return run

        else:  # immediate only (li/fli): the result is a decode-time constant
            imm = inst.imm if inst.imm is not None else 0
            const_result = fn(0, imm)  # unmasked, exactly like the reference
            const_masked = const_result & MASK64
            if dst is not None:
                di = dst.index

                def build_trace(state, memory, _dst=dst):
                    bd = _bank(state, _dst)

                    def run(seq):
                        old = bd[di]
                        bd[di] = const_masked
                        state.pc = fall
                        return new(TR, (seq, pc, inst_ref, fall, const_result, old, (), None, None, None))

                    return run

            else:

                def build_trace(state, memory):
                    def run(seq):
                        state.pc = fall
                        return new(TR, (seq, pc, inst_ref, fall, const_result, 0, (), None, None, None))

                    return run

    # ------------------------------------------------------------------
    elif kind is OpKind.LOAD:
        s1 = inst.src1
        i1 = s1.index
        off = inst.imm or 0
        if dst is not None:
            di = dst.index

            def build_trace(state, memory, _s1=s1, _dst=dst):
                b1, bd = _bank(state, _s1), _bank(state, _dst)
                load_wi = memory.load_word_index

                def run(seq):
                    base = b1[i1]
                    addr = (base + off) & MASK64
                    if addr & 7:
                        raise ValueError(f"unaligned access at address {addr:#x}")
                    result = load_wi(addr >> 3)
                    old = bd[di]
                    bd[di] = result
                    state.pc = fall
                    return new(TR, (seq, pc, inst_ref, fall, result, old, (base,), addr, None, None))

                return run

        else:  # load into a zero register: access happens, value dropped

            def build_trace(state, memory, _s1=s1):
                b1 = _bank(state, _s1)
                load_wi = memory.load_word_index

                def run(seq):
                    base = b1[i1]
                    addr = (base + off) & MASK64
                    if addr & 7:
                        raise ValueError(f"unaligned access at address {addr:#x}")
                    result = load_wi(addr >> 3)
                    state.pc = fall
                    return new(TR, (seq, pc, inst_ref, fall, result, 0, (base,), addr, None, None))

                return run

    # ------------------------------------------------------------------
    elif kind is OpKind.STORE:
        s1, s2 = inst.src1, inst.src2
        i1, i2 = s1.index, s2.index
        off = inst.imm or 0

        def build_trace(state, memory, _s1=s1, _s2=s2):
            b1, b2 = _bank(state, _s1), _bank(state, _s2)
            store_wi = memory.store_word_index

            def run(seq):
                base = b1[i1]
                value = b2[i2]
                addr = (base + off) & MASK64
                if addr & 7:
                    raise ValueError(f"unaligned access at address {addr:#x}")
                store_wi(addr >> 3, value)
                state.pc = fall
                return new(TR, (seq, pc, inst_ref, fall, None, None, (base, value), addr, value, None))

            return run

    # ------------------------------------------------------------------
    elif kind is OpKind.BRANCH:
        s1 = inst.src1
        i1 = s1.index
        target = inst.target_pc
        flat = _FLAT_CONDS.get(op.name)
        if flat is None:  # pragma: no cover - every shipped branch is mapped
            cond_fn = op.cond_fn
            flat = lambda v, _fn=cond_fn: _fn(v)  # noqa: E731

        def build_trace(state, memory, _s1=s1, _test=flat):
            b1 = _bank(state, _s1)

            def run(seq):
                v = b1[i1]
                if _test(v):
                    state.pc = target
                    return new(TR, (seq, pc, inst_ref, target, None, None, (v,), None, None, True))
                state.pc = fall
                return new(TR, (seq, pc, inst_ref, fall, None, None, (v,), None, None, False))

            return run

    # ------------------------------------------------------------------
    elif kind is OpKind.JUMP:
        target = inst.target_pc

        def build_trace(state, memory):
            def run(seq):
                state.pc = target
                return new(TR, (seq, pc, inst_ref, target, None, None, (), None, None, None))

            return run

    # ------------------------------------------------------------------
    elif kind is OpKind.CALL:
        target = inst.target_pc
        return_pc = pc + 1  # the result value, a decode-time constant
        if dst is not None:
            di = dst.index

            def build_trace(state, memory, _dst=dst):
                bd = _bank(state, _dst)

                def run(seq):
                    old = bd[di]
                    bd[di] = return_pc
                    state.pc = target
                    return new(TR, (seq, pc, inst_ref, target, return_pc, old, (), None, None, None))

                return run

        else:

            def build_trace(state, memory):
                def run(seq):
                    state.pc = target
                    return new(TR, (seq, pc, inst_ref, target, return_pc, 0, (), None, None, None))

                return run

    # ------------------------------------------------------------------
    elif kind is OpKind.INDIRECT:
        s1 = inst.src1
        i1 = s1.index

        def build_trace(state, memory, _s1=s1):
            b1 = _bank(state, _s1)

            def run(seq):
                t = b1[i1]
                state.pc = t
                return new(TR, (seq, pc, inst_ref, t, None, None, (t,), None, None, None))

            return run

    # ------------------------------------------------------------------
    elif kind is OpKind.HALT:

        def build_trace(state, memory):
            def run(seq):
                state.pc = pc
                return new(TR, (seq, pc, inst_ref, pc, None, None, (), None, None, None))

            return run

    # ------------------------------------------------------------------
    else:  # NOP: no effects

        def build_trace(state, memory):
            def run(seq):
                state.pc = fall
                return new(TR, (seq, pc, inst_ref, fall, None, None, (), None, None, None))

            return run

    return build_trace


class DecodedProgram:
    """The once-per-static-instruction decode of one :class:`Program`.

    Holds one handler builder per pc plus the pre-computed halt map.
    Obtain via :func:`decode`, which memoizes the instance on the program
    (programs are immutable).
    """

    __slots__ = ("program", "specs", "halt_flags")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.specs: Tuple[Callable, ...] = tuple(_decode_one(inst) for inst in program)
        self.halt_flags: Tuple[bool, ...] = tuple(
            inst.op.kind is OpKind.HALT for inst in program
        )

    def bind_trace(self, state: ArchState, memory: Memory) -> List[TraceHandler]:
        """Instantiate the handler table against live state."""
        return [build_trace(state, memory) for build_trace in self.specs]


def decode(program: Program) -> DecodedProgram:
    """Decode ``program`` once; repeated calls return the cached instance.

    The cache lives on the program object itself (programs are immutable and
    identity-cached by :class:`~repro.core.session.SimSession`), so a suite
    sweep that replays one program across many inputs and machine
    configurations decodes it exactly once.
    """
    cached: Optional[DecodedProgram] = getattr(program, "_decoded_cache", None)
    if cached is None:
        cached = DecodedProgram(program)
        program._decoded_cache = cached  # type: ignore[attr-defined]
    return cached
