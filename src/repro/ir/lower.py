"""Lowering: SSA IRModule -> flat :class:`~repro.isa.program.Program`.

The pipeline per function is

1. :func:`~repro.ir.nodes.verify_ssa`,
2. register allocation (:func:`~repro.ir.regalloc.allocate`: coalescing +
   the flat Chaitin–Briggs colourer + spilling),
3. SSA destruction: each CFG edge's phis become one *parallel copy*.
   Copies whose source and destination coalesced into one register vanish;
   the rest are placed at the end of the predecessor (sole successor), the
   start of the successor (sole predecessor), or on a freshly split block
   (critical edge).  Parallel semantics are serialised by emitting a copy
   only once its destination is no longer pending as a source; cycles are
   broken through the one reserved shuffle slot (``SpillSlots.shuffle``).
4. emission in layout order to flat :class:`~repro.isa.Instruction`s, with
   provenance: every emitted pc gets a :class:`~repro.isa.program.SourceLoc`
   (IR block, loop depth, originating flat pc) in ``Program.source_map``,
   and ``LoweringResult.pc_origin`` maps each new pc to its old one for the
   trace-equivalence oracle.

Phis stay in place and copies and split blocks exist only in the emission
plan, so a module can be lowered repeatedly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..isa.instructions import Instruction
from ..isa.opcodes import OpKind, opcode
from ..isa.program import Procedure, Program, SourceLoc
from ..isa.registers import ZERO, Reg
from .nodes import Block, IRError, IRFunction, IRModule, Value, verify_ssa
from .regalloc import AllocationResult, SpillSlots, allocate

#: One parallel-copy element: destination register, source register, kind.
Copy = Tuple[Reg, Reg, str]


@dataclass
class LoweringResult:
    program: Program
    module: IRModule
    allocations: Dict[str, AllocationResult]
    slots: SpillSlots
    #: emitted pc -> origin flat pc (None for copies/spills/builder code).
    pc_origin: Dict[int, Optional[int]] = field(default_factory=dict)


def _reg_of(value: Value, where: str) -> Reg:
    if value.assigned_reg is None:
        raise IRError(f"{where}: value {value!r} reached emission without a register")
    return value.assigned_reg


def _edge_copies(func: IRFunction, pred_label: str, succ: Block) -> List[Copy]:
    copies: List[Copy] = []
    for phi in succ.phis:
        arg = phi.args[pred_label]
        dst = _reg_of(phi.dst, f"{func.name}/{succ.label}")
        src = _reg_of(arg, f"{func.name}/{succ.label}")
        if dst != src:
            copies.append((dst, src, phi.dst.kind))
    return copies


_MEM = object()  # sentinel: source now lives in the shuffle slot


def sequence_copies(copies: List[Copy], slots: SpillSlots) -> List[Instruction]:
    """Serialise one parallel copy; cycles go through the shuffle slot."""
    pending: List[List[object]] = [[dst, src, kind] for dst, src, kind in copies]
    out: List[Instruction] = []
    while pending:
        blocked_srcs = {entry[1] for entry in pending}
        ready = [entry for entry in pending if entry[0] not in blocked_srcs]
        if ready:
            for dst, src, kind in ready:
                if src is _MEM:
                    op = "fld" if kind == "fp" else "ld"
                    out.append(Instruction(op=opcode(op), dst=dst, src1=ZERO, imm=slots.shuffle))
                else:
                    op = "fmov" if kind == "fp" else "mov"
                    out.append(Instruction(op=opcode(op), dst=dst, src1=src))
            pending = [entry for entry in pending if entry not in ready]
            continue
        # Every pending copy's destination is still needed as a source: a
        # cycle.  Park one source in memory, freeing its register.
        dst, src, kind = pending[0]
        op = "fst" if kind == "fp" else "st"
        out.append(Instruction(op=opcode(op), src2=src, src1=ZERO, imm=slots.shuffle))
        for entry in pending:
            if entry[1] == src:
                entry[1] = _MEM
    return out


@dataclass
class _EmitBlock:
    """One element of a function's final layout."""

    label: str
    depth: int
    start_copies: List[Instruction] = field(default_factory=list)
    block: Optional[Block] = None
    end_copies: List[Instruction] = field(default_factory=list)
    #: Explicit trailing ``br`` for split blocks.
    final_jump: Optional[str] = None


def _plan_function(
    func: IRFunction, slots: SpillSlots
) -> Tuple[List[_EmitBlock], Dict[Tuple[str, str], str]]:
    """Place every edge's copies; returns (layout, branch retarget map)."""
    preds = func.predecessors()
    depth = {b.label: func.loop_depth(b.label) for b in func.blocks}
    at_start: Dict[str, List[Instruction]] = {}
    at_end: Dict[str, List[Instruction]] = {}
    splits_after: Dict[str, List[_EmitBlock]] = {}
    splits_tail: List[_EmitBlock] = []
    retarget: Dict[Tuple[str, str], str] = {}

    n_split = 0
    for block in func.blocks:
        succs = list(dict.fromkeys(func.successors(block)))
        for succ_label in succs:
            succ = func.block(succ_label)
            copies = _edge_copies(func, block.label, succ)
            if not copies:
                continue
            seq = sequence_copies(copies, slots)
            term = block.terminator
            conditional = term is not None and term.op.kind is OpKind.BRANCH
            if len(succs) == 1 and not conditional:
                # Sole successor: the terminator (if any) is an operandless
                # ``br``, so copies slide in just before it.  A conditional
                # terminator is excluded — a copy there could clobber its
                # condition register, which is dead in the liveness model by
                # the time the edge's copies run.
                at_end.setdefault(block.label, []).extend(seq)
            elif len(set(preds[succ_label])) == 1:
                at_start.setdefault(succ_label, []).extend(seq)
            else:
                # Critical edge: split.  A fallthrough edge keeps layout
                # adjacency (split goes right after the predecessor); a
                # branch-target edge appends at the end and the branch is
                # retargeted at emission time.  A branch whose target IS its
                # fallthrough needs both: the split sits in layout after the
                # block and the branch is retargeted onto it.
                split = _EmitBlock(
                    label=f"{func.name}__split{n_split}",
                    depth=depth[block.label],
                    start_copies=seq,
                    final_jump=succ_label,
                )
                n_split += 1
                if conditional and term.target == succ_label:
                    retarget[(block.label, succ_label)] = split.label
                    if len(succs) == 1:  # target == fallthrough
                        splits_after.setdefault(block.label, []).append(split)
                    else:
                        splits_tail.append(split)
                else:
                    splits_after.setdefault(block.label, []).append(split)

    layout: List[_EmitBlock] = []
    for block in func.blocks:
        layout.append(
            _EmitBlock(
                label=block.label,
                depth=depth[block.label],
                start_copies=at_start.get(block.label, []),
                block=block,
                end_copies=at_end.get(block.label, []),
            )
        )
        layout.extend(splits_after.get(block.label, []))
    if splits_tail:
        last = func.blocks[-1].terminator
        if last is None or last.op.kind not in (OpKind.JUMP, OpKind.INDIRECT, OpKind.HALT):
            raise IRError(f"{func.name}: last block may fall through past split blocks")
        layout.extend(splits_tail)
    return layout, retarget


def _emit_instr(instr, retarget: Dict[Tuple[str, str], str], label: str, where: str) -> Instruction:
    def m(op) -> Optional[Reg]:
        if op is None:
            return None
        if isinstance(op, Reg):
            return op
        if isinstance(op, Value):
            return _reg_of(op, where)
        raise IRError(f"{where}: pre-SSA operand {op!r} survived to emission")

    target = instr.target
    if instr.op.kind in (OpKind.BRANCH, OpKind.JUMP):
        target = retarget.get((label, target), target)
    return Instruction(
        op=instr.op,
        dst=m(instr.dst),
        src1=m(instr.src1),
        src2=m(instr.src2),
        imm=instr.imm,
        target=target,
    )


def lower_module(module: IRModule, *, slots: Optional[SpillSlots] = None) -> LoweringResult:
    """Allocate registers for every function and emit a flat program."""
    slots = slots or SpillSlots()
    allocations: Dict[str, AllocationResult] = {}
    for func in module.functions:
        verify_ssa(func)
        result = allocate(func, slots)
        if not result.ok:
            raise IRError(result.failure)
        allocations[func.name] = result

    instructions: List[Instruction] = []
    labels: Dict[str, int] = {}
    procedures: List[Procedure] = []
    source_map: Dict[int, SourceLoc] = {}
    pc_origin: Dict[int, Optional[int]] = {}

    def put(inst: Instruction, loc: SourceLoc) -> None:
        pc = len(instructions)
        instructions.append(inst)
        source_map[pc] = loc
        pc_origin[pc] = loc.origin_pc

    for func in module.functions:
        start = len(instructions)
        layout, retarget = _plan_function(func, slots)
        for emit in layout:
            if emit.label in labels:
                raise IRError(f"duplicate block label {emit.label!r} across functions")
            labels[emit.label] = len(instructions)
            loc = SourceLoc(block=emit.label, loop_depth=emit.depth)
            for inst in emit.start_copies:
                put(inst, loc)
            body = list(emit.block.instrs) if emit.block is not None else []
            trailing = None
            if body and body[-1].is_terminator:
                trailing = body.pop()
            for instr in body:
                put(
                    _emit_instr(instr, retarget, emit.label, f"{func.name}/{emit.label}"),
                    SourceLoc(block=emit.label, loop_depth=emit.depth, origin_pc=instr.origin_pc),
                )
            for inst in emit.end_copies:
                put(inst, loc)
            if trailing is not None:
                put(
                    _emit_instr(trailing, retarget, emit.label, f"{func.name}/{emit.label}"),
                    SourceLoc(block=emit.label, loop_depth=emit.depth, origin_pc=trailing.origin_pc),
                )
            if emit.final_jump is not None:
                put(Instruction(op=opcode("br"), target=emit.final_jump), loc)
        if func.name not in labels:
            labels[func.name] = start
        elif labels[func.name] != start:
            raise IRError(f"label {func.name!r} does not mark its function's entry")
        procedures.append(Procedure(func.name, start, len(instructions)))

    program = Program(
        instructions,
        labels,
        name=module.name,
        procedures=procedures,
        source_map=source_map,
    )
    return LoweringResult(
        program=program,
        module=module,
        allocations=allocations,
        slots=slots,
        pc_origin=pc_origin,
    )
