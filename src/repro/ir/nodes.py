"""The SSA IR data model: virtual registers, values, phis, blocks, functions.

The IR represents a procedure as an :class:`IRFunction` — an ordered list
of :class:`Block` objects whose instructions mirror the flat ISA's operand
conventions one-for-one (same opcode table, same ``dst/src1/src2/imm``
shapes), so raising is a structural transliteration.

Two operand domains exist over the same instruction shape:

* **pre-SSA** — operands are :class:`VReg` storage locations (the
  architectural registers of the raised
  :class:`~repro.isa.program.Program`).  This is what the raiser produces.
* **SSA** — after :func:`repro.ir.ssa.to_ssa`, operands are :class:`Value`
  objects: one definition each, merged at join points by :class:`Phi` nodes.

Control flow follows the flat ISA's layout semantics: a block falls through
to the next block in ``IRFunction.blocks`` unless its last instruction is an
unconditional transfer; conditional branches have an explicit ``target``
label plus the fallthrough edge.  ``jsr`` targets name *functions* (callees
are separate IRFunctions), not blocks.

A value's ``pin`` is the register the calling convention requires it to
occupy (values arriving at entry, call arguments/clobbers, exit live-outs),
the SSA analogue of the flat web builder's *fixed webs*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

import networkx as nx

from ..isa.opcodes import OpKind, Opcode, opcode
from ..isa.program import natural_loops
from ..isa.registers import Reg


class IRError(Exception):
    """Malformed IR: validation or SSA construction failure."""


@dataclass(frozen=True)
class VReg:
    """A pre-SSA storage location: one architectural register."""

    name: str
    kind: str  # repro.isa.registers.INT or FP
    reg: Reg

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"%{self.name}"


class Value:
    """One SSA value: a single definition, any number of uses."""

    __slots__ = ("vid", "kind", "vreg", "pin")

    def __init__(self, vid: int, kind: str, vreg: Optional[VReg] = None, pin: Optional[Reg] = None) -> None:
        self.vid = vid
        self.kind = kind
        self.vreg = vreg
        #: Hard calling-convention register requirement (fixed-web analogue).
        self.pin = pin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        base = self.vreg.name if self.vreg is not None else self.kind
        return f"%{base}.{self.vid}"


#: An instruction operand: a VReg (pre-SSA), a Value (SSA), or a literal
#: zero register (reads of r31/f31 pass through untouched).
Operand = Union[VReg, Value, Reg]


def operand_is_zero(op: Optional[Operand]) -> bool:
    return isinstance(op, Reg) and op.is_zero


class IRInstr:
    """One IR instruction, shaped exactly like a flat :class:`Instruction`.

    ``target`` is a block label for branches/jumps and a *function* name for
    ``jsr``.  ``origin_pc`` is the flat pc this instruction was raised from.
    ``implicit_defs``/``implicit_uses`` are filled during SSA renaming with
    the calling-convention values a call/exit defines and consumes.
    """

    __slots__ = (
        "op",
        "dst",
        "src1",
        "src2",
        "imm",
        "target",
        "origin_pc",
        "implicit_defs",
        "implicit_uses",
    )

    def __init__(
        self,
        op: str,
        dst: Optional[Operand] = None,
        src1: Optional[Operand] = None,
        src2: Optional[Operand] = None,
        imm: Optional[int] = None,
        target: Optional[str] = None,
        origin_pc: Optional[int] = None,
    ) -> None:
        self.op: Opcode = opcode(op)
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.imm = imm
        self.target = target
        self.origin_pc = origin_pc
        self.implicit_defs: Tuple[Value, ...] = ()
        self.implicit_uses: Tuple[Value, ...] = ()

    # ------------------------------------------------------------------
    # Structural queries (operand-domain agnostic)
    # ------------------------------------------------------------------
    @property
    def defined(self) -> Optional[Operand]:
        """The operand written, or None (zero-register writes are no-ops)."""
        if self.op.writes_dest and self.dst is not None and not operand_is_zero(self.dst):
            return self.dst
        return None

    @property
    def used(self) -> Tuple[Operand, ...]:
        """Operands read, zero-register literals excluded."""
        out = []
        for op in (self.src1, self.src2):
            if op is not None and not operand_is_zero(op):
                out.append(op)
        return tuple(out)

    @property
    def is_terminator(self) -> bool:
        kind = self.op.kind
        return kind in (OpKind.BRANCH, OpKind.JUMP, OpKind.INDIRECT, OpKind.HALT)

    @property
    def is_call(self) -> bool:
        return self.op.kind is OpKind.CALL

    @property
    def is_exit(self) -> bool:
        """Procedure exit: ``ret``/``jmp``/``halt`` (convention uses apply)."""
        return self.op.kind in (OpKind.INDIRECT, OpKind.HALT)

    def render(self) -> str:
        name = self.op.name
        kind = self.op.kind

        def s(op: Optional[Operand]) -> str:
            return repr(op) if op is not None else "_"

        if kind is OpKind.ALU:
            if name in ("li", "fli"):
                return f"{name} {s(self.dst)}, #{self.imm}"
            if self.src2 is not None:
                return f"{name} {s(self.dst)}, {s(self.src1)}, {s(self.src2)}"
            if self.imm is not None:
                return f"{name} {s(self.dst)}, {s(self.src1)}, #{self.imm}"
            return f"{name} {s(self.dst)}, {s(self.src1)}"
        if kind is OpKind.LOAD:
            return f"{name} {s(self.dst)}, {self.imm or 0}({s(self.src1)})"
        if kind is OpKind.STORE:
            return f"{name} {s(self.src2)}, {self.imm or 0}({s(self.src1)})"
        if kind is OpKind.BRANCH:
            return f"{name} {s(self.src1)}, {self.target}"
        if kind is OpKind.JUMP:
            return f"{name} {self.target}"
        if kind is OpKind.CALL:
            return f"{name} {s(self.dst)}, {self.target}"
        if kind is OpKind.INDIRECT:
            return f"{name} {s(self.src1)}"
        return name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.render()}>"


class Phi:
    """An SSA phi: ``dst`` takes ``args[pred_label]`` when entered from that pred."""

    __slots__ = ("dst", "args")

    def __init__(self, dst: Value, args: Optional[Dict[str, Value]] = None) -> None:
        self.dst = dst
        self.args: Dict[str, Value] = dict(args) if args else {}

    def render(self) -> str:
        parts = ", ".join(f"[{label}: {value!r}]" for label, value in sorted(self.args.items()))
        return f"phi {self.dst!r} <- {parts}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.render()}>"


class Block:
    """A basic block: phis, then straight-line instructions."""

    __slots__ = ("label", "phis", "instrs")

    def __init__(self, label: str, instrs: Optional[List[IRInstr]] = None) -> None:
        self.label = label
        self.phis: List[Phi] = []
        self.instrs: List[IRInstr] = list(instrs) if instrs else []

    @property
    def terminator(self) -> Optional[IRInstr]:
        if self.instrs and self.instrs[-1].is_terminator:
            return self.instrs[-1]
        return None


class IRFunction:
    """One procedure in SSA (or pre-SSA) form.

    ``blocks`` is the layout order: a block with no unconditional terminator
    falls through to the next block in the list.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks: List[Block] = []
        self._next_vid = 0
        #: Values that "arrive" at function entry (filled by SSA renaming):
        #: the calling convention's entry pseudo-defs, pinned to their
        #: architectural registers.
        self.entry_values: List[Value] = []

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_block(self, label: str) -> Block:
        if any(b.label == label for b in self.blocks):
            raise IRError(f"{self.name}: duplicate block label {label!r}")
        block = Block(label)
        self.blocks.append(block)
        return block

    def new_value(self, kind: str, vreg: Optional[VReg] = None, pin: Optional[Reg] = None) -> Value:
        value = Value(self._next_vid, kind, vreg=vreg, pin=pin)
        self._next_vid += 1
        return value

    # ------------------------------------------------------------------
    # CFG structure
    # ------------------------------------------------------------------
    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError(f"{self.name}: function has no blocks")
        return self.blocks[0]

    def block(self, label: str) -> Block:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(f"{self.name}: no block {label!r}")

    def successors(self, block: Block) -> Tuple[str, ...]:
        """Successor labels, flat-ISA layout semantics (see class docstring)."""
        index = self.blocks.index(block)
        term = block.terminator
        next_label = self.blocks[index + 1].label if index + 1 < len(self.blocks) else None
        if term is None:
            return (next_label,) if next_label is not None else ()
        kind = term.op.kind
        if kind is OpKind.BRANCH:
            succs = []
            if term.target is not None:
                succs.append(term.target)
            if next_label is not None:
                succs.append(next_label)
            return tuple(dict.fromkeys(succs))
        if kind is OpKind.JUMP:
            return (term.target,)
        return ()  # INDIRECT / HALT: procedure exit

    def predecessors(self) -> Dict[str, List[str]]:
        preds: Dict[str, List[str]] = {b.label: [] for b in self.blocks}
        for b in self.blocks:
            for succ in self.successors(b):
                preds[succ].append(b.label)
        return preds

    def cfg(self) -> "nx.DiGraph":
        graph = nx.DiGraph()
        for b in self.blocks:
            graph.add_node(b.label)
            for succ in self.successors(b):
                graph.add_edge(b.label, succ)
        return graph

    # ------------------------------------------------------------------
    # Dominance and loops
    # ------------------------------------------------------------------
    def idom(self) -> Dict[str, str]:
        graph = self.cfg()
        if self.entry.label not in graph:
            return {}
        result = dict(nx.immediate_dominators(graph, self.entry.label))
        # networkx releases disagree on whether the root maps to itself;
        # callers rely on the classical convention (it does).
        result.setdefault(self.entry.label, self.entry.label)
        return result

    def dominance_frontiers(self) -> Dict[str, Set[str]]:
        """Cooper–Harvey–Kennedy dominance frontiers over block labels."""
        idom = self.idom()
        preds = self.predecessors()
        frontiers: Dict[str, Set[str]] = {b.label: set() for b in self.blocks}
        for block in self.blocks:
            label = block.label
            if len(preds[label]) < 2 or label not in idom:
                continue
            for pred in preds[label]:
                runner = pred
                while runner != idom[label] and runner in idom:
                    frontiers[runner].add(label)
                    if runner == idom[runner]:
                        break
                    runner = idom[runner]
        return frontiers

    def loops(self) -> List[Tuple[str, Set[str], int]]:
        """Natural loops as ``(header_label, body_labels, depth)`` tuples."""
        return natural_loops(self.cfg(), self.entry.label)

    def loop_depth(self, label: str) -> int:
        depth = 0
        for _, body, d in self.loops():
            if label in body and d > depth:
                depth = d
        return depth

    def render(self) -> str:
        lines = [f"func {self.name}:"]
        for block in self.blocks:
            depth = self.loop_depth(block.label)
            suffix = f"  ; loop depth {depth}" if depth else ""
            lines.append(f"  {block.label}:{suffix}")
            for phi in block.phis:
                lines.append(f"      {phi.render()}")
            for instr in block.instrs:
                origin = f"  ; pc {instr.origin_pc}" if instr.origin_pc is not None else ""
                lines.append(f"      {instr.render()}{origin}")
        return "\n".join(lines)


class IRModule:
    """A whole program: functions in layout order (first = entry)."""

    def __init__(self, name: str = "ir_program") -> None:
        self.name = name
        self.functions: List[IRFunction] = []

    def add_function(self, name: str) -> IRFunction:
        if any(f.name == name for f in self.functions):
            raise IRError(f"duplicate function {name!r}")
        func = IRFunction(name)
        self.functions.append(func)
        return func

    def function(self, name: str) -> IRFunction:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function {name!r}")

    def render(self) -> str:
        return "\n\n".join(f.render() for f in self.functions) + "\n"


def verify_ssa(func: IRFunction) -> None:
    """Structural SSA check: single defs, phi shape, known branch targets.

    Dominance of uses by defs is implied by construction (the renamer walks
    the dominator tree); this check catches pass bugs that break the cheaper
    structural invariants.
    """
    labels = {b.label for b in func.blocks}
    preds = func.predecessors()
    defined: Set[int] = set()

    def define(value: Value, where: str) -> None:
        if not isinstance(value, Value):
            raise IRError(f"{func.name}/{where}: non-SSA operand {value!r} in def position")
        if value.vid in defined:
            raise IRError(f"{func.name}/{where}: value {value!r} defined twice")
        defined.add(value.vid)

    for block in func.blocks:
        for phi in block.phis:
            define(phi.dst, block.label)
            if set(phi.args) != set(preds[block.label]):
                raise IRError(
                    f"{func.name}/{block.label}: phi args {sorted(phi.args)} != preds {sorted(preds[block.label])}"
                )
        for pos, instr in enumerate(block.instrs):
            if instr.is_terminator and pos != len(block.instrs) - 1:
                raise IRError(f"{func.name}/{block.label}: terminator {instr!r} not at block end")
            if instr.op.kind in (OpKind.BRANCH, OpKind.JUMP) and instr.target not in labels:
                raise IRError(f"{func.name}/{block.label}: branch to unknown block {instr.target!r}")
            if isinstance(instr.defined, Value):
                define(instr.defined, block.label)
            for value in instr.implicit_defs:
                define(value, block.label)
            for op in instr.used:
                if isinstance(op, VReg):
                    raise IRError(f"{func.name}/{block.label}: pre-SSA operand {op!r} in SSA function")
