"""Programs, basic blocks, control-flow graphs and natural loops.

A :class:`Program` is an immutable sequence of :class:`Instruction` objects
with word addressing (instruction *i* lives at ``pc == i``), a label map, and
a set of procedures.  Procedures partition the instruction range; the
compiler's liveness / interference / reallocation passes all operate one
procedure at a time, exactly as the paper's Section 7.3 does.

The CFG is built per procedure.  ``jsr`` is treated as a fall-through edge
within the caller (the callee is analysed separately); ``ret``/``jmp``/``halt``
terminate a block with no intra-procedure successors.  Natural loops are
discovered via dominator analysis (back edge ``u -> v`` where ``v`` dominates
``u``); the loop machinery feeds the last-value-reuse reallocation, which must
know each instruction's innermost loop and its nesting depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx

from .instructions import Instruction
from .opcodes import OpKind


@dataclass(frozen=True)
class Procedure:
    """A contiguous instruction range ``[start, end)`` with an entry label."""

    name: str
    start: int
    end: int

    def __contains__(self, pc: int) -> bool:
        return self.start <= pc < self.end


@dataclass(frozen=True)
class BasicBlock:
    """Maximal straight-line instruction range ``[start, end)``."""

    index: int
    start: int
    end: int
    successors: Tuple[int, ...] = ()  # successor block *start* pcs

    @property
    def last(self) -> int:
        return self.end - 1

    def pcs(self) -> range:
        return range(self.start, self.end)


@dataclass(frozen=True)
class Loop:
    """A natural loop: header block pc, member pcs, and nesting depth (1 = outermost)."""

    header: int
    body: frozenset
    depth: int

    def __contains__(self, pc: int) -> bool:
        return pc in self.body


class Program:
    """An immutable assembled program.

    Construct via :meth:`Program.assemble` (from already-built instructions +
    label map), the text assembler (:mod:`repro.isa.assembler`) or the
    programmatic builder (:mod:`repro.isa.builder`).
    """

    def __init__(
        self,
        instructions: Sequence[Instruction],
        labels: Dict[str, int],
        name: str = "program",
        procedures: Optional[Sequence[Procedure]] = None,
    ) -> None:
        self.name = name
        self.labels: Dict[str, int] = dict(labels)
        resolved: List[Instruction] = []
        for index, inst in enumerate(instructions):
            target_pc = None
            if inst.target is not None:
                if inst.target not in self.labels:
                    raise ValueError(f"undefined label {inst.target!r} at pc {index}")
                target_pc = self.labels[inst.target]
            resolved.append(
                Instruction(
                    op=inst.op,
                    dst=inst.dst,
                    src1=inst.src1,
                    src2=inst.src2,
                    imm=inst.imm,
                    target=inst.target,
                    pc=index,
                    target_pc=target_pc,
                )
            )
        self.instructions: Tuple[Instruction, ...] = tuple(resolved)
        if procedures:
            self.procedures: Tuple[Procedure, ...] = tuple(procedures)
        else:
            self.procedures = (Procedure("main", 0, len(self.instructions)),)
        self._validate()
        self._block_cache: Dict[str, List[BasicBlock]] = {}
        self._loop_cache: Dict[str, List[Loop]] = {}

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, pc: int) -> Instruction:
        return self.instructions[pc]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def entry(self) -> int:
        return self.procedures[0].start

    def procedure_of(self, pc: int) -> Procedure:
        for proc in self.procedures:
            if pc in proc:
                return proc
        raise ValueError(f"pc {pc} outside all procedures")

    def procedure(self, name: str) -> Procedure:
        for proc in self.procedures:
            if proc.name == name:
                return proc
        raise KeyError(name)

    def _validate(self) -> None:
        n = len(self.instructions)
        covered = [False] * n
        for proc in self.procedures:
            if not (0 <= proc.start < proc.end <= n):
                raise ValueError(f"procedure {proc.name} range [{proc.start},{proc.end}) out of bounds")
            for pc in range(proc.start, proc.end):
                if covered[pc]:
                    raise ValueError(f"pc {pc} covered by two procedures")
                covered[pc] = True
        if n and not all(covered):
            missing = covered.index(False)
            raise ValueError(f"pc {missing} not covered by any procedure")
        for inst in self.instructions:
            if inst.target is not None and inst.target_pc is None:
                raise ValueError(f"unresolved target at pc {inst.pc}")

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def rewrite(self, fn: Callable[[Instruction], Instruction], name: Optional[str] = None) -> "Program":
        """Return a new program with ``fn`` applied to every instruction.

        ``fn`` must preserve instruction count and control structure (it may
        change opcodes between twins and remap registers, which is all the
        compiler passes ever do).
        """
        new_insts = [fn(inst) for inst in self.instructions]
        return Program(new_insts, self.labels, name or self.name, self.procedures)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Round-trippable assembler text."""
        by_pc: Dict[int, List[str]] = {}
        for label, pc in sorted(self.labels.items(), key=lambda kv: kv[1]):
            by_pc.setdefault(pc, []).append(label)
        lines: List[str] = []
        proc_starts = {p.start: p.name for p in self.procedures}
        for inst in self.instructions:
            if inst.pc in proc_starts:
                lines.append(f".proc {proc_starts[inst.pc]}")
            for label in by_pc.get(inst.pc, []):
                lines.append(f"{label}:")
            lines.append(f"    {inst.render()}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # CFG / loops
    # ------------------------------------------------------------------
    def basic_blocks(self, proc: Procedure) -> List[BasicBlock]:
        """Basic blocks of one procedure, with intra-procedure successor edges."""
        if proc.name in self._block_cache:
            return self._block_cache[proc.name]
        leaders = {proc.start}
        for pc in range(proc.start, proc.end):
            inst = self.instructions[pc]
            if inst.is_control or inst.is_halt:
                if pc + 1 < proc.end:
                    leaders.add(pc + 1)
                if inst.target_pc is not None and inst.target_pc in proc and inst.op.kind is not OpKind.CALL:
                    leaders.add(inst.target_pc)
        starts = sorted(leaders)
        blocks: List[BasicBlock] = []
        for i, start in enumerate(starts):
            end = starts[i + 1] if i + 1 < len(starts) else proc.end
            last = self.instructions[end - 1]
            succs: List[int] = []
            if last.op.kind is OpKind.BRANCH:
                if last.target_pc is not None and last.target_pc in proc:
                    succs.append(last.target_pc)
                if end < proc.end:
                    succs.append(end)
            elif last.op.kind is OpKind.JUMP:
                if last.target_pc is not None and last.target_pc in proc:
                    succs.append(last.target_pc)
            elif last.op.kind in (OpKind.INDIRECT, OpKind.HALT):
                pass  # procedure exit
            else:  # fall through (includes CALL: callee analysed separately)
                if end < proc.end:
                    succs.append(end)
            blocks.append(BasicBlock(i, start, end, tuple(dict.fromkeys(succs))))
        self._block_cache[proc.name] = blocks
        return blocks

    def cfg(self, proc: Procedure) -> "nx.DiGraph":
        """Directed graph over block-start pcs for one procedure."""
        graph = nx.DiGraph()
        for block in self.basic_blocks(proc):
            graph.add_node(block.start, block=block)
            for succ in block.successors:
                graph.add_edge(block.start, succ)
        return graph

    def loops(self, proc: Procedure) -> List[Loop]:
        """Natural loops of one procedure, innermost-last, with nesting depths."""
        if proc.name in self._loop_cache:
            return self._loop_cache[proc.name]
        blocks = {b.start: b for b in self.basic_blocks(proc)}
        loops = [
            Loop(header, frozenset(pc for b in body for pc in blocks[b].pcs()), depth)
            for header, body, depth in natural_loops(self.cfg(proc), proc.start)
        ]
        self._loop_cache[proc.name] = loops
        return loops

    def innermost_loop(self, pc: int) -> Optional[Loop]:
        """The deepest loop containing ``pc``, or ``None`` if not in a loop."""
        proc = self.procedure_of(pc)
        best: Optional[Loop] = None
        for loop in self.loops(proc):
            if pc in loop and (best is None or loop.depth > best.depth):
                best = loop
        return best

    def loop_depth(self, pc: int) -> int:
        loop = self.innermost_loop(pc)
        return loop.depth if loop else 0


def natural_loops(graph: "nx.DiGraph", entry: Hashable) -> List[Tuple[Hashable, Set, int]]:
    """Natural loops of a CFG as ``(header, body nodes, depth)``, innermost-last.

    The loop finder behind :meth:`Program.loops`.  A back edge ``u -> v`` is
    one whose target dominates its source; loops sharing a header merge, and
    a loop's depth is 1 plus the number of loops whose bodies strictly
    contain it.
    """
    if entry not in graph:
        return []
    dominates = _dominates_fn(nx.immediate_dominators(graph, entry))
    raw: Dict[Hashable, Set] = {}
    for u, v in graph.edges():
        if dominates(v, u):  # back edge u -> v
            raw.setdefault(v, set()).update(_natural_loop(graph, v, u))
    items = list(raw.items())
    loops = [
        (header, body, 1 + sum(1 for other, other_body in items if other != header and body < other_body))
        for header, body in items
    ]
    loops.sort(key=lambda loop: loop[2])
    return loops


def _dominates_fn(idom: Dict[Hashable, Hashable]) -> Callable[[Hashable, Hashable], bool]:
    def dominates(a: Hashable, b: Hashable) -> bool:
        """True if block a dominates block b."""
        node = b
        while True:
            if node == a:
                return True
            parent = idom.get(node)
            if parent is None or parent == node:
                return node == a
            node = parent

    return dominates


def _natural_loop(graph: "nx.DiGraph", header: Hashable, tail: Hashable) -> Set:
    """Blocks of the natural loop for back edge ``tail -> header``."""
    body = {header, tail}
    stack = [] if tail == header else [tail]
    while stack:
        node = stack.pop()
        if node == header:
            continue
        for pred in graph.predecessors(node):
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body
