"""Generic CFG dataflow engine (fixpoint solver over basic blocks).

One engine, many analyses: an analysis is a :class:`DataflowProblem` with a
direction (forward/backward) and per-instruction ``gen``/``kill`` sets over
an arbitrary hashable fact domain.  Every analysis here is a *may* analysis,
so paths meet by union.  :func:`solve` runs a worklist fixpoint at block
granularity over :meth:`Program.basic_blocks`, then lowers the solution to
instruction grain in a single pass per block.

Concrete instances in this repo:

* liveness (:mod:`repro.compiler.liveness`) — backward,
  gen = uses, kill = defs;
* reaching definitions (:mod:`repro.analysis.facts`) — forward,
  gen = defs at pc, kill = other defs of the same registers.

The transfer function is the standard gen/kill form:
``out = gen ∪ (in − kill)`` (forward) or ``in = gen ∪ (out − kill)``
(backward), composed per block for the fixpoint and replayed per instruction
for the final facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

from ..isa.program import BasicBlock, Procedure, Program

FORWARD = "forward"
BACKWARD = "backward"

Fact = Hashable


class DataflowProblem:
    """Base class for gen/kill dataflow problems.

    Subclasses set :attr:`direction` and implement :meth:`gen` and
    :meth:`kill`.  ``boundary()`` provides the facts flowing in at the
    procedure entry (forward) or at every procedure exit (backward).
    """

    direction: str = FORWARD

    def gen(self, pc: int) -> Set[Fact]:
        raise NotImplementedError

    def kill(self, pc: int) -> Set[Fact]:
        raise NotImplementedError

    def boundary(self) -> Set[Fact]:
        return set()


@dataclass
class DataflowResult:
    """Instruction-grain solution of one problem over one procedure."""

    proc: Procedure
    in_facts: Dict[int, FrozenSet[Fact]]
    out_facts: Dict[int, FrozenSet[Fact]]
    block_in: Dict[int, FrozenSet[Fact]]
    block_out: Dict[int, FrozenSet[Fact]]


def _block_gen_kill(
    problem: DataflowProblem, block: BasicBlock
) -> Tuple[Set[Fact], Set[Fact]]:
    """Compose per-instruction transfers into one block-level gen/kill."""
    pcs = block.pcs() if problem.direction == FORWARD else reversed(list(block.pcs()))
    gen: Set[Fact] = set()
    kill: Set[Fact] = set()
    for pc in pcs:
        g, k = problem.gen(pc), problem.kill(pc)
        gen = g | (gen - k)
        kill = (kill | k) - g
    return gen, kill


def solve(program: Program, proc: Procedure, problem: DataflowProblem) -> DataflowResult:
    """Run the worklist fixpoint over basic blocks and lower to instruction grain.

    Blocks are keyed by their start pc.  Boundary blocks (the entry block
    forward, the exit blocks backward) receive ``problem.boundary()`` on
    every meet; a boundary block with incoming edges — e.g. a loop back-edge
    into the entry — unions them in.
    """
    blocks = program.basic_blocks(proc)
    forward = problem.direction == FORWARD
    order = [b.start for b in blocks]

    gen: Dict[int, Set[Fact]] = {}
    kill: Dict[int, Set[Fact]] = {}
    for block in blocks:
        gen[block.start], kill[block.start] = _block_gen_kill(problem, block)

    # ``sources[n]`` are the blocks whose solution meets into ``n``:
    # predecessors for a forward problem, successors for a backward one.
    sources: Dict[int, List[int]] = {n: [] for n in order}
    for block in blocks:
        for succ in block.successors:
            if forward:
                sources[succ].append(block.start)
            else:
                sources[block.start].append(succ)
    if forward:
        boundary_nodes = {proc.start} & set(order)
    else:
        boundary_nodes = {b.start for b in blocks if not b.successors}

    boundary = set(problem.boundary())

    # meet-input and transfer-output per block, in solver orientation (the
    # input is the block entry forward, the block exit backward).
    state_in: Dict[int, Set[Fact]] = {}
    state_out: Dict[int, Set[Fact]] = {}
    for n in order:
        state_in[n] = set(boundary) if n in boundary_nodes else set()
        state_out[n] = gen[n] | (state_in[n] - kill[n])

    sweep = order if forward else order[::-1]
    changed = True
    while changed:
        changed = False
        for n in sweep:
            # A boundary block also unions in its sources (e.g. loop
            # back-edges into the entry block); a block with no sources
            # (unreachable forward, exitless loop backward) meets to empty.
            merged = set(boundary) if n in boundary_nodes else set()
            for p in sources[n]:
                merged |= state_out[p]
            new_out = gen[n] | (merged - kill[n])
            if merged != state_in[n] or new_out != state_out[n]:
                state_in[n] = merged
                state_out[n] = new_out
                changed = True

    # Lower to instruction grain by replaying per-instruction transfers.
    in_facts: Dict[int, FrozenSet[Fact]] = {}
    out_facts: Dict[int, FrozenSet[Fact]] = {}
    block_in: Dict[int, FrozenSet[Fact]] = {}
    block_out: Dict[int, FrozenSet[Fact]] = {}
    for block in blocks:
        entry_state = state_in[block.start]
        if forward:
            block_in[block.start] = frozenset(entry_state)
            live = set(entry_state)
            for pc in block.pcs():
                in_facts[pc] = frozenset(live)
                live = problem.gen(pc) | (live - problem.kill(pc))
                out_facts[pc] = frozenset(live)
            block_out[block.start] = frozenset(live)
        else:
            block_out[block.start] = frozenset(entry_state)
            live = set(entry_state)
            for pc in reversed(list(block.pcs())):
                out_facts[pc] = frozenset(live)
                live = problem.gen(pc) | (live - problem.kill(pc))
                in_facts[pc] = frozenset(live)
            block_in[block.start] = frozenset(live)
    return DataflowResult(
        proc=proc, in_facts=in_facts, out_facts=out_facts, block_in=block_in, block_out=block_out
    )
