"""Generic CFG dataflow engine (fixpoint solver over basic blocks).

One engine, many analyses: an analysis is a :class:`DataflowProblem` with a
direction (forward/backward), a meet operator (union for *may* analyses,
intersection for *must* analyses), and per-instruction ``gen``/``kill`` sets
over an arbitrary hashable fact domain.  :func:`solve` runs a worklist
fixpoint at block granularity over :meth:`Program.basic_blocks`, then lowers
the solution to instruction grain in a single pass per block.

Concrete instances in this repo:

* liveness (:mod:`repro.compiler.liveness`) — backward, union,
  gen = uses, kill = defs;
* reaching definitions (:mod:`repro.analysis.facts`) — forward, union,
  gen = defs at pc, kill = other defs of the same registers;
* available copies (:mod:`repro.analysis.facts`) — forward, intersection,
  gen = the copy made by a ``mov``, kill = copies touching defined registers.

The transfer function is the standard gen/kill form:
``out = gen ∪ (in − kill)`` (forward) or ``in = gen ∪ (out − kill)``
(backward), composed per block for the fixpoint and replayed per instruction
for the final facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from ..isa.program import BasicBlock, Procedure, Program

FORWARD = "forward"
BACKWARD = "backward"
UNION = "union"
INTERSECT = "intersect"

Fact = Hashable
Node = Hashable


class DataflowProblem:
    """Base class for gen/kill dataflow problems.

    Subclasses set :attr:`direction` and :attr:`meet`, and implement
    :meth:`gen` and :meth:`kill`.  ``boundary()`` provides the facts flowing
    in at the procedure entry (forward) or at every procedure exit
    (backward); ``universe()`` is required for intersection problems (the
    optimistic initial value for unvisited blocks).
    """

    direction: str = FORWARD
    meet: str = UNION

    def gen(self, pc: int) -> Set[Fact]:
        raise NotImplementedError

    def kill(self, pc: int) -> Set[Fact]:
        raise NotImplementedError

    def boundary(self) -> Set[Fact]:
        return set()

    def universe(self) -> Set[Fact]:
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


@dataclass
class NodeSolution:
    """Fixpoint solution over abstract CFG nodes, in *solver orientation*.

    ``input`` is the meet input of each node (facts at node entry for a
    forward problem, at node exit for a backward one); ``output`` is the
    transfer output on the opposite side.
    """

    input: Dict[Node, Set[Fact]]
    output: Dict[Node, Set[Fact]]


def solve_nodes(
    order: Sequence[Node],
    successors: Callable[[Node], Sequence[Node]],
    gen: Dict[Node, Set[Fact]],
    kill: Dict[Node, Set[Fact]],
    *,
    direction: str = FORWARD,
    meet: str = UNION,
    boundary: Set[Fact] = frozenset(),
    universe: Set[Fact] = frozenset(),
    boundary_nodes: Set[Node] = frozenset(),
) -> NodeSolution:
    """The worklist fixpoint core, over arbitrary hashable CFG nodes.

    ``order`` lists every node in a good iteration order (roughly topological
    for forward problems; the solver reverses it for backward ones).
    ``boundary_nodes`` receive the ``boundary`` facts on every meet (the
    entry node forward, the exit nodes backward); a boundary node with
    incoming edges — e.g. a loop back-edge into the entry — unions them in.
    Both the flat-ISA :func:`solve` and SSA construction's block liveness
    (:mod:`repro.ir.ssa`) are clients of this core.
    """
    if direction == FORWARD:
        edges = {n: list(successors(n)) for n in order}
    else:
        edges = {n: [] for n in order}
        for n in order:
            for succ in successors(n):
                edges[succ].append(n)
    # ``sources[n]`` are the nodes whose solution meets into ``n``:
    # predecessors for a forward problem, successors for a backward one.
    sources: Dict[Node, List[Node]] = {n: [] for n in order}
    for start, outs in edges.items():
        for out in outs:
            sources[out].append(start)

    is_intersect = meet == INTERSECT
    boundary = set(boundary)
    universe = set(universe) if is_intersect else set()

    # meet-input and transfer-output per node, in solver orientation.
    state_in: Dict[Node, Set[Fact]] = {}
    state_out: Dict[Node, Set[Fact]] = {}
    for n in order:
        if n in boundary_nodes:
            state_in[n] = set(boundary)
        else:
            state_in[n] = set(universe) if is_intersect else set()
        state_out[n] = gen[n] | (state_in[n] - kill[n])

    sweep = list(order) if direction == FORWARD else list(reversed(list(order)))
    changed = True
    while changed:
        changed = False
        for n in sweep:
            preds = sources[n]
            if n in boundary_nodes:
                merged = set(boundary)
                for p in preds:
                    merged |= state_out[p]  # e.g. loop back-edges into the entry block
            elif preds:
                if is_intersect:
                    merged = set(state_out[preds[0]])
                    for p in preds[1:]:
                        merged &= state_out[p]
                else:
                    merged = set()
                    for p in preds:
                        merged |= state_out[p]
            else:
                # Unreachable (forward) or exitless-loop (backward) node.
                merged = set(universe) if is_intersect else set()
            new_out = gen[n] | (merged - kill[n])
            if merged != state_in[n] or new_out != state_out[n]:
                state_in[n] = merged
                state_out[n] = new_out
                changed = True
    return NodeSolution(input=state_in, output=state_out)


def solve(program: Program, proc: Procedure, problem: DataflowProblem) -> DataflowResult:
    """Run the fixpoint and lower to instruction grain."""
    blocks = program.basic_blocks(proc)

    gen: Dict[int, Set[Fact]] = {}
    kill: Dict[int, Set[Fact]] = {}
    for block in blocks:
        gen[block.start], kill[block.start] = _block_gen_kill(problem, block)

    by_start = {b.start: b for b in blocks}
    if problem.direction == FORWARD:
        boundary_nodes = {proc.start} & set(by_start)
    else:
        boundary_nodes = {b.start for b in blocks if not b.successors}
    solution = solve_nodes(
        [b.start for b in blocks],
        lambda start: by_start[start].successors,
        gen,
        kill,
        direction=problem.direction,
        meet=problem.meet,
        boundary=set(problem.boundary()),
        universe=set(problem.universe()),
        boundary_nodes=boundary_nodes,
    )
    state_in = solution.input

    # Lower to instruction grain by replaying per-instruction transfers.
    in_facts: Dict[int, FrozenSet[Fact]] = {}
    out_facts: Dict[int, FrozenSet[Fact]] = {}
    block_in: Dict[int, FrozenSet[Fact]] = {}
    block_out: Dict[int, FrozenSet[Fact]] = {}
    for block in blocks:
        entry_state = state_in[block.start]
        if problem.direction == FORWARD:
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
