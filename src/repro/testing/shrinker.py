"""Greedy failing-case minimisation by block and instruction deletion.

The shrinker never needs to understand *why* an oracle fails: it deletes
candidate instruction ranges, rebuilds a structurally valid program (labels
and procedure boundaries remapped to the next surviving instruction) and
keeps the deletion iff the caller's predicate still reports the failure.
Invalid intermediates (empty procedures, labels falling off the end, programs
that no longer halt) are simply rejected by the predicate wrapper in
:mod:`repro.testing.runner`.

Granularity is coarse-to-fine: whole basic blocks first (fast progress on
loop-heavy generated programs), then single instructions, repeated until a
full pass removes nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set

from ..isa.program import Procedure, Program
from .generator import GeneratedCase

#: Predicate driven by the shrinker: True iff the candidate still fails
#: the same way the original did.
StillFails = Callable[[GeneratedCase], bool]


def delete_pcs(program: Program, pcs: Iterable[int]) -> Optional[Program]:
    """Rebuild ``program`` without the given pcs, or None if that is invalid.

    Labels and procedure boundaries are remapped to the next surviving
    instruction; a deletion that empties a procedure or strands a label (or
    branch) past the end of the program is rejected.
    """
    doomed: Set[int] = {pc for pc in pcs if 0 <= pc < len(program)}
    if not doomed:
        return None
    keep = [inst for inst in program if inst.pc not in doomed]
    if not keep:
        return None

    # shifted(p): new index of original boundary position p (0..len).
    shifted_cache: List[int] = []
    survivors = 0
    for pc in range(len(program)):
        shifted_cache.append(survivors)
        if pc not in doomed:
            survivors += 1
    shifted_cache.append(survivors)

    def shifted(position: int) -> int:
        return shifted_cache[position]

    labels = {name: shifted(pc) for name, pc in program.labels.items()}
    used_labels = {inst.target for inst in keep if inst.target is not None}
    if any(labels[name] >= len(keep) for name in used_labels):
        return None  # a surviving branch would target past the end
    procedures = [
        Procedure(p.name, shifted(p.start), shifted(p.end)) for p in program.procedures
    ]
    if any(p.start >= p.end for p in procedures):
        return None  # a procedure became empty
    try:
        return Program(keep, labels, f"{program.name}~shrunk", procedures)
    except ValueError:
        return None


def _try_delete(case: GeneratedCase, pcs: Iterable[int], still_fails: StillFails) -> Optional[GeneratedCase]:
    candidate_program = delete_pcs(case.program, pcs)
    if candidate_program is None:
        return None
    candidate = case.with_program(candidate_program)
    return candidate if still_fails(candidate) else None


def shrink_case(case: GeneratedCase, still_fails: StillFails, max_rounds: int = 8) -> GeneratedCase:
    """Greedily minimise ``case`` while ``still_fails`` keeps holding.

    Returns the smallest failing case found (possibly the input itself).
    The predicate is assumed deterministic; it is never called on the
    unmodified input.
    """
    current = case
    for _ in range(max_rounds):
        before = len(current.program)

        # Coarse pass: drop whole basic blocks, largest first.
        progressed = True
        while progressed:
            progressed = False
            blocks = [
                block
                for proc in current.program.procedures
                for block in current.program.basic_blocks(proc)
            ]
            for block in sorted(blocks, key=lambda blk: blk.end - blk.start, reverse=True):
                shrunk = _try_delete(current, block.pcs(), still_fails)
                if shrunk is not None:
                    current = shrunk
                    progressed = True
                    break  # block layout changed; recompute

        # Fine pass: drop single instructions back-to-front.
        for pc in range(len(current.program) - 1, -1, -1):
            shrunk = _try_delete(current, (pc,), still_fails)
            if shrunk is not None:
                current = shrunk

        if len(current.program) == before:
            break
    return current
