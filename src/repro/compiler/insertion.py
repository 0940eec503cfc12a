"""Instruction insertion with label/procedure remapping.

The marking and reallocation passes are 1:1 rewrites; the Section 3
"Et Cetera" transformations (stride adds, correlation moves) *insert*
instructions.  Because :class:`~repro.isa.program.Program` stores branch
targets symbolically (label names, re-resolved at construction), insertion
reduces to rebuilding the instruction list and shifting label/procedure
boundaries.

Convention: ``insert_after[pc]`` instructions are placed immediately after
the instruction at ``pc``.  Labels bound to ``pc + 1`` keep pointing at the
original ``pc + 1`` instruction — control transfers skip the inserted code,
which is safe for this module's intended use (shadow-register updates with
no architectural consumers) and conservative for anything else.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.instructions import Instruction
from ..isa.program import Procedure, Program

#: Test-only mutation switch: when True, the first inserted instruction is
#: silently dropped.  Exists so the differential oracles in
#: :mod:`repro.testing.oracles` can prove they detect a broken insertion pass
#: (tests/test_testing_oracles.py flips it under monkeypatch).  Never set this
#: in production code.
_TEST_DROP_FIRST_INSERTED = False


def insert_after(
    program: Program,
    insertions: Dict[int, Sequence[Instruction]],
    name: str = None,
    verify: Optional[bool] = None,
) -> Tuple[Program, Dict[int, int]]:
    """Insert instructions after the given pcs.

    Returns ``(new_program, pc_map)`` where ``pc_map`` maps every original pc
    to its new pc (inserted instructions have no entry).

    Postcondition (on by default, ``verify=False`` or ``REPRO_VERIFY_PASSES=0``
    to skip): the rebuilt program passes the verifier — label/procedure
    shifting bugs show up as RVP005 cross-boundary targets or RVP004
    unreachable blocks.
    """
    for pc in insertions:
        if not 0 <= pc < len(program):
            raise ValueError(f"insertion point {pc} out of range")

    new_insts: List[Instruction] = []
    pc_map: Dict[int, int] = {}
    dropped = not _TEST_DROP_FIRST_INSERTED  # mutation: lose the first insert
    for inst in program:
        pc_map[inst.pc] = len(new_insts)
        new_insts.append(inst)
        for extra in insertions.get(inst.pc, ()):
            if not dropped:
                dropped = True
                continue
            new_insts.append(extra)

    def shifted(position: int) -> int:
        """New index for an original *boundary* position (0..len)."""
        if position >= len(program):
            return len(new_insts)
        return pc_map[position]

    labels = {label: shifted(pc) for label, pc in program.labels.items()}
    procedures = [Procedure(p.name, shifted(p.start), shifted(p.end)) for p in program.procedures]
    new_program = Program(new_insts, labels, name or f"{program.name}+ins", procedures)

    from ..analysis.verifier import check_program, verification_enabled

    if verification_enabled(verify):
        check_program(new_program, source=f"insert_after({program.name})", baseline=program, pc_map=pc_map)
    return new_program, pc_map
