"""Static RVP marking (paper Section 4.1).

Static register-value prediction identifies candidate loads with new opcodes:
``ld`` becomes ``rvp_ld`` (and ``fld`` becomes ``rvp_fld``) for loads the
profile says are predictable at the chosen threshold.  The marking level
mirrors the Figure 3 variants:

=================  ====================================================
level              marked loads
=================  ====================================================
``same``           same-register reuse already present (srvp_same)
``dead``           + dead-register correlation (srvp_dead)
``live``           + live-register correlation (srvp_live)
``live_lv``        + last-value reallocation (srvp_live_lv)
=================  ====================================================

Marking does not change the prediction *source*; that is carried separately
by the profile lists (see :class:`~repro.profiling.lists.ProfileLists`),
matching the paper's simulation method: "if an instruction is identified in
our dead list as exhibiting value reuse with another register, we track
reuse of the value in the other register for that instruction".
"""

from __future__ import annotations

from typing import Set

from ..isa.instructions import Instruction
from ..isa.program import Program
from ..profiling.lists import ProfileLists

MARKING_LEVELS = ("same", "dead", "live", "live_lv")


def marked_pcs(program: Program, lists: ProfileLists, level: str) -> Set[int]:
    """The set of load pcs that get the rvp opcode at ``level``."""
    if level not in MARKING_LEVELS:
        raise ValueError(f"unknown marking level {level!r}; choose from {MARKING_LEVELS}")
    use_dead = level in ("dead", "live", "live_lv")
    use_live = level in ("live", "live_lv")
    use_lv = level == "live_lv"
    candidates = lists.candidate_pcs(use_dead=use_dead, use_live=use_live, use_lv=use_lv)
    return {pc for pc in candidates if 0 <= pc < len(program) and program[pc].is_load}


def mark_static_rvp(
    program: Program,
    lists: ProfileLists,
    level: str = "same",
) -> Program:
    """Return a program with the selected loads swapped to rvp opcodes.

    Postcondition: the marked program passes the verifier — in particular
    RVP006, every rvp opcode sits on a load whose destination can hold a
    prior value.
    """
    pcs = marked_pcs(program, lists, level)

    def mark(inst: Instruction) -> Instruction:
        if inst.pc in pcs:
            return inst.as_rvp_marked()
        return inst

    marked = program.rewrite(mark, name=f"{program.name}+srvp_{level}")

    from ..analysis.verifier import check_program

    check_program(marked, source=f"mark_static_rvp[{level}]({program.name})", lists=lists, baseline=program)
    return marked
