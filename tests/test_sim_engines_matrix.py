"""The decoded functional engine against the reference engine, on every
workload cell.

Each cell takes one (workload, program variant) pair and runs it on both
engines, on both the ``ref`` and ``train`` inputs, and compares their final
states: commit count, halt status, final pc, every integer and FP register
and the full nonzero memory image.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.session import SimSession
from repro.sim.functional import FunctionalSimulator
from repro.workloads.suite import WORKLOAD_CLASSES, make_workload

MAX_INSTS = 3_000
VARIANTS = ("base", "srvp_dead", "realloc")
INPUTS = ("ref", "train")


@pytest.fixture(scope="module")
def session():
    # One session for the whole matrix: variant construction (profiling for
    # srvp_dead, train artifacts for realloc) is paid once per workload.
    return SimSession()


def _final_state_digest(program, memory, engine):
    """sha256 of one run's final architectural state, and its commit count.

    Memory equality is modulo zero words, so the digest is too.
    """
    result = FunctionalSimulator(program, memory=memory, engine=engine).run(max_instructions=MAX_INSTS)
    state = result.state
    words = sorted((address, value) for address, value in result.memory.nonzero_words() if value)
    payload = (
        state.pc, result.instructions, result.halted,
        tuple(state.int_regs), tuple(state.fp_regs), tuple(words),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest(), result.instructions


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_engine_matrix_cell(session, name, variant):
    program = session.program_variant(name, 1.0, MAX_INSTS, variant, None, 0.8)
    workload = make_workload(name)
    for input_name in INPUTS:
        decoded = _final_state_digest(program, workload.memory(input_name), "decoded")
        oracle = _final_state_digest(program, workload.memory(input_name), "reference")
        assert oracle[1] > 0
        assert decoded == oracle, f"{name}/{variant}/{input_name}: decoded diverged from reference"
