"""Campaign digests against the reference engine, on every workload cell.

Each cell takes one (workload, program variant) pair and checks the
per-input digests :meth:`SimSession.batch_digests` computes for the
campaign's ``.batches.json`` sidecar against the same digests of
``reference``-engine runs, on both the ``ref`` and ``train`` inputs.  The
digest covers commit count, halt status, final pc, every integer and FP
register and the full nonzero memory image, so a digest that drifts from
the oracle makes every campaign resume refuse that program.
"""

from __future__ import annotations

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


def _reference_digest(program, memory):
    sim = FunctionalSimulator(program, memory=memory, engine="reference")
    result = sim.run(max_instructions=MAX_INSTS)
    return {
        "digest": SimSession._lane_digest(result),
        "instructions": result.instructions,
        "halted": result.halted,
    }


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_engine_matrix_cell(session, name, variant):
    program = session.program_variant(name, 1.0, MAX_INSTS, variant, None, 0.8)
    workload = make_workload(name)
    digests = session.batch_digests(name, 1.0, MAX_INSTS, INPUTS, variant=variant)
    for input_name in INPUTS:
        oracle = _reference_digest(program, workload.memory(input_name))
        assert oracle["instructions"] > 0
        assert digests[input_name] == oracle, f"{name}/{variant}/{input_name}: digest diverged from reference"
