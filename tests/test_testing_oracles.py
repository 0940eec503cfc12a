"""The five oracle families: clean on generated programs, and each one
provably detects a seeded defect (mutation self-tests)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.compiler import insertion
from repro.sim.decoded import DecodedProgram
from repro.sim.functional import SimulationError
from repro.testing import (
    ORACLE_FAMILIES,
    ORACLES,
    CaseInvalid,
    OracleViolation,
    generate_case,
)
from repro.testing import oracles as oracles_mod

SEEDS = range(12)


# ----------------------------------------------------------------------
# Clean programs satisfy every oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("oracle", ORACLE_FAMILIES)
def test_oracles_pass_on_generated_programs(oracle):
    for seed in SEEDS:
        ORACLES[oracle](generate_case(seed))


def test_nonhalting_case_is_invalid_not_a_violation():
    case = generate_case(0)
    tiny = dataclasses.replace(case)
    old = oracles_mod.MAX_INSTRUCTIONS
    oracles_mod.MAX_INSTRUCTIONS = 3  # force the budget to expire mid-run
    try:
        with pytest.raises(CaseInvalid):
            ORACLES["trace-equivalence"](tiny)
    finally:
        oracles_mod.MAX_INSTRUCTIONS = old


# ----------------------------------------------------------------------
# Mutation self-tests: every family detects at least one seeded defect
# ----------------------------------------------------------------------
def test_trace_equivalence_detects_truncated_stream(monkeypatch):
    """Defect: the streaming executor silently drops the last record."""
    real = oracles_mod._streaming_run

    def truncating(program, memory):
        sim, trace = real(program, memory)
        return sim, trace[:-1]

    monkeypatch.setattr(oracles_mod, "_streaming_run", truncating)
    with pytest.raises(OracleViolation) as excinfo:
        ORACLES["trace-equivalence"](generate_case(0))
    assert excinfo.value.oracle == "trace-equivalence"


def test_trace_equivalence_detects_corrupted_record(monkeypatch):
    """Defect: one streamed result is off by one."""
    real = oracles_mod._streaming_run

    def corrupting(program, memory):
        sim, trace = real(program, memory)
        victim = next(i for i, r in enumerate(trace) if r.result is not None)
        trace[victim] = dataclasses.replace(trace[victim], result=trace[victim].result + 1)
        return sim, trace

    monkeypatch.setattr(oracles_mod, "_streaming_run", corrupting)
    with pytest.raises(OracleViolation, match="diverges"):
        ORACLES["trace-equivalence"](generate_case(1))


def test_pass_preservation_detects_dropped_insertion(monkeypatch):
    """Defect: the insertion pass loses its first inserted instruction
    (the test-only mutation switch in repro.compiler.insertion)."""
    monkeypatch.setattr(insertion, "_TEST_DROP_FIRST_INSERTED", True)
    with pytest.raises(OracleViolation) as excinfo:
        ORACLES["pass-preservation"](generate_case(0))
    assert excinfo.value.oracle == "pass-preservation"
    assert "insert" in excinfo.value.message


def test_pass_preservation_clean_after_mutation_reset():
    assert insertion._TEST_DROP_FIRST_INSERTED is False
    ORACLES["pass-preservation"](generate_case(0))


def test_predictor_sanity_detects_counter_overflow(monkeypatch):
    """Defect: a confidence counter escapes its 3-bit encoding."""
    real = oracles_mod._counter_cells

    def overflowing(predictor):
        cells = real(predictor)
        if cells:
            cells[0] = oracles_mod.COUNTER_MAX + 1
        return cells

    monkeypatch.setattr(oracles_mod, "_counter_cells", overflowing)
    with pytest.raises(OracleViolation, match="escaped"):
        ORACLES["predictor-sanity"](generate_case(0))


def test_predictor_sanity_detects_static_dynamic_divergence(monkeypatch):
    """Defect: the static-RVP training path claims an extra hit per pc."""
    real = oracles_mod._train_predictor

    def biased(trace, predictor):
        counts = real(trace, predictor)
        from repro.vp.static_rvp import StaticRVP

        if isinstance(predictor, StaticRVP):
            counts = {pc: (u, hits + 1) for pc, (u, hits) in counts.items()}
        return counts

    monkeypatch.setattr(oracles_mod, "_train_predictor", biased)
    # find a seed whose profile has a non-empty "same" list so the
    # static-vs-dynamic comparison actually runs
    for seed in range(30):
        try:
            ORACLES["predictor-sanity"](generate_case(seed))
        except OracleViolation as violation:
            assert "static vs dynamic" in violation.message
            return
    pytest.fail("no seed exercised the static-vs-dynamic comparison")


def test_predictor_sanity_detects_overlay_register_defect(monkeypatch):
    """Defect: the overlay's register mirror calls every hinted-register
    prediction correct."""
    from repro.uarch import stream as stream_mod

    real = stream_mod._register_mirror

    def optimistic(stream, reg_source):
        return {seq: (dep, True) for seq, (dep, _) in real(stream, reg_source).items()}

    monkeypatch.setattr(stream_mod, "_register_mirror", optimistic)
    for seed in range(30):
        try:
            ORACLES["predictor-sanity"](generate_case(seed))
        except OracleViolation as violation:
            assert "overlay" in violation.message
            return
    pytest.fail("no seed exercised a mispredicting register hint")


def test_recovery_invariant_detects_lost_commits(monkeypatch):
    """Defect: the pipeline drops a committed instruction."""
    real = oracles_mod._simulate

    def lossy(trace, predictor, recovery):
        stats = real(trace, predictor, recovery)
        stats.committed -= 1
        return stats

    monkeypatch.setattr(oracles_mod, "_simulate", lossy)
    with pytest.raises(OracleViolation, match="committed"):
        ORACLES["recovery-invariant"](generate_case(0))


def test_trace_equivalence_detects_perturbed_fault_divergence(monkeypatch):
    """Defect: on the perturbed memory image the decoded engine reports a
    fault the reference does not.  The perturbed-memory leg must notice."""
    real = oracles_mod._engine_run

    def misreporting(program, memory, engine, max_instructions):
        sim, result, error = real(program, memory, engine, max_instructions)
        if engine == "decoded":
            error = SimulationError(f"spurious fault ({error!r})")
        return sim, result, error

    monkeypatch.setattr(oracles_mod, "_engine_run", misreporting)
    with pytest.raises(OracleViolation, match="perturbed memory"):
        ORACLES["trace-equivalence"](generate_case(0))


def test_trace_equivalence_detects_fault_path_defect_in_record_handlers(monkeypatch):
    """Defect: the decoded engine's record-producing load handlers advance
    ``state.pc`` before raising an unaligned-access fault, so a faulting run
    stops one pc past the reference.  These are the handlers every
    production run dispatches; the fault leg must notice."""
    real = DecodedProgram.bind_trace

    def advancing(self, state, memory):
        handlers = real(self, state, memory)
        for inst in self.program:
            if inst.op.is_load:

                def run(seq, _handler=handlers[inst.pc], _fall=inst.pc + 1):
                    try:
                        return _handler(seq)
                    except ValueError:
                        state.pc = _fall
                        raise

                handlers[inst.pc] = run
        return handlers

    monkeypatch.setattr(DecodedProgram, "bind_trace", advancing)
    detected = 0
    for seed in SEEDS:
        try:
            ORACLES["trace-equivalence"](generate_case(seed))
        except OracleViolation as violation:
            assert "misaligned access" in violation.message
            detected += 1
    assert detected, "no generated case exercised a faulting load"


def test_recovery_invariant_detects_phantom_recovery(monkeypatch):
    """Defect: recovery work is charged even with no predictor."""
    from repro.vp.base import NoPredictor

    real = oracles_mod._simulate

    def phantom(trace, predictor, recovery):
        stats = real(trace, predictor, recovery)
        if isinstance(predictor, NoPredictor):
            stats.value_squashes += 1
        return stats

    monkeypatch.setattr(oracles_mod, "_simulate", phantom)
    with pytest.raises(OracleViolation, match="no predictor"):
        ORACLES["recovery-invariant"](generate_case(0))
