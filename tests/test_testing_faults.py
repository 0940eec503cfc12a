"""Deterministic fault injection: the supervisor's retry/fail-fast/interrupt
paths in serial mode and the session trace-cache eviction recovery, proven
on purpose.

Serial mode (``jobs == 1``) runs every cell in the supervisor's own process,
so the faults are injected by wrapping ``repro.runtime.service._run_cell``;
the supervisor runs on a :class:`ChaosHarness` manual clock, so every backoff
sleep is recorded exactly instead of waited out.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.session import SimSession
from repro.runtime import DETERMINISTIC, RunJournal, backoff_delay, journal_path
from repro.runtime import service
from repro.runtime.campaign import CampaignSpec, SuiteCell
from repro.runtime.service import CampaignSupervisor
from repro.sim.functional import SimulationError
from repro.testing import (
    CHAOS_INTERRUPT,
    CHAOS_KILL,
    ChaosHarness,
    ChaosPolicy,
    ManualClock,
    PoisonedCellError,
    evict_traces,
    verify_trace_refill,
)

MAX_INSTS = 1_500

SPEC = CampaignSpec(
    workloads=("li", "go"), configs=("no_predict", "lvp"), max_instructions=MAX_INSTS, jobs=1
)
CELLS = SPEC.cells()


def _serial(tmp_path, monkeypatch, fail=None, spec=SPEC, **kwargs):
    """A supervisor on harness time whose in-process cells pass through ``fail``.

    ``fail(cell, attempt)`` returns an exception to raise for that attempt
    (1-based, per cell) or ``None`` to run the cell for real.  Returns the
    supervisor, the per-call log of cell ids and the list of slept delays.
    """
    real = service._run_cell
    calls = []

    def run_cell(cell, *args):
        calls.append(cell.cell_id)
        error = fail(cell, calls.count(cell.cell_id)) if fail else None
        if error is not None:
            raise error
        return real(cell, *args)

    monkeypatch.setattr(service, "_run_cell", run_cell)
    harness = ChaosHarness(ChaosPolicy())
    supervisor = CampaignSupervisor(spec, str(tmp_path), **kwargs, **harness.supervisor_kwargs())
    slept = []

    def sleep(seconds):
        slept.append(seconds)
        harness.sleep(seconds)

    supervisor._sleep = sleep
    return supervisor, calls, slept


def _records(supervisor, run_id="r"):
    journal = RunJournal.open(journal_path(supervisor.out_dir, run_id))
    try:
        return journal.states()
    finally:
        journal.close()


def _key(cell):
    return (cell.workload, cell.config, cell.recovery)


# ----------------------------------------------------------------------
# Serial mode under injected failures
# ----------------------------------------------------------------------
def test_injected_timeout_is_retried_to_success(tmp_path, monkeypatch):
    def fail(cell, attempt):
        return TimeoutError("injected worker timeout") if cell == CELLS[0] and attempt == 1 else None

    supervisor, calls, _ = _serial(tmp_path, monkeypatch, fail)
    report = supervisor.run(run_id="r")
    assert report.complete and not report.failures
    assert len(report.results) == len(CELLS)
    events = RunJournal.open(report.journal_path).events()
    assert not [event for event in events if event["event"] == "dispatch"]  # in-process
    assert calls.count(CELLS[0].cell_id) == 2


def test_injected_poisoned_cell_is_retried_to_success(tmp_path, monkeypatch):
    """A worker returning garbage (unpicklable state) is transient: retried."""
    poisoned = {CELLS[1].cell_id, CELLS[2].cell_id}

    def fail(cell, attempt):
        if cell.cell_id in poisoned and attempt == 1:
            return PoisonedCellError("injected poisoned cell result")
        return None

    supervisor, calls, _ = _serial(tmp_path, monkeypatch, fail)
    report = supervisor.run(run_id="r")
    assert report.complete and not report.failures
    assert len(report.results) == len(CELLS)
    assert all(calls.count(cell_id) == 2 for cell_id in poisoned)


def test_pool_collapse_falls_back_to_serial(tmp_path):
    harness = ChaosHarness(ChaosPolicy(script={0: CHAOS_KILL}))
    supervisor = CampaignSupervisor(
        SPEC.with_jobs(2), str(tmp_path), max_pool_rebuilds=0, **harness.supervisor_kwargs()
    )
    harness.attach(supervisor)
    report = supervisor.run(run_id="r")
    assert harness.injected[CHAOS_KILL] == 1
    assert report.complete and not report.failures
    assert len(report.results) == len(CELLS)
    assert supervisor.stats.degraded_serial  # the pool died; serial finished the job


def test_retry_cell_records_double_failure(tmp_path, monkeypatch):
    """If the retry also fails, the cell fails citing both errors, and the
    rest of the campaign still completes."""

    def fail(cell, attempt):
        if cell != CELLS[0]:
            return None
        if attempt == 1:
            return TimeoutError("injected worker timeout")
        return pickle.PicklingError(f"cannot pickle result for {cell.workload}")

    supervisor, calls, _ = _serial(tmp_path, monkeypatch, fail)
    report = supervisor.run(run_id="r")
    assert list(report.failures) == [CELLS[0].cell_id]
    message = report.failures[CELLS[0].cell_id]
    assert "first:" in message and "retry:" in message
    assert "PicklingError" in message
    # PicklingError is deterministic: the failing retry is the last attempt.
    assert calls.count(CELLS[0].cell_id) == 2
    assert len(report.results) == len(CELLS) - 1


def test_run_serial_collects_pickling_failures(tmp_path, monkeypatch):
    def fail(cell, attempt):
        return pickle.PicklingError("unpicklable workload state")

    supervisor, calls, slept = _serial(tmp_path, monkeypatch, fail)
    report = supervisor.run(run_id="r")
    assert sorted(report.failures) == sorted(SPEC.cell_ids())
    assert all("PicklingError" in msg for msg in report.failures.values())
    assert set(report.failure_kinds.values()) == {DETERMINISTIC}
    assert not report.results
    assert len(calls) == len(CELLS) and not slept  # one attempt each, no backoff


def test_retried_cell_reports_attempts_and_backoff_schedule(tmp_path, monkeypatch):
    """A transiently failed cell retries behind exactly the deterministic
    backoff schedule — no more sleeps, no different jitter."""

    def fail(cell, attempt):
        return ConnectionError("worker pipe closed") if cell == CELLS[0] and attempt == 1 else None

    supervisor, _, slept = _serial(tmp_path, monkeypatch, fail)
    report = supervisor.run(run_id="r")
    assert report.complete
    records = _records(supervisor)
    assert records[CELLS[0].cell_id]["attempts"] == 2  # one injected failure, one retry
    assert all(records[cell.cell_id]["status"] == "ok" for cell in CELLS)
    assert slept == [backoff_delay(0, seed=_key(CELLS[0]))]


def test_transient_exhaustion_sleeps_full_schedule(tmp_path, monkeypatch):
    def fail(cell, attempt):
        return ConnectionError("worker pipe closed") if cell == CELLS[0] else None

    supervisor, calls, slept = _serial(tmp_path, monkeypatch, fail, retries=3)
    report = supervisor.run(run_id="r")
    record = _records(supervisor)[CELLS[0].cell_id]
    assert record["status"] == "failed"  # last error was not a deadline
    assert record["attempts"] == 4  # initial + 3 retries
    assert calls.count(CELLS[0].cell_id) == 4
    message = report.failures[CELLS[0].cell_id]
    assert "first:" in message and "retry:" in message
    # (not_before - now) on the manual clock: exact up to float rounding.
    assert slept == pytest.approx([backoff_delay(a, seed=_key(CELLS[0])) for a in range(3)], rel=1e-12)


def test_deterministic_sim_fault_fails_fast_exactly_once(tmp_path, monkeypatch):
    """A simulator fault replays identically, so the supervisor must not
    retry: one attempt, no backoff sleep, diagnostic and kind preserved."""

    def fail(cell, attempt):
        return SimulationError("injected deterministic simulator fault") if cell == CELLS[0] else None

    supervisor, calls, slept = _serial(tmp_path, monkeypatch, fail)
    report = supervisor.run(run_id="r")
    faulted = CELLS[0].cell_id
    assert report.statuses[faulted] == "failed"
    assert _records(supervisor)[faulted]["attempts"] == 1
    assert report.failure_kinds[faulted] == DETERMINISTIC
    assert "SimulationError" in report.failures[faulted]
    assert calls.count(faulted) == 1 and not slept  # exactly one attempt, ever
    # the healthy cells were unaffected
    assert len(report.results) == len(CELLS) - 1


def test_serial_interrupt_leaves_earlier_cells_ok_and_rest_pending(tmp_path, monkeypatch):
    """Ctrl-C in serial mode: committed cells stay durable, the rest resume."""

    def fail(cell, attempt):
        return KeyboardInterrupt() if cell == CELLS[1] else None

    supervisor, _, _ = _serial(tmp_path, monkeypatch, fail)
    with pytest.raises(KeyboardInterrupt):
        supervisor.run(run_id="r")
    replayed = RunJournal.find(str(tmp_path), "r")
    assert replayed.states()[CELLS[0].cell_id]["status"] == "ok"
    assert replayed.pending_cells() == SPEC.cell_ids()[1:]


def test_interrupt_cancels_pool_and_flushes_journal(tmp_path):
    """Ctrl-C mid-campaign must abandon the pool without waiting (the
    orphaned-pool regression) and leave every committed cell durable."""
    harness = ChaosHarness(ChaosPolicy(script={2: CHAOS_INTERRUPT}))
    supervisor = CampaignSupervisor(SPEC.with_jobs(2), str(tmp_path), **harness.supervisor_kwargs())
    harness.attach(supervisor)
    with pytest.raises(KeyboardInterrupt):
        supervisor.run(run_id="r")
    executor = harness.executors[0]
    # Queued futures were cancelled, not waited on.
    assert executor.shutdown_calls == [(False, True)]
    assert all(f.cancelled for f in executor.submitted)
    # Slots 0 and 1 committed before the interrupt; their records survived.
    replayed = RunJournal.find(str(tmp_path), "r")
    assert [replayed.states()[cell.cell_id]["status"] for cell in CELLS[:2]] == ["ok", "ok"]
    assert replayed.pending_cells() == SPEC.cell_ids()[2:]


def test_manual_clock_advances_only_when_told():
    clock = ManualClock(start=10.0)
    assert clock.now() == 10.0
    clock.advance(2.5)
    assert clock.now() == 12.5
    assert clock.now() == 12.5  # reading does not tick


def test_manual_clock_rejects_negative_advance():
    clock = ManualClock()
    with pytest.raises(ValueError):
        clock.advance(-1.0)


def test_poisoned_cell_error_is_transient_by_class_attribute():
    from repro.runtime import TRANSIENT, classify_failure

    assert PoisonedCellError.transient is True
    assert classify_failure(PoisonedCellError("garbage")) == TRANSIENT


def test_suite_cell_id_format():
    assert SuiteCell("li", "lvp", "selective").cell_id == "li/lvp/selective"


# ----------------------------------------------------------------------
# SimSession cache eviction recovery
# ----------------------------------------------------------------------
def test_evict_traces_counts_and_empties():
    session = SimSession()
    session.ref_trace("li", 1.0, MAX_INSTS)
    session.ref_trace("go", 1.0, MAX_INSTS)
    assert evict_traces(session, keep=1) == 1
    assert len(session._traces) == 1
    assert evict_traces(session) == 1
    assert not session._traces


def test_trace_refill_after_eviction_is_identical():
    session = SimSession()
    assert verify_trace_refill(session, name="li", scale=1.0, max_instructions=MAX_INSTS)
    assert verify_trace_refill(
        session, name="go", scale=1.0, max_instructions=MAX_INSTS,
        variant="srvp_dead", threshold=0.8,
    )
