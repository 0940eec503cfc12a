"""Chaos matrix for the supervised campaign service.

Every scenario runs the real simulator under a scripted
:class:`~repro.testing.faults.ChaosHarness`: worker kills, stalls and slow
cells against the per-cell deadline, torn store writes, pool collapse and
supervisor death are dispatch scripts on a :class:`ManualClock`, so each race
replays identically on every run.  The common acceptance bar is
*exactly-once*: every cell reaches exactly one terminal ``ok`` journal
record, and the result set is byte-identical to a fault-free serial campaign
over the same grid.
"""

import json

import pytest

from repro.core.metrics import get_metrics, reset_metrics
from repro.runtime.campaign import CampaignSpec
from repro.runtime.journal import RunJournal, journal_path
from repro.runtime.service import CampaignSupervisor, resume_campaign, run_campaign
from repro.runtime.store import ResultStore
from repro.testing.faults import (
    CHAOS_INTERRUPT,
    CHAOS_KILL,
    CHAOS_SLOW,
    CHAOS_STALL,
    CHAOS_TORN_STORE,
    ChaosHarness,
    ChaosPolicy,
)


SPEC = CampaignSpec(
    workloads=("li", "go"),
    configs=("no_predict", "lvp"),
    recoveries=("selective",),
    max_instructions=1500,
    jobs=2,
)


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_metrics()
    yield
    reset_metrics()


@pytest.fixture(scope="module")
def serial_payloads(tmp_path_factory):
    """Result payloads from a fault-free serial campaign — the golden run."""
    out = tmp_path_factory.mktemp("serial")
    report = run_campaign(SPEC.with_jobs(1), str(out), run_id="golden")
    assert report.complete
    return _payloads(report)


def _payloads(report):
    return sorted(json.dumps(r.to_dict(), sort_keys=True) for r in report.results)


def _supervised(tmp_path, harness, name="runs", **kwargs):
    defaults = dict(poll_interval=0.1, retries=3)
    defaults.update(kwargs)
    supervisor = CampaignSupervisor(
        SPEC, str(tmp_path / name), **defaults, **harness.supervisor_kwargs()
    )
    harness.attach(supervisor)
    return supervisor


def _ok_record_counts(journal_file):
    counts = {}
    with open(journal_file) as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("type") == "cell" and entry.get("status") == "ok":
                counts[entry["id"]] = counts.get(entry["id"], 0) + 1
    return counts


def _assert_exactly_once(supervisor, run_id="r1"):
    journal_file = journal_path(supervisor.out_dir, run_id)
    counts = _ok_record_counts(journal_file)
    assert counts == {cell_id: 1 for cell_id in SPEC.cell_ids()}


def _replay(supervisor, run_id="r1"):
    """(cell states, events named by kind) replayed from the run's journal."""
    journal = RunJournal.open(journal_path(supervisor.out_dir, run_id))
    try:
        events = {}
        for event in journal.events():
            events.setdefault(event["event"], []).append(event)
        return journal.states(), events
    finally:
        journal.close()


# ----------------------------------------------------------------------
# Baseline: a fault-free supervised run is just a parallel serial run
# ----------------------------------------------------------------------
def test_fault_free_supervised_run_matches_serial(tmp_path, serial_payloads):
    harness = ChaosHarness(ChaosPolicy())
    supervisor = _supervised(tmp_path, harness)
    report = supervisor.run(run_id="r1")
    assert report.complete
    assert _payloads(report) == serial_payloads
    _assert_exactly_once(supervisor)
    assert supervisor.stats.timeouts == 0
    assert supervisor.stats.pool_rebuilds == 0
    assert len(harness.executors) == 1


# ----------------------------------------------------------------------
# Worker SIGKILL: the pool breaks; in-flight cells are requeued; all finish
# ----------------------------------------------------------------------
def test_worker_kill_requeues_inflight_cells_and_completes(tmp_path, serial_payloads):
    harness = ChaosHarness(ChaosPolicy(script={0: CHAOS_KILL}))
    supervisor = _supervised(tmp_path, harness)
    report = supervisor.run(run_id="r1")

    assert report.complete
    assert _payloads(report) == serial_payloads
    _assert_exactly_once(supervisor)
    assert supervisor.stats.pool_rebuilds == 1
    assert not supervisor.stats.degraded_serial
    # Pool collapse requeued every in-flight cell, not just the victim's.
    [broken] = _replay(supervisor)[1]["pool_broken"]
    assert broken["inflight"] >= 2
    assert len(harness.executors) == 2  # original pool + one rebuild


def test_two_workers_killed_mid_flight(tmp_path, serial_payloads):
    """The CI chaos-smoke scenario: two kills across the campaign."""
    harness = ChaosHarness(ChaosPolicy(script={0: CHAOS_KILL, 3: CHAOS_KILL}))
    supervisor = _supervised(tmp_path, harness, max_pool_rebuilds=3)
    report = supervisor.run(run_id="r1")

    assert report.complete
    assert _payloads(report) == serial_payloads
    _assert_exactly_once(supervisor)
    assert supervisor.stats.pool_rebuilds == 2


# ----------------------------------------------------------------------
# Per-cell deadline: a stalled cell times out and the pool is recycled
# ----------------------------------------------------------------------
def test_stalled_worker_times_out_and_pool_is_recycled(tmp_path, serial_payloads):
    harness = ChaosHarness(ChaosPolicy(script={0: CHAOS_STALL}))
    supervisor = _supervised(tmp_path, harness, cell_timeout=2.0)
    report = supervisor.run(run_id="r1")

    assert report.complete
    assert _payloads(report) == serial_payloads
    _assert_exactly_once(supervisor)
    assert supervisor.stats.timeouts == 1
    assert supervisor.stats.pool_rebuilds == 0  # a recycle is not a rebuild
    # The stalled pool was killed, never waited on, and a fresh one finished.
    assert len(harness.executors) == 2
    stalled = harness.executors[0]
    assert stalled.shutdown_calls == [(False, True)]
    assert stalled.submitted[0].cancelled
    [note] = _replay(supervisor)[1]["cell_timeout"]
    assert note["cell"] == SPEC.cell_ids()[0]


def test_slow_cell_under_its_deadline_is_not_interrupted(tmp_path, serial_payloads):
    harness = ChaosHarness(ChaosPolicy(script={0: CHAOS_SLOW}, slow_ticks=25))
    # 2.5 s of harness time against a 60 s deadline.
    supervisor = _supervised(tmp_path, harness, cell_timeout=60.0)
    report = supervisor.run(run_id="r1")

    assert report.complete
    assert _payloads(report) == serial_payloads
    _assert_exactly_once(supervisor)
    assert supervisor.stats.timeouts == 0
    assert supervisor.stats.dispatched == len(SPEC.cell_ids())
    assert len(harness.executors) == 1


def test_slow_cell_past_its_deadline_is_timed_out_and_retried_once(tmp_path, serial_payloads):
    harness = ChaosHarness(ChaosPolicy(script={0: CHAOS_SLOW}, slow_ticks=22))
    supervisor = _supervised(tmp_path, harness, cell_timeout=2.0)
    report = supervisor.run(run_id="r1")

    assert report.complete
    assert _payloads(report) == serial_payloads
    _assert_exactly_once(supervisor)  # the killed attempt never commits
    assert supervisor.stats.timeouts == 1
    states = _replay(supervisor)[0]
    assert states[SPEC.cell_ids()[0]]["attempts"] == 2


def test_cell_that_always_stalls_commits_timeout_and_the_rest_finish(tmp_path, serial_payloads):
    """Recycles never degrade the run to serial mode, which has no deadline."""
    victim = SPEC.cell_ids()[1]
    harness = ChaosHarness(ChaosPolicy(script={victim: CHAOS_STALL}))
    supervisor = _supervised(tmp_path, harness, cell_timeout=2.0, max_pool_rebuilds=0)
    report = supervisor.run(run_id="r1")

    assert not report.complete
    states = _replay(supervisor)[0]
    assert states[victim]["status"] == "timeout"
    assert states[victim]["attempts"] == 4  # the first try and three retries
    others = {cell_id: 1 for cell_id in SPEC.cell_ids() if cell_id != victim}
    assert _ok_record_counts(journal_path(supervisor.out_dir, "r1")) == others
    assert supervisor.stats.timeouts == 4
    assert supervisor.stats.pool_rebuilds == 0
    assert not supervisor.stats.degraded_serial
    ok = sorted(json.dumps(r.to_dict(), sort_keys=True) for r in report.results)
    assert set(ok) <= set(serial_payloads) and len(ok) == len(others)


# ----------------------------------------------------------------------
# Torn store write: the half-written entry is detected, discarded, re-run
# ----------------------------------------------------------------------
def test_torn_store_write_is_detected_and_healed(tmp_path, serial_payloads):
    store = ResultStore(str(tmp_path / "store"))
    harness = ChaosHarness(ChaosPolicy(script={0: CHAOS_TORN_STORE}))
    supervisor = _supervised(tmp_path, harness, store=store)
    report = supervisor.run(run_id="r1")

    assert report.complete
    assert _payloads(report) == serial_payloads
    _assert_exactly_once(supervisor)
    assert get_metrics().get("store.corrupt") >= 1  # the torn entry was caught
    # The slot healed: every cell's entry now reads back clean.
    for cell in SPEC.cells():
        assert store.get(supervisor.store_key(cell)) is not None


# ----------------------------------------------------------------------
# Pool collapse beyond the rebuild budget: degrade to serial, still finish
# ----------------------------------------------------------------------
def test_repeated_kills_degrade_to_serial_and_complete(tmp_path, serial_payloads):
    harness = ChaosHarness(ChaosPolicy(script={0: CHAOS_KILL, 2: CHAOS_KILL}))
    supervisor = _supervised(tmp_path, harness, max_pool_rebuilds=1)
    report = supervisor.run(run_id="r1")

    assert report.complete
    assert _payloads(report) == serial_payloads
    _assert_exactly_once(supervisor)
    assert supervisor.stats.degraded_serial
    assert supervisor.stats.pool_rebuilds == 2


# ----------------------------------------------------------------------
# Supervisor death mid-campaign: restart + --resume finishes the grid
# ----------------------------------------------------------------------
def test_supervisor_interrupt_then_resume_completes(tmp_path, serial_payloads):
    harness = ChaosHarness(ChaosPolicy(script={1: CHAOS_INTERRUPT}))
    supervisor = _supervised(tmp_path, harness)
    with pytest.raises(KeyboardInterrupt):
        supervisor.run(run_id="r1")

    # A fresh supervisor (fresh harness: the old one died with its process)
    # resumes from the journal alone.
    harness2 = ChaosHarness(ChaosPolicy())
    supervisor2 = _supervised(tmp_path, harness2)
    report = supervisor2.resume("r1")

    assert report.complete
    assert report.resumed
    assert report.restored >= 1  # the cell committed before the interrupt
    assert _payloads(report) == serial_payloads
    _assert_exactly_once(supervisor2)


def test_resume_campaign_rebuilds_spec_from_journal(tmp_path, serial_payloads):
    harness = ChaosHarness(ChaosPolicy(script={1: CHAOS_INTERRUPT}))
    supervisor = _supervised(tmp_path, harness)
    with pytest.raises(KeyboardInterrupt):
        supervisor.run(run_id="r1")

    # jobs=1 takes the serial path: no pool, no harness needed — this is
    # exactly what `repro serve --jobs 1` does after a supervisor host restart.
    report = resume_campaign(str(tmp_path / "runs"), "r1", jobs=1)
    assert report.complete
    assert _payloads(report) == serial_payloads


# ----------------------------------------------------------------------
# Shared store: identical cells are never simulated twice
# ----------------------------------------------------------------------
def test_warm_store_runs_zero_simulations(tmp_path, serial_payloads):
    store = ResultStore(str(tmp_path / "store"))
    harness = ChaosHarness(ChaosPolicy())
    cold = _supervised(tmp_path, harness, name="cold", store=store)
    cold_report = cold.run(run_id="r1")
    assert cold_report.complete
    assert len(store) == len(SPEC.cell_ids())

    runs_before = get_metrics().get("sim.runs")
    harness2 = ChaosHarness(ChaosPolicy())
    warm = _supervised(tmp_path, harness2, name="warm", store=store)
    warm_report = warm.run(run_id="r2")

    assert warm_report.complete
    assert get_metrics().get("sim.runs") == runs_before  # zero re-simulation
    assert warm.stats.store_hits == len(SPEC.cell_ids())
    assert warm.stats.dispatched == 0  # pre-pass satisfied the whole grid
    assert warm_report.store_hits == len(SPEC.cell_ids())
    assert _payloads(warm_report) == serial_payloads


def test_store_is_shared_across_entry_points(tmp_path, serial_payloads):
    """A serial campaign fills the store; a supervised one drains it."""
    store = ResultStore(str(tmp_path / "store"))
    run_campaign(SPEC.with_jobs(1), str(tmp_path / "a"), run_id="a", store=store)

    runs_before = get_metrics().get("sim.runs")
    harness = ChaosHarness(ChaosPolicy())
    supervisor = _supervised(tmp_path, harness, name="b", store=store)
    report = supervisor.run(run_id="b")
    assert report.complete
    assert get_metrics().get("sim.runs") == runs_before
    assert _payloads(report) == serial_payloads
