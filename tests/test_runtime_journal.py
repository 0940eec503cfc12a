"""Runtime substrate tests: journal durability/replay, atomic writes,
backoff determinism and the failure taxonomy."""

from __future__ import annotations

import json
import os
from concurrent.futures import TimeoutError as FutureTimeout, process

import pytest

from repro.runtime import (
    DETERMINISTIC,
    JOURNAL_SCHEMA,
    TRANSIENT,
    BudgetExceeded,
    DeterministicError,
    JournalError,
    RunJournal,
    TransientError,
    atomic_write_json,
    backoff_delay,
    backoff_delays,
    classify_failure,
    config_fingerprint,
    is_timeout,
    journal_path,
    list_run_ids,
)
from repro.sim.functional import SimulationError
from repro.testing import PoisonedCellError

CONFIG = {"workloads": ["li"], "max_instructions": 1500}
CELLS = ["li/no_predict/selective", "li/lvp/selective"]


def _make(tmp_path, run_id="r1", cells=CELLS):
    return RunJournal.create(str(tmp_path), run_id, CONFIG, cells)


# ----------------------------------------------------------------------
# Fingerprint / paths
# ----------------------------------------------------------------------
def test_fingerprint_is_order_independent_and_value_sensitive():
    a = config_fingerprint({"x": 1, "y": [2, 3]})
    b = config_fingerprint({"y": [2, 3], "x": 1})
    c = config_fingerprint({"x": 1, "y": [2, 4]})
    assert a == b
    assert a != c


def test_journal_path_and_listing(tmp_path):
    journal = _make(tmp_path, "demo")
    assert journal.path == journal_path(str(tmp_path), "demo")
    assert journal.path.endswith("demo.journal.jsonl")
    assert list_run_ids(str(tmp_path)) == ["demo"]
    assert list_run_ids(str(tmp_path / "nonexistent")) == []


# ----------------------------------------------------------------------
# Create / append / replay
# ----------------------------------------------------------------------
def test_create_open_roundtrip(tmp_path):
    with _make(tmp_path) as journal:
        journal.record(CELLS[0], "ok", attempts=1, result={"ipc": 1.5})
        journal.record(CELLS[1], "failed", error="boom", error_kind=DETERMINISTIC)

    replayed = RunJournal.open(journal.path)
    assert replayed.header["schema"] == JOURNAL_SCHEMA
    assert replayed.run_id == "r1"
    assert replayed.config == CONFIG
    assert replayed.cells == CELLS
    assert not replayed.torn_tail
    assert replayed.status_of(CELLS[0]) == "ok"
    assert replayed.states()[CELLS[0]]["result"] == {"ipc": 1.5}
    assert replayed.states()[CELLS[1]]["error_kind"] == DETERMINISTIC


def test_create_refuses_existing_run_id(tmp_path):
    _make(tmp_path).close()
    with pytest.raises(JournalError, match="already exists"):
        _make(tmp_path)


def test_record_rejects_unknown_status(tmp_path):
    with _make(tmp_path) as journal:
        with pytest.raises(ValueError, match="unknown cell status"):
            journal.record(CELLS[0], "exploded")


def test_last_record_per_cell_wins(tmp_path):
    with _make(tmp_path) as journal:
        journal.record(CELLS[0], "failed", error="first try")
        journal.record(CELLS[0], "ok", attempts=2, result={"ipc": 2.0})
    replayed = RunJournal.open(journal.path)
    assert replayed.status_of(CELLS[0]) == "ok"
    assert replayed.states()[CELLS[0]]["attempts"] == 2


def test_counts_and_pending_cells(tmp_path):
    with _make(tmp_path) as journal:
        journal.record(CELLS[0], "ok", result={})
        assert journal.counts() == {"ok": 1, "pending": 1}
        # Never-touched header cells count as pending and must be re-run,
        # in header order.
        assert journal.pending_cells() == [CELLS[1]]
        journal.record(CELLS[1], "timeout", error="deadline")
        assert journal.pending_cells() == [CELLS[1]]
        assert journal.counts() == {"ok": 1, "timeout": 1}


def test_find_unknown_run_id_names_known_runs(tmp_path):
    _make(tmp_path, "known").close()
    with pytest.raises(JournalError, match="known"):
        RunJournal.find(str(tmp_path), "missing")


# ----------------------------------------------------------------------
# Crash model: torn tails vs real corruption
# ----------------------------------------------------------------------
def test_torn_final_line_is_tolerated(tmp_path):
    journal = _make(tmp_path)
    journal.record(CELLS[0], "ok", result={"ipc": 1.0})
    journal.close()
    with open(journal.path, "a") as handle:
        handle.write('{"type": "cell", "id": "li/lvp/sel')  # SIGKILL mid-append

    replayed = RunJournal.open(journal.path)
    assert replayed.torn_tail
    assert replayed.status_of(CELLS[0]) == "ok"
    assert replayed.status_of(CELLS[1]) is None  # torn record dropped


def test_torn_tail_is_truncated_before_next_append(tmp_path):
    """Appending after a torn tail must not glue records onto the fragment —
    that would turn a recoverable crash into permanent mid-file corruption."""
    journal = _make(tmp_path)
    journal.record(CELLS[0], "ok", result={})
    journal.close()
    with open(journal.path, "a") as handle:
        handle.write('{"type": "cell", "id": "li/lv')

    resumed = RunJournal.open(journal.path)
    resumed.record(CELLS[1], "ok", result={})
    resumed.close()

    final = RunJournal.open(journal.path)
    assert not final.torn_tail
    assert final.counts() == {"ok": 2}
    # Every line on disk is valid JSON again.
    with open(journal.path) as handle:
        for line in handle.read().splitlines():
            json.loads(line)


def test_torn_middle_line_is_corruption(tmp_path):
    journal = _make(tmp_path)
    journal.record(CELLS[0], "ok", result={})
    journal.close()
    lines = open(journal.path).read().splitlines()
    lines[1] = lines[1][: len(lines[1]) // 2]  # tear a *non-final* record
    lines.append(json.dumps({"type": "cell", "id": CELLS[1], "status": "ok"}))
    with open(journal.path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="corrupt record at line 2"):
        RunJournal.open(journal.path)


def test_open_rejects_foreign_schema_and_empty_file(tmp_path):
    path = tmp_path / "bogus.journal.jsonl"
    path.write_text(json.dumps({"type": "header", "schema": "other/9"}) + "\n")
    with pytest.raises(JournalError, match="not a repro-journal/1 journal"):
        RunJournal.open(str(path))
    path.write_text("")
    with pytest.raises(JournalError, match="empty journal"):
        RunJournal.open(str(path))


def test_verify_config_fingerprint(tmp_path):
    journal = _make(tmp_path)
    journal.verify_config(dict(CONFIG))  # same grid: fine
    with pytest.raises(JournalError, match="start a new run instead of resuming"):
        journal.verify_config({**CONFIG, "max_instructions": 9999})


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
def test_atomic_write_json_leaves_no_temp_files(tmp_path):
    target = tmp_path / "payload.json"
    atomic_write_json(str(target), {"a": 1})
    atomic_write_json(str(target), {"a": 2})  # overwrite is atomic too
    assert json.loads(target.read_text()) == {"a": 2}
    assert os.listdir(tmp_path) == ["payload.json"]


# ----------------------------------------------------------------------
# Backoff schedule
# ----------------------------------------------------------------------
def test_backoff_is_deterministic_per_seed():
    key = ("li", "lvp", "selective")
    assert backoff_delay(0, seed=key) == backoff_delay(0, seed=key)
    assert backoff_delay(0, seed=key) != backoff_delay(0, seed=("go", "lvp", "selective"))
    assert list(backoff_delays(3, seed=key)) == [backoff_delay(a, seed=key) for a in range(3)]


def test_backoff_grows_and_caps():
    base, cap = 0.05, 2.0
    for attempt in range(12):
        delay = backoff_delay(attempt, base=base, cap=cap, seed="cell")
        raw = min(cap, base * 2**attempt)
        # Jitter scales into [0.5, 1.0) of the raw exponential value.
        assert 0.5 * raw <= delay < raw
    with pytest.raises(ValueError):
        backoff_delay(-1)


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "exc, kind",
    [
        (FutureTimeout("worker deadline"), TRANSIENT),
        (process.BrokenProcessPool("pool died"), TRANSIENT),
        (ConnectionError("pipe"), TRANSIENT),
        (OSError("fork failed"), TRANSIENT),
        (TransientError("wrapped"), TRANSIENT),
        (PoisonedCellError("garbage result"), TRANSIENT),  # class-attr hook
        (SimulationError("bad opcode"), DETERMINISTIC),
        (BudgetExceeded("budget"), DETERMINISTIC),
        (DeterministicError("verifier said no"), DETERMINISTIC),
        (ValueError("anything else recurs on replay"), DETERMINISTIC),
    ],
)
def test_classify_failure(exc, kind):
    assert classify_failure(exc) == kind


def test_is_timeout():
    assert is_timeout(FutureTimeout("deadline"))
    assert is_timeout(TimeoutError("deadline"))
    assert not is_timeout(ValueError("nope"))


# ----------------------------------------------------------------------
# Multi-appender and adversarial replay edge cases (campaign service)
# ----------------------------------------------------------------------
def test_interleaved_records_from_two_appenders_replay_last_wins(tmp_path):
    """Two supervisors interleaving appends (two services resuming the same
    run) must still replay deterministically: per cell, the last record on
    disk wins, regardless of which appender wrote it."""
    journal = _make(tmp_path)
    journal.record(CELLS[0], "failed", error="appender A, attempt 1")
    journal.close()
    # Appender B (the second supervisor) writes directly, interleaving
    # records for both cells between A's.
    with open(journal.path, "a") as handle:
        handle.write(json.dumps({"type": "cell", "id": CELLS[1], "status": "ok",
                                 "result": {"ipc": 2.0}, "writer": "B"}) + "\n")
        handle.write(json.dumps({"type": "cell", "id": CELLS[0], "status": "ok",
                                 "result": {"ipc": 1.0}, "writer": "B"}) + "\n")
    resumed = RunJournal.open(journal.path)
    resumed.record(CELLS[1], "ok", attempts=2, result={"ipc": 3.0})  # A again, later
    resumed.close()

    final = RunJournal.open(journal.path)
    assert final.status_of(CELLS[0]) == "ok"
    assert final.states()[CELLS[0]]["result"] == {"ipc": 1.0}
    assert final.states()[CELLS[1]]["result"] == {"ipc": 3.0}  # latest append wins
    assert final.pending_cells() == []


def test_header_rewritten_mid_resume_is_refused(tmp_path):
    """If line 1 is rewritten between replay and append, appending would
    attach our records to a different run's identity — refuse loudly."""
    journal = _make(tmp_path)
    journal.record(CELLS[0], "ok", result={})
    journal.close()

    resumed = RunJournal.open(journal.path)  # replays, no append handle yet
    lines = open(journal.path).read().splitlines()
    header = json.loads(lines[0])
    header["run_id"] = "hijacked"
    lines[0] = json.dumps(header)
    with open(journal.path, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    with pytest.raises(JournalError, match="underneath an active resume"):
        resumed.record(CELLS[1], "ok", result={})


def test_header_replaced_with_garbage_mid_resume_is_refused(tmp_path):
    journal = _make(tmp_path)
    journal.close()
    resumed = RunJournal.open(journal.path)
    lines = open(journal.path).read().splitlines()
    lines[0] = '{"type": "header", "schema": '  # now unparseable
    with open(journal.path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(JournalError):
        resumed.record(CELLS[0], "ok", result={})


def test_event_notes_are_replayed_but_never_change_cell_state(tmp_path):
    journal = _make(tmp_path)
    journal.record(CELLS[0], "ok", result={})
    journal.note("cell_timeout", cell=CELLS[1], worker="d3")
    journal.note("pool_rebuilt", rebuilds=1)
    journal.close()

    replayed = RunJournal.open(journal.path)
    events = replayed.events()
    assert [e["event"] for e in events] == ["cell_timeout", "pool_rebuilt"]
    assert events[0]["cell"] == CELLS[1]
    # Notes are observability only: replayed cell state is untouched.
    assert replayed.status_of(CELLS[0]) == "ok"
    assert replayed.pending_cells() == [CELLS[1]]


# ----------------------------------------------------------------------
# Backoff total-elapsed deadline cap
# ----------------------------------------------------------------------
def test_backoff_deadline_caps_total_elapsed_delay():
    key = ("li", "lvp", "selective")
    unbounded = list(backoff_delays(10, seed=key))
    total = sum(unbounded)
    deadline = total / 2
    capped = list(backoff_delays(10, seed=key, deadline=deadline))
    assert sum(capped) <= deadline + 1e-9
    assert len(capped) < len(unbounded)
    # The schedule is a prefix of the unbounded one, with at most the last
    # delay clipped to the remaining budget.
    assert capped[:-1] == unbounded[: len(capped) - 1]
    assert capped[-1] <= unbounded[len(capped) - 1]


def test_backoff_deadline_zero_yields_no_retries():
    assert list(backoff_delays(5, seed="cell", deadline=0.0)) == []


def test_backoff_deadline_none_is_unbounded():
    key = "cell"
    assert list(backoff_delays(4, seed=key, deadline=None)) == list(backoff_delays(4, seed=key))


# ----------------------------------------------------------------------
# Directory durability (crash-rename POSIX discipline)
# ----------------------------------------------------------------------
def test_atomic_write_fsyncs_parent_directory(tmp_path, monkeypatch):
    """The rename is only durable once the parent directory entry is synced;
    regression-pin that atomic_write_text fsyncs the directory."""
    from repro.runtime import atomic as atomic_mod

    synced = []
    real = atomic_mod.fsync_directory
    monkeypatch.setattr(atomic_mod, "fsync_directory", lambda p: (synced.append(p), real(p)))
    atomic_mod.atomic_write_text(str(tmp_path / "x.json"), "{}")
    assert str(tmp_path) in synced


def test_ensure_durable_directory_creates_and_syncs_chain(tmp_path, monkeypatch):
    from repro.runtime import atomic as atomic_mod

    synced = []
    real = atomic_mod.fsync_directory
    monkeypatch.setattr(atomic_mod, "fsync_directory", lambda p: (synced.append(p), real(p)))
    target = tmp_path / "a" / "b" / "c"
    result = atomic_mod.ensure_durable_directory(str(target))
    assert result == str(target)
    assert target.is_dir()
    # Every newly created entry was fsynced in its parent, root-first.
    assert synced == [str(tmp_path), str(tmp_path / "a"), str(tmp_path / "a" / "b")]
    # Idempotent: nothing new to create, nothing new to sync.
    synced.clear()
    atomic_mod.ensure_durable_directory(str(target))
    assert synced == []


def test_journal_create_makes_out_dir_durably(tmp_path):
    out = tmp_path / "fresh" / "runs"
    journal = RunJournal.create(str(out), "r1", CONFIG, CELLS)
    journal.close()
    assert (out / "r1.journal.jsonl").exists()
