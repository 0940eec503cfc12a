"""Campaign orchestration: fresh runs, kill-mid-campaign, resume with zero
re-runs of committed cells, and the CLI surface (`repro run --out-dir/--resume`)."""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.cli import main
from repro.core.session import reset_session
from repro.runtime import (
    CampaignSpec,
    CampaignSupervisor,
    JournalError,
    RunJournal,
    config_fingerprint,
    deliver_sigterm_as_interrupt,
    journal_path,
    resume_campaign,
    run_campaign,
)
from repro.testing import CHAOS_INTERRUPT, CHAOS_SIM_FAULT, ChaosHarness, ChaosPolicy
from repro.workloads.suite import WORKLOAD_CLASSES, make_workload

MAX_INSTS = 1_500

SPEC = CampaignSpec(
    workloads=("li", "go"),
    configs=("no_predict", "lvp"),
    max_instructions=MAX_INSTS,
    jobs=2,
)


def _supervisor(tmp_path, policy=None, spec=SPEC):
    """A jobs=2 supervisor on a scripted chaos harness (in-process futures)."""
    harness = ChaosHarness(policy or ChaosPolicy())
    supervisor = CampaignSupervisor(spec, str(tmp_path), **harness.supervisor_kwargs())
    harness.attach(supervisor)
    return supervisor, harness


def _submissions(harness) -> int:
    return sum(len(executor.submitted) for executor in harness.executors)


# ----------------------------------------------------------------------
# Spec identity
# ----------------------------------------------------------------------
def test_spec_rejects_unknown_machine():
    with pytest.raises(ValueError, match="unknown machine"):
        CampaignSpec(workloads=("li",), configs=("lvp",), machine="warp9")


def test_spec_config_dict_excludes_jobs():
    # Parallelism never changes results, so resuming with another --jobs
    # must fingerprint identically.
    a = SPEC.config_dict()
    b = SPEC.with_jobs(16).config_dict()
    assert a == b
    assert "jobs" not in a
    rebuilt = CampaignSpec.from_config(a, jobs=3)
    assert rebuilt.config_dict() == a
    assert rebuilt.jobs == 3


def test_spec_from_config_requires_every_field():
    # Every journal header carries every config_dict key, so a header
    # missing one is not silently filled with defaults.
    config = SPEC.config_dict()
    for key in config:
        partial = {name: value for name, value in config.items() if name != key}
        with pytest.raises(KeyError, match=key):
            CampaignSpec.from_config(partial)


@pytest.mark.parametrize(
    "field,value",
    [
        ("max_instructions", 0),
        ("threshold", 1.5),
        ("workloads", ("nope",)),
        ("configs", ("bogus",)),
        ("recoveries", ("sideways",)),
    ],
)
def test_spec_rejects_out_of_range_fields(field, value):
    fields = {"workloads": ("li",), "configs": ("no_predict",), field: value}
    with pytest.raises(ValueError, match=field):
        CampaignSpec(**fields)


def test_spec_cell_ids_are_grid_ordered():
    assert SPEC.cell_ids() == [
        "li/no_predict/selective",
        "li/lvp/selective",
        "go/no_predict/selective",
        "go/lvp/selective",
    ]


# ----------------------------------------------------------------------
# Fresh run / trivial resume
# ----------------------------------------------------------------------
def test_fresh_campaign_completes_and_journals(tmp_path):
    supervisor, _ = _supervisor(tmp_path)
    report = supervisor.run(run_id="fresh")
    assert report.complete
    assert report.run_id == "fresh"
    assert report.counts() == {"ok": 4}
    assert report.executed == 4 and report.restored == 0 and not report.resumed
    assert [r.workload for r in report.results] == ["li", "li", "go", "go"]
    journal = RunJournal.open(report.journal_path)
    assert journal.counts() == {"ok": 4}
    # Every ok record embeds the serialized result resume will restore.
    assert all(entry["result"]["stats"] for entry in journal.states().values())


def test_resume_of_complete_run_restores_everything(tmp_path):
    run_campaign(SPEC.with_jobs(1), str(tmp_path), run_id="done")
    supervisor, harness = _supervisor(tmp_path)
    report = supervisor.resume("done")
    assert report.complete and report.resumed
    assert report.restored == 4 and report.executed == 0
    assert _submissions(harness) == 0  # nothing re-ran
    assert len(report.results) == 4


# ----------------------------------------------------------------------
# Kill mid-campaign → resume (the tentpole contract)
# ----------------------------------------------------------------------
def test_kill_mid_campaign_then_resume_reruns_only_uncommitted_cells(tmp_path):
    baseline = run_campaign(SPEC.with_jobs(1), str(tmp_path), run_id="baseline")

    # The scripted KeyboardInterrupt stands in for Ctrl-C/SIGTERM landing
    # while cell 2 is in flight: cells 0 and 1 have committed, 2 and 3 not.
    killer, harness = _supervisor(tmp_path, ChaosPolicy(script={2: CHAOS_INTERRUPT}))
    with pytest.raises(KeyboardInterrupt):
        killer.run(run_id="killed")
    # The unwind cancelled queued futures instead of waiting on them.
    assert (False, True) in harness.executors[0].shutdown_calls

    interrupted = RunJournal.find(str(tmp_path), "killed")
    assert interrupted.counts() == {"ok": 2, "pending": 2}
    assert interrupted.pending_cells() == SPEC.cell_ids()[2:]

    resumer, harness = _supervisor(tmp_path)
    report = resumer.resume("killed")
    assert report.complete and report.resumed
    assert report.restored == 2 and report.executed == 2
    assert _submissions(harness) == 2  # zero re-runs of committed cells
    # The resumed campaign is indistinguishable from the uninterrupted one.
    assert [r.stats for r in report.results] == [r.stats for r in baseline.results]


def test_resume_reruns_failed_cells(tmp_path):
    # A deterministic simulator fault fails cell 0 fast; the campaign is
    # partial (exit-code-2 territory), and resume re-executes exactly it.
    faulty, harness = _supervisor(tmp_path, ChaosPolicy(script={0: CHAOS_SIM_FAULT}))
    report = faulty.run(run_id="partial")
    assert not report.complete
    assert report.counts() == {"ok": 3, "failed": 1}
    failed_id = SPEC.cell_ids()[0]
    assert "SimulationError" in report.failures[failed_id]
    assert report.failure_kinds[failed_id] == "deterministic"
    assert _submissions(harness) == 4  # one attempt: a deterministic fault is final
    assert RunJournal.find(str(tmp_path), "partial").states()[failed_id]["attempts"] == 1

    resumed = resume_campaign(str(tmp_path), "partial", jobs=1)
    assert resumed.complete
    assert resumed.restored == 3 and resumed.executed == 1


def test_resume_rejects_changed_grid(tmp_path):
    run_campaign(SPEC.with_jobs(1), str(tmp_path), run_id="grid")
    changed = CampaignSpec(
        workloads=("li", "go"), configs=("no_predict", "lvp"),
        max_instructions=MAX_INSTS * 2, jobs=2,
    )
    with pytest.raises(JournalError, match="fingerprint mismatch"):
        resume_campaign(str(tmp_path), "grid", spec=changed)


def test_resume_unknown_run_id(tmp_path):
    with pytest.raises(JournalError, match="no journal for run id"):
        resume_campaign(str(tmp_path), "ghost")


def test_sigterm_takes_the_interrupt_exit_ramp():
    before = signal.getsignal(signal.SIGTERM)
    with pytest.raises(KeyboardInterrupt, match=str(int(signal.SIGTERM))):
        with deliver_sigterm_as_interrupt():
            signal.raise_signal(signal.SIGTERM)
    # Whatever handler was installed before the context is back afterwards.
    assert signal.getsignal(signal.SIGTERM) is before


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_campaign_run_and_resume(tmp_path, capsys):
    argv = [
        "run", "--workload", "li", "--config", "no_predict", "lvp",
        "--max-insts", str(MAX_INSTS), "--out-dir", str(tmp_path), "--run-id", "demo",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign demo (run): 2/2 cells ok" in out
    assert "speedups" in out  # no_predict present -> speedup table renders

    with open(journal_path(str(tmp_path), "demo")) as handle:
        header = json.loads(handle.readline())
    assert header["schema"] == "repro-journal/1"

    assert main(["run", "--resume", "demo", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "campaign demo (resumed): 2/2 cells ok, 2 restored" in out


def test_cli_resume_requires_out_dir(capsys):
    assert main(["run", "--resume", "demo"]) == 2
    assert "--resume requires --out-dir" in capsys.readouterr().err


def test_cli_campaign_requires_workload(tmp_path, capsys):
    assert main(["run", "--out-dir", str(tmp_path)]) == 2
    assert "--workload" in capsys.readouterr().err


def test_cli_resume_unknown_run_id_exits_two(tmp_path, capsys):
    assert main(["run", "--resume", "ghost", "--out-dir", str(tmp_path)]) == 2
    assert "no journal for run id" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Content digests in the journal header (one set per workload)
# ----------------------------------------------------------------------
@pytest.fixture
def fresh_session():
    """A clean process-wide session before and after a test that patches a
    workload class, so no cached program or image outlives the patch."""
    reset_session()
    yield
    reset_session()


def _rewrite_header(out_dir, run_id, edit):
    """Apply ``edit`` to a journal header's config and re-fingerprint it, as
    another build of the program would have written it."""
    path = journal_path(str(out_dir), run_id)
    with open(path) as handle:
        lines = handle.read().splitlines(keepends=True)
    header = json.loads(lines[0])
    edit(header["config"])
    header["fingerprint"] = config_fingerprint(header["config"])
    lines[0] = json.dumps(header, sort_keys=True) + "\n"
    with open(path, "w") as handle:
        handle.writelines(lines)


def test_fresh_campaign_pins_batch_digests_in_header(tmp_path):
    report = run_campaign(SPEC.with_jobs(1), str(tmp_path), run_id="fused")
    assert sorted(report.batch_digests) == ["go", "li"]
    journal = RunJournal.find(str(tmp_path), "fused")
    assert journal.config == {**SPEC.config_dict(), "batch_digests": report.batch_digests}
    assert journal.header["fingerprint"] == config_fingerprint(journal.config)
    for per_input in report.batch_digests.values():
        assert sorted(per_input) == ["ref", "train"]
        for digest in per_input.values():
            assert len(digest) == 64  # sha256 hex
    assert os.listdir(tmp_path) == ["fused.journal.jsonl"]  # one file per run


def test_resume_verifies_header_digests_without_reruns(tmp_path):
    run_campaign(SPEC.with_jobs(1), str(tmp_path), run_id="fused")
    supervisor, harness = _supervisor(tmp_path)
    report = supervisor.resume("fused")
    assert report.complete and _submissions(harness) == 0
    assert sorted(report.batch_digests) == ["go", "li"]


def test_resume_of_a_header_without_digests_exits_two(tmp_path, capsys):
    # Journals written before the digests moved into the header lack them.
    argv = ["run", "--workload", "li", "--config", "no_predict", "--max-insts", str(MAX_INSTS),
            "--out-dir", str(tmp_path), "--run-id", "old"]
    assert main(argv) == 0
    capsys.readouterr()
    _rewrite_header(tmp_path, "old", lambda config: config.pop("batch_digests"))
    with pytest.raises(JournalError, match="no batch digests"):
        resume_campaign(str(tmp_path), "old", jobs=1)
    assert main(["run", "--resume", "old", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "repro: journal of run 'old' has no batch digests" in err
    assert "internal error" not in err


def _drift_header(out_dir, run_id):
    def drift(config):
        config["batch_digests"]["li"]["ref"] = "0" * 64

    _rewrite_header(out_dir, run_id, drift)


def test_resume_refuses_drifted_batch_digest(tmp_path):
    run_campaign(SPEC.with_jobs(1), str(tmp_path), run_id="drift")
    _drift_header(tmp_path, "drift")
    with pytest.raises(JournalError, match="batch digest mismatch.*li"):
        resume_campaign(str(tmp_path), "drift", jobs=2)


def test_resume_refuses_changed_program(tmp_path, monkeypatch, fresh_session):
    run_campaign(SPEC.with_jobs(1), str(tmp_path), run_id="drift")
    reset_session()
    # li now builds go's program: same inputs, other text.
    monkeypatch.setattr(WORKLOAD_CLASSES["li"], "_build_program", lambda self: make_workload("go").program)
    with pytest.raises(JournalError, match="batch digest mismatch.*workload\\(s\\) li changed"):
        resume_campaign(str(tmp_path), "drift", jobs=1)


def test_resume_refuses_changed_input(tmp_path, monkeypatch, fresh_session):
    run_campaign(SPEC.with_jobs(1), str(tmp_path), run_id="drift")
    reset_session()
    li = WORKLOAD_CLASSES["li"]
    populate = li._populate_memory

    def populate_changed(self, memory, rng):
        populate(self, memory, rng)
        memory.store(0x8, 1)  # one word nothing else writes

    monkeypatch.setattr(li, "_populate_memory", populate_changed)
    with pytest.raises(JournalError, match="batch digest mismatch.*workload\\(s\\) li changed"):
        resume_campaign(str(tmp_path), "drift", jobs=1)


def test_cli_resume_reports_drifted_batch_digest(tmp_path, capsys):
    argv = ["run", "--workload", "li", "--config", "no_predict", "--max-insts", str(MAX_INSTS),
            "--out-dir", str(tmp_path), "--run-id", "drift"]
    assert main(argv) == 0
    capsys.readouterr()
    _drift_header(tmp_path, "drift")
    assert main(["run", "--resume", "drift", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "repro: batch digest mismatch" in err
    assert "internal error" not in err


def test_cli_resume_of_a_journal_without_a_grid_exits_two(tmp_path, capsys):
    # `repro fuzz --out-dir` journals share the directory layout but not the grid.
    RunJournal.create(str(tmp_path), "fuzz-seed0", {"kind": "fuzz", "seed": 0}, ["seed0"]).close()
    assert main(["run", "--resume", "fuzz-seed0", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "does not describe a campaign grid" in err and "internal error" not in err


# ----------------------------------------------------------------------
# Service CLI surface (--jobs / --store)
# ----------------------------------------------------------------------
def test_cli_run_with_workers_uses_supervised_service(tmp_path, capsys):
    store_dir = tmp_path / "store"
    argv = [
        "run", "--workload", "li", "--config", "no_predict", "lvp",
        "--max-insts", str(MAX_INSTS), "--out-dir", str(tmp_path / "runs"),
        "--run-id", "svc", "--jobs", "2", "--store", str(store_dir),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "campaign svc (run): 2/2 cells ok" in out
    # Fresh results were published to the shared store...
    assert any(store_dir.rglob("*.json"))

    # ...and a second campaign over the same grid is served from it.
    argv2 = argv[:]
    argv2[argv2.index("svc")] = "svc2"
    assert main(argv2) == 0
    out = capsys.readouterr().out
    assert "campaign svc2 (run): 2/2 cells ok, 2 from store" in out


@pytest.mark.parametrize("command", ["run", "suite"])
@pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--jobs", "-3")])
def test_cli_rejects_nonpositive_jobs(tmp_path, capsys, command, flag, value):
    argv = [command, flag, value, "--out-dir", str(tmp_path / "runs")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "internal error" not in err
    assert not (tmp_path / "runs").exists()  # rejected before anything ran
