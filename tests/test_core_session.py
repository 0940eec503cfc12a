"""SimSession memoization, canonical cache keys, and suite campaigns on the
campaign supervisor (serial at ``jobs=1``, worker processes at ``jobs=2``)."""

from __future__ import annotations

import json

import pytest

from repro.core import (
    ExperimentRunner,
    SimSession,
    canonical_variant_key,
    get_metrics,
    get_session,
)
from repro.runtime import CampaignSpec, CampaignSupervisor, SuiteCell, run_campaign
from repro.runtime.service import derive_cell_timeout
from repro.uarch.pipeline import simulate

MAX_INSTS = 4_000


# ----------------------------------------------------------------------
# Canonical keys (the fix for the threshold cache-key asymmetry)
# ----------------------------------------------------------------------
def test_canonical_key_base_drops_threshold():
    assert canonical_variant_key("base", 0.8, 0.8) == ("base", None)
    assert canonical_variant_key("base", 0.5, 0.8) == ("base", None)
    assert canonical_variant_key("base", None, 0.8) == ("base", None)


def test_canonical_key_resolves_default_threshold():
    assert canonical_variant_key("srvp_dead", None, 0.8) == ("srvp_dead", 0.8)
    assert canonical_variant_key("srvp_dead", 0.8, 0.8) == ("srvp_dead", 0.8)
    assert canonical_variant_key("realloc", 0.5, 0.8) == ("realloc", 0.5)


def test_canonical_key_symmetric_across_threshold_spellings():
    """Regression: explicit-default and implicit-default spellings of the
    same variant MUST collide on one cache key for every srvp level (the
    seed bug keyed a trace as 'srvp_dead' but the program as 'srvp_dead@0.8',
    so the two spellings silently doubled the cache)."""
    for variant in ("srvp_same", "srvp_dead", "srvp_live", "srvp_live_lv", "realloc"):
        for default in (0.5, 0.8):
            implicit = canonical_variant_key(variant, None, default)
            explicit = canonical_variant_key(variant, default, default)
            assert implicit == explicit == (variant, default), (variant, default)
    # but a non-default explicit threshold is a distinct key
    assert canonical_variant_key("srvp_dead", 0.5, 0.8) != canonical_variant_key("srvp_dead", None, 0.8)
    # and base is threshold-free under every spelling
    assert canonical_variant_key("base", None, 0.8) == canonical_variant_key("base", 0.5, 0.8)


# ----------------------------------------------------------------------
# Identity caching
# ----------------------------------------------------------------------
def test_session_returns_identical_cached_objects():
    session = SimSession()
    w1 = session.workload("m88ksim", 1.0)
    w2 = session.workload("m88ksim", 1.0)
    assert w1 is w2

    t1 = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "base", None, 0.8)
    t2 = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "base", None, 0.8)
    assert t1 is t2
    assert isinstance(t1, tuple)

    p1 = session.train_artifacts("m88ksim", 1.0, MAX_INSTS)
    p2 = session.train_artifacts("m88ksim", 1.0, MAX_INSTS)
    assert p1 is p2


def test_base_trace_shared_across_thresholds():
    """'base' ignores the threshold, so any threshold maps to one trace."""
    session = SimSession()
    t1 = session.ref_trace("go", 1.0, MAX_INSTS, "base", None, 0.8)
    t2 = session.ref_trace("go", 1.0, MAX_INSTS, "base", None, 0.5)
    t3 = session.ref_trace("go", 1.0, MAX_INSTS, "base", 0.9, 0.8)
    assert t1 is t2 is t3


def test_variant_trace_none_threshold_resolves_to_default():
    session = SimSession()
    t_default = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "srvp_dead", None, 0.8)
    t_explicit = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "srvp_dead", 0.8, 0.8)
    assert t_default is t_explicit
    # Traces are keyed by program content: another threshold shares the
    # trace exactly when it marks the same loads (at 0.5 it does, at 0.95
    # it does not).
    shared = []
    for threshold in (0.5, 0.95):
        t_other = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "srvp_dead", threshold, 0.8)
        p_default = session.program_variant("m88ksim", 1.0, MAX_INSTS, "srvp_dead", None, 0.8)
        p_other = session.program_variant("m88ksim", 1.0, MAX_INSTS, "srvp_dead", threshold, 0.8)
        same = (p_other.instructions, p_other.procedures) == (p_default.instructions, p_default.procedures)
        assert (t_other is t_default) == same, threshold
        shared.append(same)
    assert shared == [True, False]


def test_second_runner_runs_zero_additional_sims():
    """Two runners on one workload share every functional-sim artifact."""
    session = SimSession()
    metrics = get_metrics()
    first = ExperimentRunner("ijpeg", max_instructions=MAX_INSTS, session=session)
    first.run("drvp_dead")
    runs_after_first = metrics.get("sim.runs")

    second = ExperimentRunner("ijpeg", max_instructions=MAX_INSTS, session=session)
    second.run("drvp_all_dead")
    assert metrics.get("sim.runs") == runs_after_first  # same train+ref, zero new sims


#: The Table-1 configurations that run the base program (no marked or
#: reallocated variant).
BASE_TABLE1_CONFIGS = (
    "no_predict", "lvp", "drvp", "drvp_dead", "drvp_dead_lv", "lvp_all", "grp_all",
    "drvp_all", "drvp_all_dead", "drvp_all_dead_lv", "stride_all", "context_all", "memren",
)


def test_one_stream_per_trace_across_predictors():
    """Streams carry no predictor state: every base-variant predictor of a
    workload shares the one stream of its ref trace."""
    session = SimSession()
    metrics = get_metrics()
    misses, hits = metrics.get("session.stream.misses"), metrics.get("session.stream.hits")
    runner = ExperimentRunner("go", max_instructions=MAX_INSTS, session=session)
    for config in BASE_TABLE1_CONFIGS:
        runner.run(config)
    assert metrics.get("session.stream.misses") - misses == 1
    assert metrics.get("session.stream.hits") - hits == len(BASE_TABLE1_CONFIGS) - 1
    assert session.cache_stats()["streams"] == 1


def test_gabbay_repeat_runs_are_identical():
    """Gabbay's routing table is filled per run by the overlay, so a second
    engine run on the cached stream reproduces the first exactly."""
    runner = ExperimentRunner("go", max_instructions=MAX_INSTS, session=SimSession())
    first, second = (
        simulate(None, predictor, runner.machine, stream=stream).counters()
        for stream, predictor in (runner.pipeline_stream("grp_all") for _ in range(2))
    )
    assert first == second
    assert first["predictions"] > 0


def test_runner_uses_global_session_by_default():
    runner = ExperimentRunner("li", max_instructions=MAX_INSTS)
    assert runner.session is get_session()


# ----------------------------------------------------------------------
# LRU bounding
# ----------------------------------------------------------------------
def test_trace_cache_lru_eviction():
    session = SimSession(trace_capacity=2)
    t_go = session.ref_trace("go", 1.0, MAX_INSTS, "base", None, 0.8)
    session.ref_trace("li", 1.0, MAX_INSTS, "base", None, 0.8)
    # Touch go so li becomes the LRU entry, then insert a third trace.
    assert session.ref_trace("go", 1.0, MAX_INSTS, "base", None, 0.8) is t_go
    session.ref_trace("ijpeg", 1.0, MAX_INSTS, "base", None, 0.8)
    assert len(session._traces) == 2
    assert session.content_key("go", 1.0, MAX_INSTS) in session._traces
    assert session.content_key("li", 1.0, MAX_INSTS) not in session._traces


# ----------------------------------------------------------------------
# Suite campaigns: serial mode vs worker processes
# ----------------------------------------------------------------------
SUITE_SPEC = CampaignSpec(
    workloads=("m88ksim", "li"),
    configs=("no_predict", "lvp_all"),
    max_instructions=2_000,
)


def _check_report(report):
    assert report.complete and not report.failures
    assert len(report.results) == len(SUITE_SPEC.cells()) == 4
    got = {(r.workload, r.config) for r in report.results}
    assert got == {(w, c) for w in SUITE_SPEC.workloads for c in SUITE_SPEC.configs}
    for result in report.results:
        assert result.ipc > 0


def _payloads(report):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in report.results]


@pytest.fixture(scope="module")
def suite_reports(tmp_path_factory):
    """The same grid at jobs=1 (in-process) and jobs=2 (worker processes)."""
    out = tmp_path_factory.mktemp("suite")
    return {
        jobs: run_campaign(SUITE_SPEC.with_jobs(jobs), str(out), run_id=f"jobs{jobs}")
        for jobs in (1, 2)
    }


def test_suite_runner_serial(suite_reports):
    report = suite_reports[1]
    _check_report(report)
    assert not report.used_processes


def test_suite_runner_parallel_smoke(suite_reports):
    report = suite_reports[2]
    _check_report(report)
    assert report.used_processes


def test_suite_runner_matches_serial_results(suite_reports):
    assert _payloads(suite_reports[2]) == _payloads(suite_reports[1])


def test_suite_cell_is_hashable():
    cell = SuiteCell("m88ksim", "no_predict", "selective")
    assert cell in {cell}


# ----------------------------------------------------------------------
# Content digests (the campaign's .batches.json drift sidecar)
# ----------------------------------------------------------------------
#: ``li``'s per-input sidecar entries in the older, untagged format: final-state
#: digests of MAX_INSTS-instruction runs.  Sidecars like this one are still
#: on disk, and a resume rewrites them.
LI_GOLDEN_DIGESTS = {
    "ref": {
        "digest": "d33e00fb44acbc69729d81166ef57da7ec23d7dbab62689fb597a50c1c55bf42",
        "instructions": 4_000,
        "halted": False,
    },
    "train": {
        "digest": "99673a120fc7fb1f30e447c6f7315e475f7972a82dbc17ec25aeb4fad94b7e65",
        "instructions": 4_000,
        "halted": False,
    },
}

#: ``li``'s content digests (base program text and input image) at scale 1.
#: Tagged sidecars hold these, so they change only with the program or inputs.
LI_CONTENT_DIGESTS = {
    "ref": "5f3b1e9d7db6b5f3a453d13e0d4efda38b08189382ac0bd66747f27834f32bfc",
    "train": "788a005c8553a3fc3c9c372dbc30ca90da6d93efa86f608b19c048a611937bdb",
}


def test_batch_digests_cached_and_scalar_consistent():
    session = SimSession()
    metrics = get_metrics()
    misses = metrics.get("session.batch.misses")
    runs = metrics.get("sim.runs")
    digests = session.batch_digests("li", 1.0)
    assert sorted(digests) == ["ref", "train"]
    assert metrics.get("session.batch.misses") == misses + 1
    assert session.cache_stats()["batch_digests"] == 1
    assert metrics.get("sim.runs") == runs  # content only: nothing simulated

    # Identity-cached on the canonical key.
    hits = metrics.get("session.batch.hits")
    assert session.batch_digests("li", 1.0) is digests
    assert metrics.get("session.batch.hits") == hits + 1

    assert digests == LI_CONTENT_DIGESTS


def test_batch_digests_key_includes_inputs():
    session = SimSession()
    base = session.batch_digests("li", 1.0)
    ref_only = session.batch_digests("li", 1.0, input_names=("ref",))
    assert ref_only is not base
    assert ref_only["ref"] == base["ref"]  # same content either way
    assert session.cache_stats()["batch_digests"] == 2
    session.reset()
    assert session.cache_stats()["batch_digests"] == 0


def test_resume_rewrites_untagged_batch_sidecar(tmp_path):
    from repro.core.session import reset_session
    from repro.runtime import RunJournal, journal_path, resume_campaign
    from repro.runtime.campaign import BATCH_SCHEMA, batch_sidecar_path

    spec = CampaignSpec(workloads=("li",), configs=("no_predict",), max_instructions=MAX_INSTS)
    run_campaign(spec, str(tmp_path), run_id="old")
    path = batch_sidecar_path(str(tmp_path), "old")
    with open(path, "w") as handle:
        json.dump({"li": LI_GOLDEN_DIGESTS}, handle)

    reset_session()
    runs = get_metrics().get("sim.runs")
    report = resume_campaign(str(tmp_path), "old", jobs=1)
    assert report.complete and report.restored == 1
    assert get_metrics().get("sim.runs") == runs
    with open(path) as handle:
        assert json.load(handle) == {"schema": BATCH_SCHEMA, "digests": {"li": LI_CONTENT_DIGESTS}}
    events = RunJournal.open(journal_path(str(tmp_path), "old")).events()
    notes = [e["was"] for e in events if e["event"] == "batch_sidecar_rewritten"]
    assert notes == ["untagged"]


# ----------------------------------------------------------------------
# Shared result store under a serial campaign (L2 beneath the session L1)
# ----------------------------------------------------------------------
def test_suite_runner_restores_from_store_without_resimulating(tmp_path):
    from repro.core.session import reset_session
    from repro.runtime.store import ResultStore

    store = ResultStore(str(tmp_path / "store"))
    report = run_campaign(SUITE_SPEC, str(tmp_path), run_id="cold", store=store)
    _check_report(report)
    assert report.store_hits == 0
    assert len(store) == 4  # every fresh result was published

    # Drop the in-process session L1 so only the persistent L2 can explain
    # a zero-simulation warm run, drift sidecar included.
    reset_session()
    runs_before = get_metrics().get("sim.runs")
    warm = run_campaign(SUITE_SPEC, str(tmp_path), run_id="warm", store=store)
    _check_report(warm)
    assert warm.store_hits == 4
    assert get_metrics().get("sim.runs") == runs_before  # zero re-simulation
    assert _payloads(warm) == _payloads(report)


def test_store_misses_after_a_workload_input_changes(tmp_path, monkeypatch):
    from repro.core.session import reset_session
    from repro.runtime.store import ResultStore
    from repro.workloads.suite import WORKLOAD_CLASSES

    store = ResultStore(str(tmp_path / "store"))
    run_campaign(SUITE_SPEC, str(tmp_path), run_id="before", store=store)

    li = WORKLOAD_CLASSES["li"]
    populate = li._populate_memory

    def populate_changed(self, memory, rng):
        populate(self, memory, rng)
        memory.store(0x8, 1)  # one word nothing else writes

    monkeypatch.setattr(li, "_populate_memory", populate_changed)
    reset_session()
    try:
        after = run_campaign(SUITE_SPEC, str(tmp_path), run_id="after", store=store)
    finally:
        reset_session()
    _check_report(after)
    # Only m88ksim's two cells are served; li's ran on the new input and
    # were published under new keys.
    assert after.store_hits == 2
    assert len(store) == 6


def test_suite_runner_retry_deadline_defaults_to_cell_timeout(tmp_path):
    supervisor = CampaignSupervisor(SUITE_SPEC, str(tmp_path))
    assert supervisor.retry_deadline == supervisor.cell_timeout
    assert supervisor.cell_timeout == derive_cell_timeout(SUITE_SPEC.max_instructions)
