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
    t_other = session.ref_trace("m88ksim", 1.0, MAX_INSTS, "srvp_dead", 0.5, 0.8)
    assert t_other is not t_default


def test_second_runner_runs_zero_additional_sims():
    """Two runners on one workload share every functional-sim artifact."""
    session = SimSession()
    metrics = get_metrics()
    first = ExperimentRunner("ijpeg", max_instructions=MAX_INSTS, session=session)
    first.run("no_predict")
    runs_after_first = metrics.get("sim.runs")

    second = ExperimentRunner("ijpeg", max_instructions=MAX_INSTS, session=session)
    second.run("lvp_all")
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
    run on the cached stream reproduces the first exactly."""
    runner = ExperimentRunner("go", max_instructions=MAX_INSTS, session=SimSession())
    first = runner.run("grp_all").stats.counters()
    second = runner.run("grp_all").stats.counters()
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
    assert ("go", 1.0, MAX_INSTS, "base", None, "ref") in session._traces
    assert ("li", 1.0, MAX_INSTS, "base", None, "ref") not in session._traces


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
# Functional digests (the campaign's .batches.json sidecar)
# ----------------------------------------------------------------------
#: ``li`` at MAX_INSTS, as written into sidecars by earlier versions (which
#: computed them on a since-removed engine).  Resume compares against stored
#: sidecars, so these values must never change.
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


def test_batch_digests_cached_and_scalar_consistent():
    session = SimSession()
    metrics = get_metrics()
    misses = metrics.get("session.batch.misses")
    digests = session.batch_digests("li", 1.0, MAX_INSTS)
    assert sorted(digests) == ["ref", "train"]
    assert metrics.get("session.batch.misses") == misses + 1
    assert session.cache_stats()["batch_digests"] == 1

    # Identity-cached on the canonical key.
    hits = metrics.get("session.batch.hits")
    assert session.batch_digests("li", 1.0, MAX_INSTS) is digests
    assert metrics.get("session.batch.hits") == hits + 1

    assert digests == LI_GOLDEN_DIGESTS


def test_batch_digests_key_includes_inputs_and_variant():
    session = SimSession()
    base = session.batch_digests("li", 1.0, MAX_INSTS)
    ref_only = session.batch_digests("li", 1.0, MAX_INSTS, input_names=("ref",))
    assert ref_only is not base
    assert ref_only["ref"] == base["ref"]  # same run outcome either way
    assert session.cache_stats()["batch_digests"] == 2
    session.reset()
    assert session.cache_stats()["batch_digests"] == 0


# ----------------------------------------------------------------------
# Shared result store under a serial campaign (L2 beneath the session L1)
# ----------------------------------------------------------------------
def test_suite_runner_restores_from_store_without_resimulating(tmp_path):
    from repro.core.session import reset_session
    from repro.runtime.campaign import compute_batch_digests
    from repro.runtime.store import ResultStore

    store = ResultStore(str(tmp_path / "store"))
    report = run_campaign(SUITE_SPEC, str(tmp_path), run_id="cold", store=store)
    _check_report(report)
    assert report.store_hits == 0
    assert len(store) == 4  # every fresh result was published

    # Drop the in-process session L1 so only the persistent L2 can explain
    # a zero-simulation warm run; the run's functional-digest sidecar is
    # recomputed up front, since it simulates whatever the cells do.
    reset_session()
    compute_batch_digests(SUITE_SPEC)
    runs_before = get_metrics().get("sim.runs")
    warm = run_campaign(SUITE_SPEC, str(tmp_path), run_id="warm", store=store)
    _check_report(warm)
    assert warm.store_hits == 4
    assert get_metrics().get("sim.runs") == runs_before  # zero re-simulation
    assert _payloads(warm) == _payloads(report)


def test_suite_runner_retry_deadline_defaults_to_cell_timeout(tmp_path):
    supervisor = CampaignSupervisor(SUITE_SPEC, str(tmp_path))
    assert supervisor.retry_deadline == supervisor.cell_timeout
    assert supervisor.cell_timeout == derive_cell_timeout(SUITE_SPEC.max_instructions)
