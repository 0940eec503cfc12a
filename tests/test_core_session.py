"""SimSession memoization, canonical cache keys, and suite campaigns on the
campaign supervisor (serial at ``jobs=1``, worker processes at ``jobs=2``)."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.core import (
    ExperimentRunner,
    SimSession,
    canonical_variant_key,
    get_metrics,
    get_session,
)
from repro.runtime import CampaignSpec, CampaignSupervisor, RunJournal, SuiteCell, run_campaign
from repro.runtime.service import derive_cell_timeout
from repro.uarch.pipeline import simulate
from repro.workloads.suite import WORKLOAD_CLASSES, make_workload

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


def _pool_dispatches(report):
    """Cells handed to a worker process (serial mode journals no dispatch)."""
    events = RunJournal.open(report.journal_path).events()
    return sum(1 for event in events if event["event"] == "dispatch")


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
    assert _pool_dispatches(report) == 0


def test_suite_runner_parallel_smoke(suite_reports):
    report = suite_reports[2]
    _check_report(report)
    assert _pool_dispatches(report) == len(SUITE_SPEC.cells())


def test_suite_runner_matches_serial_results(suite_reports):
    assert _payloads(suite_reports[2]) == _payloads(suite_reports[1])


def test_suite_cell_is_hashable():
    cell = SuiteCell("m88ksim", "no_predict", "selective")
    assert cell in {cell}


# ----------------------------------------------------------------------
# Content digests (pinned in each campaign's journal header)
# ----------------------------------------------------------------------
#: Every workload's content digests (base program text and input image) at
#: scale 1.  Journal headers and result-store keys hold these, so they change
#: only with a program or an input.
CONTENT_DIGESTS = {
    "dotprod": {
        "ref": "d2b794d983452154118343c7c717bfc4c54297177ec470a0ac678694e5b32db7",
        "train": "36fc907fd5c51754a7f8b3df590de3aec49cd470275fec2250c5958fd0564897",
    },
    "go": {
        "ref": "69c470e3035c83fa32c3bf23011fa57845600a5e67d425a6d17dbc937fd15176",
        "train": "27121d48d14ea325c40fa1a9b6905fc4f5aefbbf244001a2f1620b460a36654c",
    },
    "hydro2d": {
        "ref": "a24f7a94be3930e45636f1f0cd6e062ee231ac3ea73b590d981a257c60de4bc3",
        "train": "4743861f7b4849234a96d8257bc62ab30f876c4ddec6da1d2d2296e7a10ef62e",
    },
    "ijpeg": {
        "ref": "c4e255fb9a4e4d884cab6b4f5eb8ecbc846a8e43d81faf7a97d3aa1f3522d98d",
        "train": "6babaa50222337b80e2f11466205e5316eda30939dbedae1cc2f107f95743ede",
    },
    "li": {
        "ref": "5f3b1e9d7db6b5f3a453d13e0d4efda38b08189382ac0bd66747f27834f32bfc",
        "train": "788a005c8553a3fc3c9c372dbc30ca90da6d93efa86f608b19c048a611937bdb",
    },
    "m88ksim": {
        "ref": "0f67b47616a8ed196b5b4ae8a29d1139957818d107abfa1d043d80435d8bde05",
        "train": "a66e7256f63206bbb8dcd963b88f785a62dd6d339e357fbc07c3b8512c709a5c",
    },
    "mgrid": {
        "ref": "fcd21e90e4fe204bfd5ec397c006f0d4418813fc40533d276d7cd099cce3772e",
        "train": "f8498a96881ab5e44dd7e29d3e9e7b41763c7acfe6e4be7bf3e7f2bfdad34896",
    },
    "perl": {
        "ref": "070cf471eebbcea966234ee4d7dd2440109e439e7f48ae68a719ee0a43194d74",
        "train": "a7b971e9a0e06ef02b11d5f31b72a39653b87d7898435142a3bf0a07be9ef5a2",
    },
    "stencil": {
        "ref": "73ba0160a204c87e001f6082084688774c842a2e1b82d20ffa8987906bcae0d2",
        "train": "8c80ad2fce1f5202dfb41f9e07c811e5333d76b0af33fb8d07c3353499735acc",
    },
    "su2cor": {
        "ref": "d201e7f19777d54d48b50d97603be058fdb89d713d8f186e189a3fa667a3cbe1",
        "train": "dff5845a0fcebf057e4c5bcc4fa2b568b48bebb294fa74c31d9e31b89ad60bdc",
    },
    "turb3d": {
        "ref": "b01fc2394e427bff2d69caba406f17ffb3a7b6841edb3c2d8e491b69fe18cb7f",
        "train": "0f045a3cedf55d5aaa598bfee49b0fe21653dd712454738c60c22d42489884c5",
    },
}
LI_CONTENT_DIGESTS = CONTENT_DIGESTS["li"]


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


def test_batch_digests_of_every_workload_are_pinned():
    session = SimSession()
    assert {name: session.batch_digests(name, 1.0) for name in CONTENT_DIGESTS} == CONTENT_DIGESTS
    assert sorted(CONTENT_DIGESTS) == sorted(WORKLOAD_CLASSES)


def test_batch_digests_key_includes_inputs():
    session = SimSession()
    base = session.batch_digests("li", 1.0)
    ref_only = session.batch_digests("li", 1.0, input_names=("ref",))
    assert ref_only is not base
    assert ref_only["ref"] == base["ref"]  # same content either way
    assert session.cache_stats()["batch_digests"] == 2
    session.reset()
    assert session.cache_stats()["batch_digests"] == 0


# ----------------------------------------------------------------------
# Input images: built once per session, a fresh Memory per run
# ----------------------------------------------------------------------
def test_cold_suite_builds_each_input_image_once(tmp_path, monkeypatch):
    from repro.core.session import reset_session

    # Marked and reallocated variants run their own ref traces, next to the
    # train profile and the journal header's digests of both inputs.
    spec = CampaignSpec(
        workloads=("m88ksim", "li"),
        configs=("no_predict", "srvp_dead", "drvp_all_realloc"),
        max_instructions=3_000,
    ).with_jobs(1)
    built = Counter()
    for name in spec.workloads:
        cls = WORKLOAD_CLASSES[name]

        def counting(self, memory, rng, _populate=cls._populate_memory):
            built[self.name, rng.bit_generator.seed_seq.entropy] += 1
            _populate(self, memory, rng)

        monkeypatch.setattr(cls, "_populate_memory", counting)
    reset_session()
    try:
        report = run_campaign(spec, str(tmp_path), run_id="cold")
    finally:
        reset_session()
    assert report.complete and not report.failures and _pool_dispatches(report) == 0
    assert built == {
        (name, make_workload(name).seed(input_name)): 1
        for name in spec.workloads
        for input_name in ("ref", "train")
    }


def test_every_memory_is_an_independent_copy_of_the_image():
    from repro.sim import run_program

    workload = make_workload("li")
    pristine = make_workload("li").memory("ref")
    first = workload.memory("ref")
    first.store(0x8, 12345)
    assert workload.memory("ref").load(0x8) == 0
    run = run_program(workload.program, memory=workload.memory("ref"), max_instructions=3_000)
    assert run.memory != pristine  # the run stored something...
    assert workload.memory("ref") == pristine  # ...that the next run never sees
    assert workload.memory("ref") is not workload.memory("ref")


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
    # a zero-simulation warm run, header digests included.
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
