"""Fast timing tier: golden fast==reference stats matrix over the full
workload suite with its rename and resolve mutation self-tests, the fast
tier's independence from the reference recovery path, event-heap
ordering/validity, FastDynInst pool hygiene, and the pipeline-equivalence
oracle's mutation self-tests."""

import heapq
from dataclasses import replace

import pytest

from repro.core.experiment import ExperimentRunner
from repro.core.session import SimSession
from repro.sim import run_program
from repro.testing import ORACLES, OracleViolation, generate_case
from repro.uarch import fast as fast_mod
from repro.uarch.fast import FastDynInst, FastPipelineSimulator
from repro.uarch.pipeline import _DONE, _ISSUED, DynInst, PipelineSimulator, simulate
from repro.uarch.recovery import RecoveryScheme
from repro.uarch.config import table1_config
from repro.vp import DynamicRVP, LastValuePredictor, NoPredictor
from repro.workloads import all_workloads

CFG = table1_config()
WORKLOADS = tuple(w.name for w in all_workloads())

#: One stream-cached SimSession for the whole module: traces, profiles and
#: prepared streams are built once per workload, not once per matrix cell.
SESSION = SimSession()

# The stream-preparation shapes and rename branches the fast tier must
# reproduce bit-for-bit: the no-predictor baseline, same-register RVP on
# the base program, a profile-marked static variant, a reallocated
# variant, register-sourced and ideal last-value (non-table STORED) hints,
# table-backed STORED predictions of non-loads, and memory renaming's
# store snooping at rename.
MATRIX_CONFIGS = (
    "no_predict",
    "drvp",
    "srvp_dead",
    "drvp_all_realloc",
    "drvp_all_dead_lv",
    "lvp_all",
    "memren",
)

#: A Table 1 machine with one prediction read port: register-based
#: predictions of non-loads compete for it.  One config that makes such
#: predictions also runs on it.
ONE_PORT = replace(CFG, pred_ports=1)
PORT_LIMITED_CONFIGS = ("drvp_all_dead_lv",)


def trace_of(program, memory=None, budget=50_000):
    return run_program(program, memory=memory, max_instructions=budget, collect_trace=True).trace


@pytest.fixture(scope="module")
def squashy_trace():
    """A real-workload trace whose value predictions actually mispredict:
    REFETCH + LVP on dotprod squashes ~15 times in 3000 instructions."""
    runner = ExperimentRunner("dotprod", max_instructions=3_000, session=SESSION)
    return runner.ref_trace("base")


# ----------------------------------------------------------------------
# Golden matrix: fast counters == reference counters, cell for cell
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_fast_matches_reference_matrix(workload):
    # 3000 instructions is the smallest budget at which the reallocated
    # variant passes program verification on every workload (li's profile
    # is degenerate below that).
    runner = ExperimentRunner(workload, max_instructions=3_000, session=SESSION)
    for config in MATRIX_CONFIGS:
        machines = (CFG, ONE_PORT) if config in PORT_LIMITED_CONFIGS else (CFG,)
        for machine in machines:
            for scheme in RecoveryScheme:
                counters = _cell_counters(runner, config, machine, scheme)
                assert counters["fast"] == counters["reference"], (
                    f"{workload}/{config}/pred_ports={machine.pred_ports}/"
                    f"{scheme.value}: fast tier diverged"
                )


def _cell_counters(runner, config, machine, scheme):
    """Both engines' counters for one matrix cell, each on a fresh
    predictor over the session's shared stream."""
    counters = {}
    for engine in ("reference", "fast"):
        stream, predictor = runner.pipeline_stream(config)
        counters[engine] = simulate(
            None, predictor, machine, scheme, engine=engine, stream=stream
        ).counters()
    return counters


# ----------------------------------------------------------------------
# Rename and resolve mutation self-tests: each seeded bug fails a matrix
# cell
# ----------------------------------------------------------------------
_REAL_SPEC_RENAME = FastPipelineSimulator._spec_rename
_REAL_PREDICT = FastPipelineSimulator._predict
_REAL_FAST_RESOLVE = FastPipelineSimulator._fast_resolve


def _clear_dep_fix(self, inst, port_available):
    used = _REAL_SPEC_RENAME(self, inst, port_available)
    inst.dep_fix = []
    return used


def _keep_direct_spec_on(self, inst, port_available):
    used = _REAL_SPEC_RENAME(self, inst, port_available)
    inst.spec_on = {seq for seq in inst.spec_on if seq in inst.entry.dep_seqs}
    return used


def _ignore_port_limit(self, inst, port_available):
    return _REAL_PREDICT(self, inst, True)


#: mutant -> (method it replaces, wrapper of the real method, the matrix
#: cell it must break: workload, config, machine, recovery scheme)
RENAME_MUTANTS = {
    "dep_fix cleared": (
        "_spec_rename",
        _clear_dep_fix,
        ("hydro2d", "drvp", CFG, RecoveryScheme.REISSUE),
    ),
    "inherited spec_on dropped": (
        "_spec_rename",
        _keep_direct_spec_on,
        ("m88ksim", "lvp_all", CFG, RecoveryScheme.SELECTIVE),
    ),
    # _predict is the one prediction decision of both rename paths.
    "port limit ignored": (
        "_predict",
        _ignore_port_limit,
        ("go", "drvp_all_dead_lv", ONE_PORT, RecoveryScheme.SELECTIVE),
    ),
}


def _keep_spec_on_when_correct(self, pred):
    # A correct prediction leaves its seq in its consumers' spec_on.
    pseq = pred.entry.seq
    held = [c for c in pred.spec_consumers if pseq in c.spec_on] if pred.pred_correct else []
    _REAL_FAST_RESOLVE(self, pred)
    if pred.resolved:
        for consumer in held:
            consumer.spec_on.add(pseq)


def _skip_selective_repair(self, pred):
    # A selective mispredict resets its consumers without the dep_fix repair.
    if pred.pred_correct or self.recovery is not RecoveryScheme.SELECTIVE:
        return _REAL_FAST_RESOLVE(self, pred)
    stale = [(c, list(c.deps)) for c in pred.spec_consumers]
    _REAL_FAST_RESOLVE(self, pred)
    for consumer, deps in stale:
        consumer.deps = deps


def _skip_reissue_release_scan(self, pred):
    # A REISSUE mispredict frees no IQ entry.  Nothing else in that path
    # releases one, so undoing every release undoes exactly the scan.
    if pred.pred_correct or self.recovery is not RecoveryScheme.REISSUE:
        return _REAL_FAST_RESOLVE(self, pred)
    held = [inst for inst in self.rob if not inst.iq_released]
    _REAL_FAST_RESOLVE(self, pred)
    for inst in held:
        if inst.iq_released:
            inst.iq_released = False
            self.iq_used[inst.entry.iq] += 1


RESOLVE_MUTANTS = {
    "correct prediction keeps spec_on": (
        "_fast_resolve",
        _keep_spec_on_when_correct,
        ("go", "drvp", CFG, RecoveryScheme.SELECTIVE),
    ),
    "selective mispredict skips dep_fix repair": (
        "_fast_resolve",
        _skip_selective_repair,
        ("hydro2d", "drvp", CFG, RecoveryScheme.SELECTIVE),
    ),
    "reissue mispredict skips release scan": (
        "_fast_resolve",
        _skip_reissue_release_scan,
        ("go", "drvp", CFG, RecoveryScheme.REISSUE),
    ),
}


@pytest.mark.parametrize("mutant", RENAME_MUTANTS)
def test_matrix_detects_rename_mutant(monkeypatch, mutant):
    _assert_mutant_breaks_cell(monkeypatch, mutant, *RENAME_MUTANTS[mutant])


@pytest.mark.parametrize("mutant", RESOLVE_MUTANTS)
def test_matrix_detects_resolve_mutant(monkeypatch, mutant):
    _assert_mutant_breaks_cell(monkeypatch, mutant, *RESOLVE_MUTANTS[mutant])


def _assert_mutant_breaks_cell(monkeypatch, mutant, method, wrapper, cell):
    workload, config, machine, scheme = cell
    assert config in MATRIX_CONFIGS
    assert machine is CFG or config in PORT_LIMITED_CONFIGS
    monkeypatch.setattr(FastPipelineSimulator, method, wrapper)
    runner = ExperimentRunner(workload, max_instructions=3_000, session=SESSION)
    try:
        counters = _cell_counters(runner, config, machine, scheme)
    except RuntimeError as exc:
        # A machine the mutant wedges trips the engine's deadlock check:
        # the cell fails either way.
        assert "deadlock" in str(exc), exc
        return
    assert counters["fast"] != counters["reference"], (
        f"{mutant}: {workload}/{config}/pred_ports={machine.pred_ports}/"
        f"{scheme.value} did not diverge"
    )


# ----------------------------------------------------------------------
# The fast tier owns its recovery path
# ----------------------------------------------------------------------
def _refuse(*args, **kwargs):
    raise AssertionError("the fast tier called the reference recovery path")


@pytest.mark.parametrize("scheme", list(RecoveryScheme))
def test_fast_tier_never_calls_reference_recovery(monkeypatch, squashy_trace, scheme):
    reference = simulate(squashy_trace, LastValuePredictor(), CFG, scheme, engine="reference")
    for name in ("_try_resolve", "_resolve", "_repair_and_reset", "_repair_deps", "_reset_inst"):
        monkeypatch.setattr(PipelineSimulator, name, _refuse)
    monkeypatch.setattr(DynInst, "reset", _refuse)
    fast = simulate(squashy_trace, LastValuePredictor(), CFG, scheme, engine="fast")
    assert fast.predictions > fast.correct_predictions > 0, "case must mispredict"
    assert fast.counters() == reference.counters()


#: Cells where a selectively reset instruction reissues and completes in
#: the cycle of its own stale event: it must complete at its new event's
#: place in the bucket, after older instructions queued in between, not at
#: the stale event's.  (program, scale, budget, config), all under
#: selective reissue.
SAME_CYCLE_REISSUE_CELLS = (
    ("li", 1.0, 3_000, "stride_all"),
    ("li", 1.0, 1_000, "stride"),
    ("li", 1.0, 1_000, "stride_all"),
    ("hydro2d", 4, 80_000, "lvp_all"),
)


@pytest.mark.parametrize("program,scale,budget,config", SAME_CYCLE_REISSUE_CELLS)
def test_same_cycle_reissue_completes_in_reference_order(program, scale, budget, config):
    runner = ExperimentRunner(program, scale=scale, max_instructions=budget, session=SESSION)
    counters = {}
    for engine in ("reference", "fast"):
        stream, predictor = runner.pipeline_stream(config)
        counters[engine] = simulate(
            None, predictor, runner.machine, RecoveryScheme.SELECTIVE, engine=engine, stream=stream
        ).counters()
    assert counters["fast"] == counters["reference"]


# ----------------------------------------------------------------------
# Event heap: ordering, lazy cleaning, stale-event validity
# ----------------------------------------------------------------------
class _SpyCompletions(dict):
    """Records the cycles at which the completion stage drained a live
    event bucket (``pop`` returning a batch, not None)."""

    def __init__(self):
        super().__init__()
        self.drained = []

    def pop(self, key, default=None):
        batch = super().pop(key, default)
        if batch is not None:
            self.drained.append(key)
        return batch


def _fast_sim(trace, predictor=None, recovery=RecoveryScheme.SELECTIVE):
    return FastPipelineSimulator(trace, predictor or NoPredictor(), CFG, recovery)


def test_completion_events_drain_in_cycle_order(tiny_loop_program, tiny_loop_memory):
    trace = trace_of(tiny_loop_program, tiny_loop_memory)
    sim = _fast_sim(trace)
    spy = _SpyCompletions()
    sim.completions = spy  # installed before run(): _run hoists this object
    sim.run()
    assert spy.drained, "a loop of loads must schedule completion events"
    assert spy.drained == sorted(spy.drained)
    assert len(spy.drained) == len(set(spy.drained)), "each bucket drains once"
    # Post-run: every drained bucket is gone; any heap residue is stale
    # (exactly the keys the lazy cleaner is allowed to leave behind).
    assert all(key not in sim.completions for key in spy.drained)
    assert all(key not in sim.completions for key in sim._comp_heap)


def test_next_active_cycle_cleans_stale_heap_keys(tiny_loop_program, tiny_loop_memory):
    trace = trace_of(tiny_loop_program, tiny_loop_memory)
    sim = _fast_sim(trace)
    inst = FastDynInst(sim.stream[0])
    inst.state = _ISSUED
    sim.completions[12] = [(inst, inst.gen)]
    for key in (5, 7, 12):  # 5 and 7 are stale: not in completions
        heapq.heappush(sim._comp_heap, key)
    sim.fetch_cursor = len(sim.stream)  # disable the fetch wake source
    assert sim._next_active_cycle(max_cycles=1_000) == 12
    assert sim._comp_heap[0] == 12, "stale keys are popped during the scan"


def test_next_active_cycle_wakes_on_fetch_resume(tiny_loop_program, tiny_loop_memory):
    trace = trace_of(tiny_loop_program, tiny_loop_memory)
    sim = _fast_sim(trace)
    sim.fetch_resume = 37  # pending L1I miss fill, nothing else in flight
    assert sim._next_active_cycle(max_cycles=1_000) == 37


def test_next_active_cycle_deadlock_horizon(tiny_loop_program, tiny_loop_memory):
    trace = trace_of(tiny_loop_program, tiny_loop_memory)
    sim = _fast_sim(trace)
    sim.fetch_stalled_on = 0  # redirect stall with no wake source at all
    assert sim._next_active_cycle(max_cycles=1_000) == 1_001


def test_squash_invalidates_pending_events(squashy_trace):
    # Events carry the gen they were queued under: squashed incarnations
    # must not match it for any still-queued event.
    sim = _fast_sim(squashy_trace, LastValuePredictor(), RecoveryScheme.REFETCH)
    stats = sim.run()
    assert stats.value_squashes > 0, "case must actually exercise squashes"
    live = {id(inst) for inst in sim.window.values()}
    for batch in sim.completions.values():
        for inst, gen in batch:
            if inst.state == _ISSUED and inst.gen == gen:
                # The only events that would still fire belong to live
                # windowed incarnations; every squashed/reused incarnation
                # fails the gen check and is skipped as stale.
                assert id(inst) in live


# ----------------------------------------------------------------------
# FastDynInst pool reset hygiene
# ----------------------------------------------------------------------
def test_reset_restores_wakeup_defaults(tiny_loop_program, tiny_loop_memory):
    # Fetch's acquire site resets a dirty pool entry field by field.  Seed
    # the pool with one dirty entry whose every speculative and wakeup
    # field is stale: the first fetch takes it, and a predictor-free run
    # never dirties it again, so each stale field still set at the end
    # was missed at acquire.
    trace = trace_of(tiny_loop_program, tiny_loop_memory)
    reference = simulate(trace, NoPredictor(), CFG, engine="reference")
    sim = _fast_sim(trace)
    inst = FastDynInst(sim.stream[0])
    other = FastDynInst(sim.stream[1])
    inst.waiters.append(other)
    inst.in_cand = True
    inst.dirty = True
    inst.gen = 7
    inst.dep_fix = [(0, 1)]
    inst.spec_on = {1}
    inst.spec_consumers = [other]
    inst.predicted = inst.pred_correct = True
    inst.resolved = False
    inst.pred_value_dep = inst.first_use = 1
    sim._pool.append(inst)
    assert sim.run().counters() == reference.counters()
    assert inst in sim._pool, "every instruction commits back to the pool"
    assert inst.waiters == [] and inst.in_cand is False
    assert inst.dirty is False
    assert not inst.dep_fix and not inst.spec_on and not inst.spec_consumers
    assert inst.predicted is False and inst.resolved is True and inst.pred_correct is False
    assert inst.pred_value_dep is None and inst.first_use is None
    # gen is monotonic across reuse: every acquire bumps it.
    assert inst.gen > 7


def test_pool_entries_are_clean_or_marked_dirty(squashy_trace):
    # A squash-heavy run (REFETCH + a mispredicting LVP) recycles both
    # committed instructions and squash victims.  Committed plain-lifecycle
    # entries must satisfy the fast-path acquire assumptions; everything
    # else must carry the dirty flag that makes acquire reset its
    # speculative fields.
    sim = _fast_sim(squashy_trace, LastValuePredictor(), RecoveryScheme.REFETCH)
    stats = sim.run()
    assert stats.value_squashes > 0, "case must actually exercise squashes"
    assert sim._pool, "commit/squash must return instructions to the pool"
    assert any(inst.dirty for inst in sim._pool), "squash victims reach the pool"
    for inst in sim._pool:
        if inst.dirty:
            continue  # acquire resets the speculative fields
        # Acquire rewrites only entry/gen/state/min_issue/complete_cycle of
        # a clean entry — the rest must already be at defaults.  (train is
        # not: a clean candidate keeps its last one, which every
        # candidate's rename rewrites before completion reads it.)
        assert not inst.waiters, "pooled clean producers must not pin consumers"
        assert not inst.in_cand
        assert inst.state == _DONE
        assert inst.predicted is False and inst.resolved
        assert not inst.dep_fix
        assert not inst.spec_on and not inst.spec_consumers
        assert inst.iq_released


class _NeverConfident(DynamicRVP):
    """drvp_all whose confidence never reaches the threshold."""

    def confident(self, pc):
        return False


@pytest.mark.parametrize("scheme", list(RecoveryScheme))
def test_unpredicted_candidates_stay_clean(squashy_trace, scheme):
    # With no prediction there is no speculative state: every candidate
    # renames on the clean path, only decides its prediction, and returns
    # to the pool clean.
    sim = FastPipelineSimulator(squashy_trace, _NeverConfident(), CFG, scheme)
    stats = sim.run()
    assert any(kind is not None for kind in sim.overlay.kind), "case must have candidates"
    assert stats.predictions == 0 and stats.value_squashes == 0
    assert sim._pool and not any(inst.dirty for inst in sim._pool)
    reference = simulate(squashy_trace, _NeverConfident(), CFG, scheme, engine="reference")
    assert stats.counters() == reference.counters()


def test_pool_reuse_keeps_stats_exact(squashy_trace):
    # End-to-end pool check: a squash-heavy fast run equals the reference.
    for scheme in RecoveryScheme:
        reference = simulate(
            squashy_trace, LastValuePredictor(), CFG, scheme, engine="reference"
        )
        fast = simulate(squashy_trace, LastValuePredictor(), CFG, scheme, engine="fast")
        assert fast.counters() == reference.counters()


# ----------------------------------------------------------------------
# Oracle mutation self-test: the seeded skip-accounting defect is caught
# ----------------------------------------------------------------------
def test_pipeline_equivalence_oracle_detects_skip_defect(monkeypatch):
    monkeypatch.setattr(fast_mod, "_TEST_SKIP_EVENT", True)
    for seed in range(12):
        try:
            ORACLES["pipeline-equivalence"](generate_case(seed))
        except OracleViolation as violation:
            assert "diverged" in str(violation)
            return
    pytest.fail("seeded skip-accounting defect went undetected")


@pytest.mark.parametrize("mutant", ["dep_fix cleared", "selective mispredict skips dep_fix repair"])
def test_pipeline_equivalence_oracle_detects_dep_fix_mutant(monkeypatch, mutant):
    """The fuzz family, not only the golden matrix's real workloads, catches
    a broken ``dep_fix`` repair on some fixed seed in 0-199."""
    method, wrapper, _ = {**RENAME_MUTANTS, **RESOLVE_MUTANTS}[mutant]
    monkeypatch.setattr(FastPipelineSimulator, method, wrapper)
    for seed in range(200):
        try:
            ORACLES["pipeline-equivalence"](generate_case(seed))
        except OracleViolation as violation:
            assert "diverged" in str(violation)
            return
    pytest.fail(f"{mutant}: undetected on seeds 0-199")
