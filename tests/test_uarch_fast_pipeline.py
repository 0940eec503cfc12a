"""Fast timing tier: golden fast==reference stats matrix over the full
workload suite, event-heap ordering/validity, FastDynInst pool hygiene, and
the pipeline-equivalence oracle's mutation self-test."""

import heapq

import pytest

from repro.core.experiment import ExperimentRunner
from repro.core.session import SimSession
from repro.sim import run_program
from repro.testing import ORACLES, OracleViolation, generate_case
from repro.uarch import fast as fast_mod
from repro.uarch.fast import FastDynInst, FastPipelineSimulator
from repro.uarch.pipeline import _DONE, _ISSUED, simulate
from repro.uarch.recovery import RecoveryScheme
from repro.uarch.config import table1_config
from repro.vp import LastValuePredictor, NoPredictor
from repro.workloads import all_workloads

CFG = table1_config()
WORKLOADS = tuple(w.name for w in all_workloads())

#: One stream-cached SimSession for the whole module: traces, profiles and
#: prepared streams are built once per workload, not once per matrix cell.
SESSION = SimSession()

# One table-backed config, one profile-guided static config (marked program
# variant), one reallocated-program config — the three stream-preparation
# shapes the fast tier must reproduce bit-for-bit.
MATRIX_CONFIGS = ("drvp", "srvp_dead", "drvp_all_realloc")


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
        variant, _ = runner._build(config, None)
        trace = runner.ref_trace(variant)
        for scheme in RecoveryScheme:
            reference = simulate(
                trace, runner._build(config, None)[1], runner.machine, scheme, engine="reference"
            )
            fast = simulate(
                trace, runner._build(config, None)[1], runner.machine, scheme, engine="fast"
            )
            assert fast.counters() == reference.counters(), (
                f"{workload}/{config}/{scheme.value}: fast tier diverged"
            )


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
    trace = trace_of(tiny_loop_program, tiny_loop_memory)
    sim = _fast_sim(trace)
    inst = FastDynInst(sim.stream[0])
    other = FastDynInst(sim.stream[1])
    inst.waiters.append(other)
    inst.in_cand = True
    inst.dirty = True
    inst.gen = 7
    inst.reset(fetch_cycle=9)
    assert inst.waiters == [] and inst.in_cand is False
    assert inst.dirty is False
    assert inst.earliest_issue == 9
    # reset() zeroes gen; the acquire path re-applies the pre-reset gen + 1
    # so event gens stay monotonic across reuse.
    assert inst.gen == 0


def test_pool_entries_are_clean_or_marked_dirty(squashy_trace):
    # A squash-heavy run (REFETCH + a mispredicting LVP) recycles both
    # committed instructions and squash victims.  Committed plain-lifecycle
    # entries must satisfy the fast-path acquire assumptions; everything
    # else must carry the dirty flag that forces a full reset on reuse.
    sim = _fast_sim(squashy_trace, LastValuePredictor(), RecoveryScheme.REFETCH)
    stats = sim.run()
    assert stats.value_squashes > 0, "case must actually exercise squashes"
    assert sim._pool, "commit/squash must return instructions to the pool"
    assert any(inst.dirty for inst in sim._pool), "squash victims reach the pool"
    for inst in sim._pool:
        if inst.dirty:
            continue  # acquire runs a full reset(); stale fields are fine
        # Fast-path acquire resets only entry/gen/state/min_issue/
        # complete_cycle — the rest must already be at defaults.
        assert not inst.waiters, "pooled clean producers must not pin consumers"
        assert not inst.in_cand
        assert inst.state == _DONE
        assert not inst.predicted and inst.resolved
        assert not inst.spec_on and not inst.spec_consumers
        assert not inst.train and inst.iq_released


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
