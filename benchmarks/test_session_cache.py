"""Perf-guard: the shared SimSession eliminates redundant functional-sim runs.

The architectural trace is machine-independent, so a machine sweep must pay
the functional simulator exactly once per (workload, program variant) — the
metrics counters make that auditable.  These guards pin the contract:

* repeating an ``ExperimentRunner.run`` triggers **zero** additional
  functional-sim invocations,
* a 3-point machine sweep over 2 workloads × 2 configurations runs the
  functional simulator exactly once per (workload, program variant) — here
  2 workloads × (train + base ref) = 4 runs total instead of the seed's
  3 × 2 × (2 + 2) = 24,
* re-running the whole sweep against the warm session is measurably faster
  and simulates nothing.
"""

from __future__ import annotations

import time
from dataclasses import replace

from conftest import run_once

from repro.core import get_metrics, sweep_machine
from repro.core.experiment import ExperimentRunner
from repro.uarch.config import table1_config

#: Distinct budget so these tests never share session keys with the other
#: benchmark modules (deltas below are then exact, not lower bounds).
GUARD_INSTS = 7_777

SWEEP_POINTS = (16, 32, 48)
SWEEP_WORKLOADS = ("m88ksim", "li")
SWEEP_CONFIGS = ("no_predict", "drvp_all")  # both use the 'base' program variant


def _run_sweep():
    return sweep_machine(
        "iq",
        SWEEP_POINTS,
        lambda iq: replace(table1_config(), iq_int=iq, iq_fp=iq),
        workloads=SWEEP_WORKLOADS,
        configs=SWEEP_CONFIGS,
        max_instructions=GUARD_INSTS,
    )


def test_repeat_run_simulates_nothing(benchmark):
    metrics = get_metrics()
    runner = ExperimentRunner("go", max_instructions=GUARD_INSTS)
    runner.run("no_predict")  # warm the session (train + ref)

    before = metrics.get("sim.runs")
    result = run_once(benchmark, lambda: runner.run("no_predict"))
    assert result.ipc > 0
    assert metrics.get("sim.runs") == before, "repeat run re-invoked the functional simulator"


def test_sweep_runs_one_funcsim_per_workload_variant(benchmark):
    metrics = get_metrics()
    runs0 = metrics.get("sim.runs")
    trace_miss0 = metrics.get("session.trace.misses")
    profile_miss0 = metrics.get("session.profile.misses")
    stream_miss0 = metrics.get("session.stream.misses")
    stream_hit0 = metrics.get("session.stream.hits")

    t0 = time.perf_counter()
    rows = run_once(benchmark, _run_sweep)
    cold_seconds = time.perf_counter() - t0

    assert len(rows) == len(SWEEP_POINTS) * len(SWEEP_WORKLOADS) * len(SWEEP_CONFIGS)
    # One train pass + one base-variant ref trace per workload — nothing else.
    assert metrics.get("sim.runs") - runs0 == 2 * len(SWEEP_WORKLOADS)
    assert metrics.get("session.trace.misses") - trace_miss0 == len(SWEEP_WORKLOADS)
    assert metrics.get("session.profile.misses") - profile_miss0 == len(SWEEP_WORKLOADS)
    # One pipeline stream per trace: every other (point, workload, config)
    # cell hit the stream cache, which sits above the trace cache.
    expected_hits = len(SWEEP_POINTS) * len(SWEEP_WORKLOADS) * len(SWEEP_CONFIGS) - len(SWEEP_WORKLOADS)
    assert metrics.get("session.stream.misses") - stream_miss0 == len(SWEEP_WORKLOADS)
    assert metrics.get("session.stream.hits") - stream_hit0 == expected_hits

    # Warm re-run: identical results, zero simulation, measurably faster.
    runs_warm = metrics.get("sim.runs")
    t1 = time.perf_counter()
    rows_again = _run_sweep()
    warm_seconds = time.perf_counter() - t1
    assert rows_again == rows
    assert metrics.get("sim.runs") == runs_warm

    print(
        f"\nsession-cache sweep guard: cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s "
        f"({cold_seconds / warm_seconds:.2f}x; funcsim runs: {2 * len(SWEEP_WORKLOADS)} cold, 0 warm)"
    )
    # The warm sweep still pays the 12 pipeline runs, so the bound is loose;
    # it exists to catch the cache silently disappearing.
    assert warm_seconds < cold_seconds * 1.2
