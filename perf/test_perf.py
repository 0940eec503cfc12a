"""Tests for the benchmark itself.

    PYTHONPATH=src python -m pytest perf -q
"""

from __future__ import annotations

import json
import logging
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import compare
import ledger
import run
import workloads
from clock import REFERENCE_KERNEL_S, HostClock
from tracing import Span, Tracer, layer_totals, root_seconds, self_times

ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_once():
    spans = [
        Span("timing", 0.0, 10.0),
        Span("stream", 1.0, 4.0, parent=0),
        Span("trace", 2.0, 3.0, parent=1),
        Span("train", 5.0, 7.0, parent=0),
        Span("timing", 20.0, 21.0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])
    assert layer_totals(spans) == {
        "timing": (2, pytest.approx(6.0)),
        "stream": (1, pytest.approx(2.0)),
        "trace": (1, pytest.approx(1.0)),
        "train": (1, pytest.approx(2.0)),
    }
    assert root_seconds(spans) == pytest.approx(11.0)


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 5.0, parent=0), Span("b", 3.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


class Layered:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2


def test_tracer_records_nested_spans_and_restores_methods():
    ticks = iter(range(100))
    target = f"{__name__}:Layered"
    tracer = Tracer(
        {"outer": f"{target}.outer", "inner": f"{target}.inner"},
        clock=lambda: float(next(ticks)),
        observers={"inner": lambda result: {"value": result}},
    )
    original = Layered.__dict__["outer"]
    with tracer:
        assert Layered().outer(3) == 7
    assert Layered.__dict__["outer"] is original
    assert [(s.layer, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 3.0, None),
        ("inner", 1.0, 2.0, 0),
    ]
    assert tracer.counters["inner"]["value"] == 6
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_missing_target_warns_and_reports_its_layer_as_null(caplog):
    targets = dict(ledger.LAYER_TARGETS, batch="repro.core.session:SimSession.no_such_method")
    tracer = Tracer(targets, observers=ledger.OBSERVERS)
    with caplog.at_level(logging.WARNING, logger="perf.tracing"), tracer:
        pass
    assert "batch" in tracer.missing
    assert "no_such_method" in caplog.text
    counters = {name: 0 for name in ledger.SESSION_COUNTERS}
    values = ledger.layer_metrics(tracer, wall=1.0, scale=1.0, counters=counters)
    assert values["batch.self_s"] is None and values["batch.calls"] is None
    assert values["timing.self_s"] == 0.0


# ----------------------------------------------------------------------
# Host clock
# ----------------------------------------------------------------------
def test_host_clock_scales_by_the_samples_around_an_interval():
    clock = HostClock()
    clock._times = [0.0, 1.0, 2.0, 10.0, 11.0]
    clock._kernel_s = [REFERENCE_KERNEL_S] * 3 + [2 * REFERENCE_KERNEL_S] * 2
    assert clock.normalized(0.0, 2.0) == pytest.approx(2.0)
    assert clock.normalized(10.0, 11.0) == pytest.approx(0.5)
    assert clock.normalized(10.0, 11.0, seconds=0.1) == pytest.approx(0.05)


def test_host_clock_samples_while_running():
    with HostClock() as clock:
        start = clock.now()
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
        end = clock.now()
    assert clock.samples >= 5
    # Sampling time is excluded from the work clock.
    assert end - start < 0.5
    assert clock.normalized(start, end) > 0


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_rule():
    assert run.percentile([5, 1, 4, 2, 3], 50) == 3
    assert run.percentile(list(range(1, 101)), 90) == 90
    # p90 is the highest percentile with ten samples beyond it on both the
    # figures (275 cells) and sweep (143 cells) grids.
    assert min(run.highest_percentile(n) for n in (275, 143)) == 90
    assert run.highest_percentile(99) == 75
    assert run.highest_percentile(9) is None


# ----------------------------------------------------------------------
# Seed -> plan
# ----------------------------------------------------------------------
CELLS = {"figures": 275, "sweep": 143, "long": 6, "campaign": 231}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_permutes_the_same_cells(workload):
    assert workloads.make_plan(workload, 7) == workloads.make_plan(workload, 7)
    zero = workloads.make_plan(workload, 0)
    assert zero.scale == (workloads.LONG_SCALE if workload == "long" else 1.0)
    assert len({cell.cell_id for cell in zero.cells}) == CELLS[workload]
    orders = set()
    for seed in range(1, 6):
        plan = workloads.make_plan(workload, seed)
        assert (plan.scale, plan.max_insts) == (zero.scale, zero.max_insts)
        assert sorted(c.cell_id for c in plan.cells) == sorted(c.cell_id for c in zero.cells)
        # The cells of one program stay together, so its artifacts are
        # built once per repetition whatever the order.
        switches = sum(1 for a, b in zip(plan.cells, plan.cells[1:]) if a.program != b.program)
        assert switches == len(plan.programs) - 1
        orders.add(tuple(c.cell_id for c in plan.cells))
    # Only the program order moves, and `repro suite` fixes the campaign's.
    assert len(orders) == {"figures": 5, "sweep": 5, "long": 2, "campaign": 1}[workload]


def test_figures_checks_one_cell_per_program():
    plan = workloads.make_plan("figures", 0)
    assert [cell.program for cell in plan.checks] == list(plan.programs)
    assert set(plan.checks) <= set(plan.cells)


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert compare.verdict(base, base, 0.1, "lower")["verdict"] == "same"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, "lower")["verdict"] == "worse"
    faster = compare.verdict(base, [v * 0.8 for v in base], 0.1, "lower")
    assert faster["verdict"] == "better" and faster["win_rate"] == 1.0
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, "higher")["verdict"] == "worse"
    noisy = [5.0, 15.0, 10.0, 7.0, 13.0]
    assert compare.verdict(noisy, base, 0.1, "lower")["verdict"] == "unresolved"
    assert compare.verdict(noisy, [1.0] * 5, 0.1, "lower")["verdict"] == "better"
    # A deterministic metric with a zero bound may not move at all.
    assert compare.verdict([1.5] * 5, [1.49] * 5, 0.0, "higher")["verdict"] == "worse"


def test_compare_reads_run_records(tmp_path):
    def record(wall):
        return {"workloads": {"figures": {"metrics": {"wall_s": wall}}}}

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(record(w)) + "\n" for w in (10.0, 10.2, 9.8)))
    b.write_text("".join(json.dumps(record(w)) + "\n" for w in (13.0, 13.1, 12.9)))
    metrics = [
        {"name": "wall_s", "bound": 0.1, "better": "lower"},
        {"name": "setup_s", "bound": 0.25, "better": "lower"},
    ]
    rows = compare.compare(compare.load_runs(str(a)), compare.load_runs(str(b)), metrics)
    # A metric no record carries is left out, not judged.
    assert [(row["workload"], row["metric"], row["verdict"]) for row in rows] == [("figures", "wall_s", "worse")]
    assert "worse" in compare.render(rows)


# ----------------------------------------------------------------------
# BENCHMARK.json declares what run.py reports
# ----------------------------------------------------------------------
def test_benchmark_json_declares_what_run_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["paths"] == ["perf"]
    assert declared["command"] == ["python3", "perf/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(ledger.PER_LAYER)
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "long", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _child_output(digests, mismatches=None, error=None):
    return {
        "setup_s": 0.5, "wall_s": 2.0, "host_wall_s": 2.0, "host_kernel_ms": 1.0,
        "cells": [[f"c{i}", 10.0, d, error if i == 0 else None] for i, d in enumerate(digests)],
        "reruns_s": [], "peak_rss_mb": 100.0,
        "mismatches": mismatches or {}, "sim": {"sim_speedup_geomean": 1.1}, "plan": {},
    }


def test_summary_counts_digest_mismatches_and_errors_once():
    runs = {
        "reps": [_child_output(["a", "b", "c"], error="ValueError: boom"), _child_output(["a", "x", "c"])],
        "setups": [0.4, 0.5, 0.6],
        "traced": None,
    }
    summary = run.summarize("figures", runs)
    assert summary["attempted"] == 3
    assert summary["failed"] == 2
    assert not summary["correct"]
    assert set(summary["diagnostics"]) == {"c0", "c1"}
    assert summary["metrics"]["setup_s"] == 0.5
    assert summary["metrics"]["rerun_s"] == summary["metrics"]["wall_s"]


def test_digest_ignores_the_cell_order():
    forward = _child_output(["a", "b", "c"])
    backward = _child_output(["a", "b", "c"])
    backward["cells"].reverse()
    digests = [
        run.summarize("figures", {"reps": [rep], "setups": [0.5], "traced": None})["digest"]
        for rep in (forward, backward)
    ]
    assert digests[0] == digests[1]


# ----------------------------------------------------------------------
# Smoke: one cell per workload, through the real program
# ----------------------------------------------------------------------
def test_one_cell_per_workload_smoke(tmp_path):
    with HostClock() as clock:
        for name in ("figures", "sweep", "long"):
            plan = workloads.make_plan(name, 0)
            cell = plan.cells[-1]
            small = replace(plan, max_insts=400, cells=(cell,), checks=(cell,))
            workloads.setup(small)
            rep = workloads.run_grid(small, clock.now)
            assert [c.cell_id for c in rep.cells] == [cell.cell_id]
            assert rep.cells[0].error is None and rep.cells[0].counters["committed"] > 0
            assert workloads.reference_check(small, rep.cells) == {}

        campaign = workloads.make_plan("campaign", 0)
        cells = tuple(c for c in campaign.cells if c.config == "no_predict")
        small = replace(campaign, max_insts=300, cells=cells)
        rep = workloads.run_campaign(small, clock.now, str(tmp_path))
    assert len(rep.cells) == len(cells) == len(campaign.programs)
    assert all(c.error is None for c in rep.cells)
    assert len(rep.reruns) == workloads.CAMPAIGN_RERUNS
    assert rep.mismatches == {}


def test_failing_cell_is_counted_not_skipped():
    plan = workloads.make_plan("sweep", 0)
    good = plan.cells[0]
    bad = replace(good, config="no_such_config")
    small = replace(plan, max_insts=300, cells=(bad, good))
    rep = workloads.run_grid(small, time.perf_counter)
    assert [c.cell_id for c in rep.cells] == [bad.cell_id, good.cell_id]
    assert "no_such_config" in rep.cells[0].error
    assert rep.cells[1].error is None
    summary = workloads.sim_summary(small, rep.cells)
    assert summary["sim.ipc_geomean"] > 0
