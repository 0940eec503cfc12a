"""Golden reproduced results: every figure cell's ``SimStats.counters()``.

The figure and table modules under ``benchmarks/`` run the cells enumerated
below (Figures 3-8, Table 2 and the extended baselines).  This test runs each
of them at a small instruction budget and compares every counter exactly
against ``data/golden_counters.json``, so a refactor that moves a reproduced
number fails tier-1.

An intended change regenerates the file, with a CHANGES.md line saying why::

    PYTHONPATH=src python tests/test_golden_counters.py

The generator also runs every cell on the reference timing engine and
refuses to write a snapshot the two engines disagree on.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Dict, Iterator, Optional, Tuple

import pytest

from repro.core.experiment import ExperimentRunner
from repro.core.session import SimSession
from repro.uarch.config import aggressive_config
from repro.uarch.pipeline import simulate
from repro.uarch.recovery import RecoveryScheme
from repro.workloads.suite import WORKLOAD_CLASSES

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_counters.json"
BUDGET = 1_000

#: Configurations run on the Table-1 machine at the default threshold.
TABLE1_CONFIGS = (
    "no_predict", "lvp", "srvp_same", "srvp_dead", "srvp_live", "srvp_live_lv",  # Figure 3
    "drvp", "drvp_dead", "drvp_dead_lv",  # Figure 5
    "lvp_all", "grp_all", "drvp_all", "drvp_all_dead", "drvp_all_dead_lv",  # Figure 6, Table 2
    "drvp_all_realloc",  # Figure 7
    "stride_all", "context_all", "memren",  # extended baselines
)
#: Figure 4: srvp_dead at a 90% threshold under each recovery scheme.
RECOVERY_CONFIG, RECOVERY_THRESHOLD = "srvp_dead", 0.9
#: Figure 8: the Section 7.4 16-wide machine.
WIDE_CONFIGS = ("no_predict", "lvp_all", "drvp_all", "drvp_all_dead_lv")

#: (config, recovery, threshold, wide)
Cell = Tuple[str, RecoveryScheme, Optional[float], bool]


def program_cells() -> Iterator[Cell]:
    """The cells of one program, in figure order."""
    for config in TABLE1_CONFIGS:
        yield config, RecoveryScheme.SELECTIVE, None, False
    for recovery in RecoveryScheme:
        yield RECOVERY_CONFIG, recovery, RECOVERY_THRESHOLD, False
    for config in WIDE_CONFIGS:
        yield config, RecoveryScheme.SELECTIVE, None, True


def cell_id(program: str, cell: Cell) -> str:
    config, recovery, threshold, wide = cell
    at = "" if threshold is None else f"@{threshold}"
    return f"{program}/{config}{at}/{recovery.value}{'/wide' if wide else ''}"


def run_program_cells(program: str, engine: Optional[str] = None) -> Dict[str, Dict[str, int]]:
    """cell id -> counters for every cell of ``program`` on a fresh session."""
    session = SimSession()
    runners = {
        wide: ExperimentRunner(
            program,
            machine=aggressive_config() if wide else None,
            max_instructions=BUDGET,
            session=session,
        )
        for wide in (False, True)
    }
    results = {}
    for cell in program_cells():
        config, recovery, threshold, wide = cell
        runner = runners[wide]
        if engine is None:
            stats = runner.run(config, recovery=recovery, threshold=threshold).stats
        else:
            stream, predictor = runner.pipeline_stream(config, threshold)
            stats = simulate(None, predictor, runner.machine, recovery, engine=engine, stream=stream)
        results[cell_id(program, cell)] = stats.counters()
    return results


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, int]]:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_figure_cell(golden):
    expected = {cell_id(program, cell) for program in WORKLOAD_CLASSES for cell in program_cells()}
    assert set(golden) == expected
    assert len(golden) == len(WORKLOAD_CLASSES) * (len(TABLE1_CONFIGS) + 3 + len(WIDE_CONFIGS))


@pytest.mark.parametrize("program", sorted(WORKLOAD_CLASSES))
def test_figure_cells_match_golden_counters(program, golden):
    results = run_program_cells(program)
    moved = {
        cell: sorted(name for name, value in counters.items() if golden[cell].get(name) != value)
        for cell, counters in results.items()
        if counters != golden[cell]
    }
    assert not moved, f"reproduced counters moved: {moved}"


def regenerate() -> int:
    golden, disagree = {}, []
    for program in WORKLOAD_CLASSES:
        fast = run_program_cells(program)
        reference = run_program_cells(program, engine="reference")
        disagree += [cell for cell in fast if fast[cell] != reference[cell]]
        golden.update(fast)
    if disagree:
        print(f"fast and reference engines disagree on: {', '.join(disagree)}", file=sys.stderr)
        return 1
    lines = [f" {json.dumps(cell)}: {json.dumps(golden[cell], sort_keys=True)}" for cell in sorted(golden)]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(golden)} cells to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
