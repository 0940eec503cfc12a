"""Shared infrastructure for the figure/table reproduction benchmarks.

Each benchmark module regenerates one table or figure from the paper.  The
simulated instruction budget is deliberately small by default so the whole
harness runs in minutes; scale it up for higher-fidelity numbers:

    REPRO_MAX_INSTS=200000 pytest benchmarks/ --benchmark-only -s

Benchmarks print their rows/series (run pytest with ``-s`` to see them) and
assert the *shape* relations the paper reports — who wins, roughly by how
much, where the crossovers fall — not absolute IPC values (see DESIGN.md).
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, Tuple

import pytest

from repro.core import ExperimentResult, ExperimentRunner, ResultTable
from repro.uarch.config import MachineConfig, aggressive_config, table1_config
from repro.workloads.suite import PAPER_WORKLOADS, WORKLOAD_CLASSES

#: Simulated committed-instruction budget per run.
MAX_INSTS = int(os.environ.get("REPRO_MAX_INSTS", "25000"))

#: The registered workloads outside the paper's nine (PAPER_WORKLOADS):
#: printed as extra rows but never part of a paper claim, since the paper's
#: averages and rankings are over its nine.
EXTRA_BENCHMARKS = tuple(name for name in WORKLOAD_CLASSES if name not in PAPER_WORKLOADS)
EXTRA_TITLE = f"Extra rows, outside the paper's suite and its averages: {', '.join(EXTRA_BENCHMARKS)}"


class RunnerCache:
    """Session-wide cache of ExperimentRunners.

    Runners are thin now — traces, profiles and program variants live in the
    process-wide :class:`repro.core.SimSession`, so two runners for the same
    workload share every functional-sim artifact even across machine
    configurations.  Caching the runner objects still saves rebuilding them
    per benchmark module and keeps per-(machine, threshold) identity for
    fixtures that rely on it.
    """

    def __init__(self) -> None:
        self._runners: Dict[Tuple[str, str, float], ExperimentRunner] = {}

    def get(self, name: str, machine: MachineConfig = None, threshold: float = 0.8) -> ExperimentRunner:
        machine = machine or table1_config()
        key = (name, machine.name, threshold)
        if key not in self._runners:
            self._runners[key] = ExperimentRunner(
                name, machine=machine, max_instructions=MAX_INSTS, threshold=threshold
            )
        return self._runners[key]


@pytest.fixture(scope="session")
def runners() -> RunnerCache:
    return RunnerCache()


@pytest.fixture(scope="session")
def wide_machine() -> MachineConfig:
    return aggressive_config()


def collect_tables(row: Callable[[str], Iterable[ExperimentResult]]) -> Tuple[ResultTable, ResultTable]:
    """``(paper, extra)`` tables; ``row(name)`` yields one workload's results."""
    tables = []
    for names in (PAPER_WORKLOADS, EXTRA_BENCHMARKS):
        table = ResultTable()
        for name in names:
            for result in row(name):
                table.add(result)
        tables.append(table)
    return tables[0], tables[1]


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
