"""The benchmark's four workloads: the seed-to-plan mapping and one
repetition of each.

A :class:`Plan` is everything a repetition runs, generated from the
workload name and the seed alone; the program under test receives only the
plan's cells.  The repetition functions run inside a fresh child process
(see ``run.py``) and call the program through its public entry points only:
``ExperimentRunner.run``, ``SimSession``, ``repro.cli.main``, ``ResultStore``
and ``RunJournal``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("figures", "sweep", "long", "campaign")

#: The configurations the ``benchmarks/`` figure and table modules run on
#: the Table-1 machine at the default 80% profile threshold.
TABLE1_CONFIGS = (
    "no_predict", "lvp", "srvp_same", "srvp_dead", "srvp_live", "srvp_live_lv",  # Figure 3
    "drvp", "drvp_dead", "drvp_dead_lv",  # Figure 5
    "lvp_all", "grp_all", "drvp_all", "drvp_all_dead", "drvp_all_dead_lv",  # Figure 6, Table 2
    "drvp_all_realloc",  # Figure 7
    "stride_all", "context_all", "memren",  # extended baselines
)
#: Figure 4: srvp_dead at a 90% threshold under each recovery scheme.
RECOVERY_CONFIG, RECOVERY_THRESHOLD = "srvp_dead", 0.9
RECOVERIES = ("refetch", "reissue", "selective")
#: Figure 8: the Section 7.4 16-wide machine.
WIDE_CONFIGS = ("no_predict", "lvp_all", "drvp_all", "drvp_all_dead_lv")
FIGURES_BUDGET = 3_000

#: Every point compiles its own variant, so nothing is shared between cells.
#: 0.9 is left out: ``reallocate(li)`` fails verification (RVP008) there.
SWEEP_CONFIGS = ("srvp_dead", "srvp_live_lv", "drvp_all_realloc")
SWEEP_THRESHOLDS = (0.6, 0.7, 0.8, 0.95)
SWEEP_BUDGET = 3_000

LONG_PROGRAMS = ("m88ksim", "hydro2d")  # one SPECint, one SPECfp model
LONG_CONFIGS = ("no_predict", "lvp_all", "drvp_all_dead_lv")
LONG_SCALE = 4
LONG_BUDGET = 80_000

CAMPAIGN_BUDGET = 1_000
CAMPAIGN_RERUNS = 4


@dataclass(frozen=True)
class Cell:
    """One ``ExperimentRunner.run`` call."""

    program: str
    config: str
    recovery: str = "selective"
    #: ``None`` runs at the runner's default threshold (0.8).
    threshold: Optional[float] = None
    wide: bool = False

    @property
    def cell_id(self) -> str:
        at = "" if self.threshold is None else f"@{self.threshold}"
        machine = "/wide" if self.wide else ""
        return f"{self.program}/{self.config}{at}/{self.recovery}{machine}"


@dataclass(frozen=True)
class Plan:
    """Everything one repetition of a workload runs."""

    workload: str
    seed: int
    scale: float
    max_insts: int
    cells: Tuple[Cell, ...]
    #: Cells re-run on the reference timing engine after the timed work.
    checks: Tuple[Cell, ...] = ()

    @property
    def programs(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(cell.program for cell in self.cells))


def make_plan(workload: str, seed: int) -> Plan:
    """The plan for ``workload`` at ``seed``; equal arguments, equal plans.

    Seed 0 runs the paper configuration in the order of the figure modules.
    Any other seed runs the same cells with the programs in another order,
    each program's cells still together and in the same order, and picks
    other ``figures`` cells to re-check on the reference engine.  So every
    seed simulates the same results and pays the same per-cell costs, which
    is what lets runs at different seeds measure the same thing.  ``repro
    suite`` fixes the campaign's order, so that plan is the same for every
    seed.
    """
    from repro.core.experiment import CONFIG_NAMES
    from repro.workloads.suite import WORKLOAD_CLASSES

    rng = random.Random(f"{workload}/{seed}")
    programs = list(WORKLOAD_CLASSES)
    if seed:
        rng.shuffle(programs)
    cells: List[Cell] = []
    if workload == "figures":
        for program in programs:
            block = [Cell(program, config) for config in TABLE1_CONFIGS]
            block += [
                Cell(program, RECOVERY_CONFIG, recovery, RECOVERY_THRESHOLD) for recovery in RECOVERIES
            ]
            block += [Cell(program, config, wide=True) for config in WIDE_CONFIGS]
            cells += block
        checks = tuple(rng.choice([c for c in cells if c.program == p]) for p in programs)
        return Plan(workload, seed, 1.0, FIGURES_BUDGET, tuple(cells), checks)
    if workload == "sweep":
        for program in programs:
            cells.append(Cell(program, "no_predict"))
            cells += [
                Cell(program, config, threshold=threshold)
                for threshold in SWEEP_THRESHOLDS
                for config in SWEEP_CONFIGS
            ]
        return Plan(workload, seed, 1.0, SWEEP_BUDGET, tuple(cells))
    if workload == "long":
        long_programs = [p for p in programs if p in LONG_PROGRAMS]
        cells = [Cell(program, config) for program in long_programs for config in LONG_CONFIGS]
        return Plan(workload, seed, LONG_SCALE, LONG_BUDGET, tuple(cells))
    if workload == "campaign":
        cells = [Cell(program, config) for program in WORKLOAD_CLASSES for config in CONFIG_NAMES]
        return Plan(workload, seed, 1.0, CAMPAIGN_BUDGET, tuple(cells))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
@dataclass
class CellOutcome:
    cell_id: str
    #: Host seconds of the call.
    seconds: float
    #: Work-clock interval whose host speed applies to ``seconds``.
    window: Tuple[float, float]
    counters: Optional[Dict[str, int]] = None
    error: Optional[str] = None

    @property
    def digest(self) -> str:
        payload = self.counters if self.error is None else {"error": self.error}
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


@dataclass
class RepOutcome:
    start: float
    end: float
    cells: List[CellOutcome]
    #: Megabytes of traces and streams the session held after the main run.
    resident_mb: float
    #: (start, end) of each warm ``campaign`` rerun.
    reruns: List[Tuple[float, float]] = field(default_factory=list)
    #: cell id -> diagnostic for every cell a correctness check rejected.
    mismatches: Dict[str, str] = field(default_factory=dict)


def _resident_mb() -> float:
    from repro.core.session import get_session

    stats = get_session().cache_stats()
    return (stats["trace_bytes"] + stats["stream_bytes"]) / 1e6


def setup(plan: Plan) -> None:
    """Build every program the plan runs (the set-up a repetition pays first)."""
    from repro.core.session import get_session

    session = get_session()
    for program in plan.programs:
        session.workload(program, plan.scale).program


def _runner(plan: Plan, cell: Cell, cache: Dict):
    from repro.core.experiment import ExperimentRunner
    from repro.uarch.config import aggressive_config

    key = (cell.program, cell.wide)
    if key not in cache:
        machine = aggressive_config() if cell.wide else None
        cache[key] = ExperimentRunner(
            cell.program, scale=plan.scale, machine=machine, max_instructions=plan.max_insts
        )
    return cache[key]


def run_grid(plan: Plan, clock: Callable[[], float]) -> RepOutcome:
    """Run every cell serially against a cold session, timing each call."""
    from repro.uarch.recovery import RecoveryScheme

    runners: Dict = {}
    outcomes = []
    for cell in plan.cells:
        runner = _runner(plan, cell, runners)
        recovery = RecoveryScheme.parse(cell.recovery)
        counters, error = None, None
        start = clock()
        try:
            counters = runner.run(cell.config, recovery=recovery, threshold=cell.threshold).stats.counters()
        except Exception as exc:  # a failing cell is counted, never skipped
            error = f"{type(exc).__name__}: {exc}"
        end = clock()
        outcomes.append(CellOutcome(cell.cell_id, end - start, (start, end), counters, error))
    return RepOutcome(outcomes[0].window[0], end, outcomes, _resident_mb())


def run_campaign(plan: Plan, clock: Callable[[], float], workdir: str) -> RepOutcome:
    """One cold journaled campaign into a fresh store, then warm reruns.

    ``repro suite`` runs every registered program, so ``plan.cells`` must
    cover all of them; the plan's configs become ``--config``.
    """
    from repro.cli import main
    from repro.core.session import reset_session
    from repro.runtime.journal import RunJournal, journal_path

    store = f"{workdir}/store"
    configs = list(dict.fromkeys(cell.config for cell in plan.cells))

    def campaign(run_id: str) -> Tuple[float, float]:
        argv = [
            "suite", "--out-dir", workdir, "--store", store, "--run-id", run_id,
            "--max-insts", str(plan.max_insts), "--config", *configs,
        ]
        start = clock()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
        return start, clock()

    cold = campaign("cold")
    resident_mb = _resident_mb()
    reruns = []
    for index in range(CAMPAIGN_RERUNS):
        reset_session()
        reruns.append(campaign(f"warm{index}"))

    def states(run_id: str) -> Dict[str, Dict]:
        journal = RunJournal.open(journal_path(workdir, run_id))
        try:
            return journal.states()
        finally:
            journal.close()

    cold_states = states("cold")
    warm_states = [states(f"warm{index}") for index in range(CAMPAIGN_RERUNS)]
    outcomes = []
    mismatches = {}
    for cell in plan.cells:
        entry = cold_states.get(cell.cell_id, {})
        outcome = CellOutcome(cell.cell_id, float(entry.get("elapsed_s", 0.0)), cold)
        if entry.get("status") != "ok":
            outcome.error = f"{entry.get('status', 'missing')}: {entry.get('error', '')}"
        else:
            outcome.counters = entry["result"]["stats"]
            if any(warm.get(cell.cell_id, {}).get("result") != entry["result"] for warm in warm_states):
                mismatches[cell.cell_id] = "a warm rerun returned another result than the cold run"
        outcomes.append(outcome)
    return RepOutcome(cold[0], reruns[-1][1], outcomes, resident_mb, reruns, mismatches)


def reference_check(plan: Plan, outcomes: Sequence[CellOutcome]) -> Dict[str, str]:
    """Re-run ``plan.checks`` on the reference timing engine.

    Returns cell id -> diagnostic for every check cell whose counters differ
    from the repetition's (fast-engine) counters.
    """
    from repro.uarch.pipeline import simulate
    from repro.uarch.recovery import RecoveryScheme

    by_id = {outcome.cell_id: outcome for outcome in outcomes}
    runners: Dict = {}
    mismatches = {}
    for cell in plan.checks:
        runner = _runner(plan, cell, runners)
        stream, predictor = runner.pipeline_stream(cell.config, cell.threshold)
        stats = simulate(
            None, predictor, runner.machine, RecoveryScheme.parse(cell.recovery),
            engine="reference", stream=stream,
        )
        reference, fast = stats.counters(), by_id[cell.cell_id].counters or {}
        if reference != fast:
            diff = sorted(name for name, value in reference.items() if fast.get(name) != value)
            mismatches[cell.cell_id] = f"reference engine differs on {', '.join(diff)}"
    return mismatches


# ----------------------------------------------------------------------
# The modelled machine's results
# ----------------------------------------------------------------------
def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def sim_summary(plan: Plan, outcomes: Sequence[CellOutcome]) -> Dict[str, float]:
    """Speedup geomean and machine-level rates over the successful cells.

    The modelled caches and predictors start empty in every cell.
    """
    counters = {o.cell_id: o.counters for o in outcomes if o.counters is not None}
    ipc = {cell_id: c["committed"] / c["cycles"] for cell_id, c in counters.items() if c["cycles"]}
    speedups = []
    for cell in plan.cells:
        if cell.wide or cell.config == "no_predict" or cell.cell_id not in ipc:
            continue
        base = Cell(cell.program, "no_predict").cell_id
        if base in ipc:
            speedups.append(ipc[cell.cell_id] / ipc[base])
    total = {key: sum(c[key] for c in counters.values()) for key in next(iter(counters.values()), {})}

    def ratio(numerator: str, denominator: str, scale: float = 1.0) -> float:
        return scale * total[numerator] / total[denominator] if total.get(denominator) else 0.0

    return {
        "sim_speedup_geomean": _geomean(speedups),
        "sim.ipc_geomean": _geomean(list(ipc.values())),
        "sim.coverage": ratio("predictions", "committed"),
        "sim.accuracy": ratio("correct_predictions", "predictions"),
        "sim.fetch_stall_frac": ratio("fetch_stall_cycles", "cycles"),
        "sim.iq_stall_frac": ratio("iq_stall_cycles", "cycles"),
        "sim.rob_stall_frac": ratio("rob_stall_cycles", "cycles"),
        "sim.squashes_per_kinst": ratio("value_squashes", "committed", 1000.0),
        "sim.reissues_per_kinst": ratio("reissued_instructions", "committed", 1000.0),
        "sim.branch_mpki": ratio("branch_mispredicts", "committed", 1000.0),
        "sim.l1d_mpki": ratio("l1d_misses", "committed", 1000.0),
    }
