"""Process-wide simulation session: compute each expensive artifact once.

The architectural trace of a (workload, program variant, input) triple is a
pure function of the program text and the input seed — it does not depend on
the machine configuration, the predictor, or the recovery scheme.  The seed
repo nevertheless re-ran the functional simulator (and re-profiled) for every
:class:`~repro.core.experiment.ExperimentRunner` instance, so a three-point
machine sweep paid the functional-sim cost three times per workload.

:class:`SimSession` is the fix: one process-wide memo of

* **workloads** — ``(name, scale)`` → the :class:`Workload` instance,
* **train artifacts** — ``(name, scale, max_instructions)`` → the reuse
  profile *and* critical-path profile, built from a single streamed
  functional pass (the trace is never materialized),
* **profile lists** — train artifacts × ``(threshold, loads_only)``,
* **program variants** — canonical ``(variant, threshold)`` keys (see
  :func:`canonical_variant_key`) → transformed :class:`Program` plus, for
  ``realloc``, its :class:`ReallocReport`,
* **ref traces** — program variant × input → an immutable record tuple,
  kept in a small LRU (traces dominate resident memory; capacity via
  ``REPRO_SESSION_TRACE_CAP``, default 32).

Cache-keying rules
------------------

Keys are value keys (names and numbers), never object identities, so any two
runners that describe the same experiment share artifacts.  A ``base``
variant never includes the profile threshold in its key — the base program
and its traces are threshold-independent — while ``srvp_*`` and ``realloc``
variants always include the *effective* threshold (an explicit ``None``
resolves to the caller's default).  This single canonicalization point fixes
the seed's asymmetry where ``ExperimentRunner.run`` keyed a trace as
``"srvp_dead"`` but the same program variant as ``"srvp_dead@0.8"``.
Entries are invalidated only by LRU pressure on the trace cache or an
explicit :meth:`SimSession.reset` — workload programs and inputs are
deterministic in ``(name, scale)``, so staleness is impossible.

:class:`ParallelSuiteRunner` fans (workload × config × recovery) cells out
over a ``ProcessPoolExecutor``.  Worker processes keep their own module-level
session, so consecutive cells for the same workload inside one worker reuse
its traces.  Each cell has a wall-clock deadline derived from its
instruction budget; failures are routed through the campaign taxonomy
(:mod:`repro.runtime.errors`) — transient ones retried with backoff,
deterministic ones failed fast — and any pool-level failure degrades the
remaining cells to serial execution instead of aborting the suite.  With a
run journal attached, every terminal cell state is committed durably, which
is what ``repro run --resume`` replays.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import Counter, OrderedDict
from concurrent.futures import ProcessPoolExecutor, process
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.marking import mark_static_rvp
from ..compiler.realloc import ReallocReport, reallocate
from ..isa.program import Program
from ..profiling.critpath import CriticalPathBuilder
from ..profiling.lists import ProfileLists
from ..profiling.reuse import ReuseProfile, ReuseProfileBuilder
from ..runtime.errors import DETERMINISTIC, classify_failure, is_timeout
from ..runtime.retry import backoff_delays
from ..sim.functional import FunctionalSimulator
from ..sim.trace import TraceRecord
from ..uarch.config import MachineConfig
from ..uarch.recovery import RecoveryScheme
from ..uarch.stream import StreamEntry, prepare_stream
from ..vp.base import ValuePredictor
from ..workloads.base import Workload
from ..workloads.suite import make_workload
from .metrics import get_metrics

#: Default LRU capacity for cached ref traces (the dominant memory cost).
DEFAULT_TRACE_CAP = int(os.environ.get("REPRO_SESSION_TRACE_CAP", "32"))

#: Default resident-size budget for the trace LRU, in bytes.  Entry-count
#: caps alone under-protect long-budget runs (a 1M-instruction trace is three
#: orders of magnitude heavier than a 1.5k one), so eviction also fires on
#: estimated bytes.
DEFAULT_TRACE_BYTES = int(os.environ.get("REPRO_SESSION_TRACE_BYTES", str(256 * 1024 * 1024)))

#: Estimated resident cost of one cached :class:`TraceRecord` (slots, ints,
#: tuple overhead) — an accounting constant, not a measurement.
TRACE_RECORD_BYTES = 400

#: Estimated resident cost of one cached :class:`StreamEntry` *beyond* its
#: TraceRecord (which the trace cache already accounts for — stream entries
#: alias trace records, they do not copy them).
STREAM_ENTRY_BYTES = 320

#: Program variants whose construction does not depend on profile lists.
_THRESHOLD_FREE_VARIANTS = ("base",)


def canonical_variant_key(
    variant: str, threshold: Optional[float], default_threshold: float
) -> Tuple[str, Optional[float]]:
    """One canonical ``(variant, effective threshold)`` key for all caches.

    ``base`` ignores the threshold entirely (the base program is not derived
    from a profile); every other variant resolves ``None`` to the caller's
    default so that explicit-default and implicit-default requests collide.
    """
    if variant in _THRESHOLD_FREE_VARIANTS:
        return (variant, None)
    return (variant, default_threshold if threshold is None else threshold)


@dataclass
class TrainArtifacts:
    """Everything one streamed train-input pass produces."""

    profile: ReuseProfile
    critical: Counter
    instructions: int


class SimSession:
    """Memoized functional-simulation artifacts, shared process-wide."""

    def __init__(
        self,
        trace_capacity: int = DEFAULT_TRACE_CAP,
        trace_bytes: int = DEFAULT_TRACE_BYTES,
    ) -> None:
        if trace_capacity <= 0:
            raise ValueError("trace_capacity must be positive")
        if trace_bytes <= 0:
            raise ValueError("trace_bytes must be positive")
        self.trace_capacity = trace_capacity
        self.trace_bytes = trace_bytes
        self._workloads: Dict[Tuple[str, float], Workload] = {}
        self._train: Dict[Tuple[str, float, int], TrainArtifacts] = {}
        self._lists: Dict[Tuple[str, float, int, float, bool], ProfileLists] = {}
        self._programs: Dict[Tuple, Program] = {}
        self._realloc: Dict[Tuple, ReallocReport] = {}
        self._traces: "OrderedDict[Tuple, Tuple[TraceRecord, ...]]" = OrderedDict()
        self._trace_resident_bytes = 0
        self._streams: "OrderedDict[Tuple, List[StreamEntry]]" = OrderedDict()
        self._stream_resident_bytes = 0
        self._batches: Dict[Tuple, Dict[str, Dict[str, object]]] = {}

    @staticmethod
    def _trace_cost(trace: Tuple[TraceRecord, ...]) -> int:
        """Estimated resident bytes of one cached trace tuple."""
        return 128 + TRACE_RECORD_BYTES * len(trace)

    @staticmethod
    def _stream_cost(stream: List[StreamEntry]) -> int:
        """Estimated resident bytes of one cached pipeline stream."""
        return 128 + STREAM_ENTRY_BYTES * len(stream)

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------
    def workload(self, name: str, scale: float = 1.0) -> Workload:
        key = (name, scale)
        instance = self._workloads.get(key)
        if instance is None:
            instance = self._workloads[key] = make_workload(name, scale=scale)
        return instance

    # ------------------------------------------------------------------
    # Train-input profiling (single streamed pass)
    # ------------------------------------------------------------------
    def train_artifacts(self, name: str, scale: float, max_instructions: int) -> TrainArtifacts:
        key = (name, scale, max_instructions)
        metrics = get_metrics()
        artifacts = self._train.get(key)
        if artifacts is not None:
            metrics.inc("session.profile.hits")
            return artifacts
        metrics.inc("session.profile.misses")
        workload = self.workload(name, scale)
        program, memory = workload.build("train")
        reuse = ReuseProfileBuilder()
        critical = CriticalPathBuilder()
        sim = FunctionalSimulator(program, memory=memory)
        with metrics.timer("sim.wall"):
            for record in sim.iter_run(max_instructions=max_instructions):
                reuse.feed(record)
                critical.feed(record)
        artifacts = TrainArtifacts(
            profile=reuse.finish(),
            critical=critical.finish(),
            instructions=sim.last_result.instructions,
        )
        self._train[key] = artifacts
        return artifacts

    def profile_lists(
        self,
        name: str,
        scale: float,
        max_instructions: int,
        threshold: float,
        loads_only: bool,
    ) -> ProfileLists:
        key = (name, scale, max_instructions, threshold, loads_only)
        metrics = get_metrics()
        lists = self._lists.get(key)
        if lists is not None:
            metrics.inc("session.lists.hits")
            return lists
        metrics.inc("session.lists.misses")
        profile = self.train_artifacts(name, scale, max_instructions).profile
        lists = self._lists[key] = profile.profile_lists(threshold, loads_only=loads_only)
        return lists

    # ------------------------------------------------------------------
    # Program variants
    # ------------------------------------------------------------------
    def program_variant(
        self,
        name: str,
        scale: float,
        max_instructions: int,
        variant: str,
        threshold: Optional[float],
        default_threshold: float,
    ) -> Program:
        """'base', 'srvp_<level>' (marked) or 'realloc' (transformed)."""
        variant, eff_threshold = canonical_variant_key(variant, threshold, default_threshold)
        key = (name, scale, max_instructions, variant, eff_threshold)
        metrics = get_metrics()
        program = self._programs.get(key)
        if program is not None:
            metrics.inc("session.program.hits")
            return program
        metrics.inc("session.program.misses")
        # Each variant is verified exactly once, here at cache-fill, so an
        # illegal program is rejected before it can poison the shared caches.
        # ``realloc`` verifies inside the pass (it alone holds the RVP007/008
        # interference context); the other variants are checked directly.
        from ..analysis.verifier import check_program, verification_enabled

        verify = verification_enabled()
        base = self.workload(name, scale).program
        if variant == "base":
            program = base
            if verify:
                check_program(program, source=f"workload {name!r} base program")
        elif variant.startswith("srvp_"):
            level = variant[len("srvp_") :]
            lists = self.profile_lists(name, scale, max_instructions, eff_threshold, loads_only=True)
            program = mark_static_rvp(base, lists, level, verify=False)
            if verify:
                check_program(
                    program, source=f"workload {name!r} variant {variant!r}",
                    lists=lists, baseline=base,
                )
        elif variant == "realloc":
            artifacts = self.train_artifacts(name, scale, max_instructions)
            lists = self.profile_lists(name, scale, max_instructions, eff_threshold, loads_only=False)
            program, report = reallocate(base, lists, artifacts.critical)
            self._realloc[key] = report
        else:
            raise ValueError(f"unknown program variant {variant!r}")
        self._programs[key] = program
        return program

    def realloc_report(
        self,
        name: str,
        scale: float,
        max_instructions: int,
        threshold: Optional[float],
        default_threshold: float,
    ) -> Optional[ReallocReport]:
        _, eff_threshold = canonical_variant_key("realloc", threshold, default_threshold)
        return self._realloc.get((name, scale, max_instructions, "realloc", eff_threshold))

    # ------------------------------------------------------------------
    # Ref traces (LRU-bounded)
    # ------------------------------------------------------------------
    def ref_trace(
        self,
        name: str,
        scale: float,
        max_instructions: int,
        variant: str = "base",
        threshold: Optional[float] = None,
        default_threshold: float = 0.8,
        input_name: str = "ref",
    ) -> Tuple[TraceRecord, ...]:
        """The committed trace of one program variant on one input.

        Returns an immutable tuple shared by every caller; repeated requests
        for the same canonical key are cache hits and run no simulation.
        """
        variant, eff_threshold = canonical_variant_key(variant, threshold, default_threshold)
        key = (name, scale, max_instructions, variant, eff_threshold, input_name)
        metrics = get_metrics()
        trace = self._traces.get(key)
        if trace is not None:
            self._traces.move_to_end(key)
            metrics.inc("session.trace.hits")
            return trace
        metrics.inc("session.trace.misses")
        program = self.program_variant(name, scale, max_instructions, variant, eff_threshold, default_threshold)
        memory = self.workload(name, scale).memory(input_name)
        sim = FunctionalSimulator(program, memory=memory)
        with metrics.timer("sim.wall"):
            # run(collect_trace=True) takes the eager decoded path (no
            # generator suspension per record) when no observers are attached.
            trace = tuple(sim.run(max_instructions=max_instructions, collect_trace=True).trace)
        self._traces[key] = trace
        self._trace_resident_bytes += self._trace_cost(trace)
        # Evict on either pressure axis — entry count or estimated bytes —
        # but always keep the entry just inserted, so a single oversized
        # trace still caches (one eviction pass cannot help it anyway).
        while len(self._traces) > 1 and (
            len(self._traces) > self.trace_capacity
            or self._trace_resident_bytes > self.trace_bytes
        ):
            _, evicted = self._traces.popitem(last=False)
            self._trace_resident_bytes -= self._trace_cost(evicted)
            metrics.inc("session.trace.evictions")
        return trace

    # ------------------------------------------------------------------
    # Pipeline streams (LRU sharing the trace-cache byte budget)
    # ------------------------------------------------------------------
    def pipeline_stream(
        self,
        name: str,
        scale: float,
        max_instructions: int,
        predictor: ValuePredictor,
        variant: str = "base",
        threshold: Optional[float] = None,
        default_threshold: float = 0.8,
        input_name: str = "ref",
    ) -> List[StreamEntry]:
        """The prepared pipeline stream of one trace under one predictor.

        A stream is a pure function of (trace, predictor ``source()``
        routing), so it is cached under (canonical trace key, predictor
        ``static_fingerprint()``): a predictor × recovery × threshold
        campaign grid prepares each trace once per *fingerprint*, not once
        per cell — e.g. every ``DynamicRVP`` threshold point shares one
        stream.  A ``None`` fingerprint (``source()`` with side effects)
        bypasses the cache and rebuilds per call.

        Cached streams share the trace LRU's byte budget
        (``REPRO_SESSION_TRACE_BYTES``): stream bytes count toward the same
        ceiling, and stream entries are evicted (LRU) when the combined
        resident estimate exceeds it.
        """
        metrics = get_metrics()
        variant, eff_threshold = canonical_variant_key(variant, threshold, default_threshold)
        fingerprint = predictor.static_fingerprint()
        if fingerprint is None:
            metrics.inc("session.stream.uncacheable")
            trace = self.ref_trace(
                name, scale, max_instructions, variant, eff_threshold, default_threshold, input_name
            )
            return prepare_stream(trace, predictor)
        key = (name, scale, max_instructions, variant, eff_threshold, input_name, fingerprint)
        stream = self._streams.get(key)
        if stream is not None:
            self._streams.move_to_end(key)
            metrics.inc("session.stream.hits")
            return stream
        metrics.inc("session.stream.misses")
        trace = self.ref_trace(
            name, scale, max_instructions, variant, eff_threshold, default_threshold, input_name
        )
        stream = prepare_stream(trace, predictor)
        self._streams[key] = stream
        self._stream_resident_bytes += self._stream_cost(stream)
        # Same always-keep-the-newest rule as the trace LRU; the ceiling is
        # the *combined* trace + stream resident estimate.
        while len(self._streams) > 1 and (
            self._trace_resident_bytes + self._stream_resident_bytes > self.trace_bytes
        ):
            _, evicted = self._streams.popitem(last=False)
            self._stream_resident_bytes -= self._stream_cost(evicted)
            metrics.inc("session.stream.evictions")
        return stream

    # ------------------------------------------------------------------
    # Final-state digests (one run per program input)
    # ------------------------------------------------------------------
    @staticmethod
    def _lane_digest(result) -> str:
        """Canonical hash of one run's final architectural outcome.

        ``result`` is a :class:`~repro.sim.functional.RunResult`.  Covers pc,
        both register files, commit count, halt status and every nonzero
        memory word (:class:`~repro.sim.memory.Memory` equality is modulo
        zero words, so the digest must be too).  The payload is frozen:
        ``<run>.batches.json`` sidecars written by earlier versions verify
        against it on resume.
        """
        hasher = hashlib.sha256()
        state = result.state
        words = sorted(
            (index, value)
            for index, value in getattr(result.memory, "_words", {}).items()
            if value
        )
        payload = (state.pc, result.instructions, result.halted, tuple(state.int_regs), tuple(state.fp_regs), tuple(words))
        hasher.update(repr(payload).encode())
        return hasher.hexdigest()

    def batch_digests(
        self,
        name: str,
        scale: float,
        max_instructions: int,
        input_names: Sequence[str] = ("ref", "train"),
        variant: str = "base",
        threshold: Optional[float] = None,
        default_threshold: float = 0.8,
    ) -> Dict[str, Dict[str, object]]:
        """Per-input final-state digests of one program variant.

        One no-record run per input; the decode itself is memoized per
        program, so the inputs share it.  Keys follow the same canonical
        value-key rules as every other session cache, so campaign cells that
        share a program share the digests.
        """
        variant, eff_threshold = canonical_variant_key(variant, threshold, default_threshold)
        key = (name, scale, max_instructions, variant, eff_threshold, tuple(input_names))
        metrics = get_metrics()
        cached = self._batches.get(key)
        if cached is not None:
            metrics.inc("session.batch.hits")
            return cached
        metrics.inc("session.batch.misses")
        program = self.program_variant(
            name, scale, max_instructions, variant, eff_threshold, default_threshold
        )
        workload = self.workload(name, scale)
        digests: Dict[str, Dict[str, object]] = {}
        for input_name in input_names:
            sim = FunctionalSimulator(program, memory=workload.memory(input_name))
            with metrics.timer("sim.wall"):
                result = sim.run(max_instructions=max_instructions)
            digests[input_name] = {
                "digest": self._lane_digest(result),
                "instructions": result.instructions,
                "halted": result.halted,
            }
        self._batches[key] = digests
        return digests

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Resident entry counts per cache, for the bench/metrics surfaces."""
        return {
            "workloads": len(self._workloads),
            "train_artifacts": len(self._train),
            "profile_lists": len(self._lists),
            "programs": len(self._programs),
            "realloc_reports": len(self._realloc),
            "traces": len(self._traces),
            "trace_bytes": self._trace_resident_bytes,
            "streams": len(self._streams),
            "stream_bytes": self._stream_resident_bytes,
            "batch_digests": len(self._batches),
        }

    def reset(self) -> None:
        """Drop every cached artifact (tests, long-lived processes)."""
        self._workloads.clear()
        self._train.clear()
        self._lists.clear()
        self._programs.clear()
        self._realloc.clear()
        self._traces.clear()
        self._trace_resident_bytes = 0
        self._streams.clear()
        self._stream_resident_bytes = 0
        self._batches.clear()


#: The process-wide session every ExperimentRunner shares by default.
_GLOBAL = SimSession()


def get_session() -> SimSession:
    """The process-wide :class:`SimSession`."""
    return _GLOBAL


def reset_session() -> None:
    """Clear the process-wide session (tests, memory pressure)."""
    _GLOBAL.reset()


# ======================================================================
# Parallel suite execution
# ======================================================================
@dataclass(frozen=True)
class SuiteCell:
    """One (workload, config, recovery) unit of suite work."""

    workload: str
    config: str
    recovery: str

    @property
    def cell_id(self) -> str:
        """The journal identity of this cell (``workload/config/recovery``)."""
        return f"{self.workload}/{self.config}/{self.recovery}"


@dataclass
class SuiteReport:
    """Outcome of a :class:`ParallelSuiteRunner` run."""

    results: List = field(default_factory=list)  # List[ExperimentResult]
    failures: Dict[SuiteCell, str] = field(default_factory=dict)
    used_processes: bool = False
    #: Terminal journal status per executed cell: ``ok`` / ``failed`` / ``timeout``.
    statuses: Dict[SuiteCell, str] = field(default_factory=dict)
    #: ``transient`` / ``deterministic`` for every cell in ``failures``.
    failure_kinds: Dict[SuiteCell, str] = field(default_factory=dict)
    #: Total execution attempts per cell (1 = first try succeeded/failed fast).
    attempts: Dict[SuiteCell, int] = field(default_factory=dict)
    #: Cells satisfied by the shared content-addressed result store (L2)
    #: without any simulation at all.
    store_hits: int = 0


def derive_cell_timeout(max_instructions: int) -> float:
    """Per-cell wall-clock deadline derived from the instruction budget.

    A generous fixed floor (pool spin-up, profiling pass, variant builds)
    plus a per-instruction allowance several hundred times the measured
    steady-state cost, capped at the pre-existing 600 s ceiling.  Scaling the
    deadline with the budget means a hung 1.5k-instruction smoke cell is
    detected in ~a minute instead of ten.
    """
    return min(600.0, 60.0 + 2e-3 * max(0, max_instructions))


def _run_cell(
    cell: SuiteCell,
    machine: Optional[MachineConfig],
    max_instructions: int,
    threshold: float,
    scale: float,
):
    """Top-level worker (picklable): run one cell in this process's session."""
    from .experiment import ExperimentRunner

    runner = ExperimentRunner(
        cell.workload,
        scale=scale,
        machine=machine,
        max_instructions=max_instructions,
        threshold=threshold,
    )
    return runner.run(cell.config, recovery=RecoveryScheme.parse(cell.recovery))


class ParallelSuiteRunner:
    """Fan (workload × config × recovery) cells out over worker processes.

    Worker processes inherit nothing from the parent's session; each keeps
    its own, so cells for the same workload that land on the same worker
    share traces.  Failures are classified through the campaign taxonomy
    (:mod:`repro.runtime.errors`): *transient* failures (worker timeout,
    poisoned result, OS hiccup) are retried serially in the parent with
    bounded exponential backoff and deterministic jitter; *deterministic*
    failures (simulator faults, verifier diagnostics, budget exhaustion)
    fail fast — exactly one attempt — with the diagnostic preserved.  A
    broken pool degrades the rest of the run to serial.

    When a :class:`~repro.runtime.journal.RunJournal` is attached, every
    terminal cell state (``ok`` with the serialized result, ``failed`` /
    ``timeout`` with the error and its kind) is committed durably as it is
    reached, and a ``KeyboardInterrupt`` (Ctrl-C, or SIGTERM converted by
    the campaign layer) cancels queued futures without waiting for running
    ones and flushes the journal before unwinding — the run is resumable
    from exactly the cells that never committed.
    """

    #: Executor factory, ``callable(max_workers=n)`` with ``submit`` and
    #: ``shutdown``.  Overridable per instance — the deterministic fault
    #: injector (:mod:`repro.testing.faults`) swaps in an executor that
    #: forces timeouts, poisoned results and pool failures so the retry and
    #: serial-fallback paths below are exercised on purpose.
    executor_factory = ProcessPoolExecutor

    #: Injectable sleep (tests zero it to assert the schedule, not wait it).
    _sleep = staticmethod(time.sleep)

    def __init__(
        self,
        workloads: Sequence[str] = (),
        configs: Sequence[str] = (),
        recoveries: Sequence[RecoveryScheme] = (RecoveryScheme.SELECTIVE,),
        machine: Optional[MachineConfig] = None,
        max_instructions: int = 40_000,
        threshold: float = 0.8,
        scale: float = 1.0,
        jobs: Optional[int] = None,
        cell_timeout: Optional[float] = None,
        retries: int = 2,
        journal=None,
        cells: Optional[Sequence[SuiteCell]] = None,
        store=None,
        retry_deadline: Optional[float] = None,
    ) -> None:
        if cells is not None:
            # Explicit cell list: the campaign resume path runs exactly the
            # non-``ok`` cells of a prior journal, in their original order.
            self.cells = list(cells)
        else:
            self.cells = [
                SuiteCell(workload, config, recovery.value)
                for workload in workloads
                for config in configs
                for recovery in recoveries
            ]
        self.machine = machine
        self.max_instructions = max_instructions
        self.threshold = threshold
        self.scale = scale
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cell_timeout = (
            derive_cell_timeout(max_instructions) if cell_timeout is None else cell_timeout
        )
        self.retries = max(0, retries)
        self.journal = journal
        #: Shared content-addressed :class:`~repro.runtime.store.ResultStore`
        #: (L2): hit cells are committed without simulation, fresh ``ok``
        #: results are published back for every later campaign.
        self.store = store
        #: Total-elapsed backoff budget for one cell's transient retries
        #: (defaults to the cell's wall-clock deadline): retrying must never
        #: cost more than the cell itself was allowed to.
        self.retry_deadline = self.cell_timeout if retry_deadline is None else retry_deadline

    # ------------------------------------------------------------------
    def run(self) -> SuiteReport:
        metrics = get_metrics()
        metrics.inc("pool.cells", len(self.cells))
        report = SuiteReport()
        cells = self._restore_from_store(self.cells, report)
        if self.jobs <= 1 or len(cells) <= 1:
            self._run_serial(cells, report)
            return report
        try:
            self._run_parallel(cells, report)
            report.used_processes = True
        except (process.BrokenProcessPool, OSError, RuntimeError) as exc:
            # Pool-level failure (sandboxed fork, dead workers, ...): finish
            # whatever is left serially rather than losing the suite.
            metrics.inc("pool.serial_fallbacks")
            done = {(r.workload, r.config, r.recovery) for r in report.results}
            remaining = [
                cell
                for cell in cells
                if (cell.workload, cell.config, cell.recovery) not in done and cell not in report.failures
            ]
            self._run_serial(remaining, report, note=f"pool failure: {exc}")
        return report

    # ------------------------------------------------------------------
    # Shared result store (the persistent L2 under each worker's SimSession)
    # ------------------------------------------------------------------
    def _effective_machine(self) -> MachineConfig:
        from ..uarch.config import table1_config

        return self.machine if self.machine is not None else table1_config()

    def store_key(self, cell: SuiteCell) -> str:
        """Content address of one cell under this runner's configuration."""
        from ..runtime.store import cell_store_key

        return cell_store_key(
            cell.cell_id,
            self._effective_machine(),
            self.max_instructions,
            self.threshold,
            self.scale,
        )

    def _restore_from_store(self, cells: Sequence[SuiteCell], report: SuiteReport) -> List[SuiteCell]:
        """Commit every store-hit cell as ``ok``; return the cells left to run.

        A hit is a *restored* result: no ExperimentRunner is constructed, no
        simulator runs, and the journal records the cell exactly as if it
        had executed — which is what makes identical cells free across
        campaigns, users and concurrent supervisors.
        """
        if self.store is None:
            return list(cells)
        from .experiment import ExperimentResult

        remaining: List[SuiteCell] = []
        for cell in cells:
            payload = self.store.get(self.store_key(cell))
            if payload is None:
                remaining.append(cell)
                continue
            try:
                result = ExperimentResult.from_dict(payload)
            except (KeyError, TypeError, ValueError):
                # A schema drift reads as a miss, never a crash.
                remaining.append(cell)
                continue
            report.store_hits += 1
            get_metrics().inc("pool.cells_from_store")
            self._commit_ok(cell, result, report, attempts=0, started=time.monotonic(), persist=False)
        return remaining

    # ------------------------------------------------------------------
    # Terminal-state commits (report + journal in one place)
    # ------------------------------------------------------------------
    def _commit_ok(
        self,
        cell: SuiteCell,
        result,
        report: SuiteReport,
        attempts: int,
        started: float,
        persist: bool = True,
    ) -> None:
        report.results.append(result)
        report.statuses[cell] = "ok"
        report.attempts[cell] = attempts
        payload = result.to_dict() if hasattr(result, "to_dict") else None
        if self.journal is not None:
            self.journal.record(
                cell.cell_id, "ok", attempts=attempts,
                elapsed_s=time.monotonic() - started, result=payload,
            )
        # Publish fresh results to the shared L2 (restored ones came from
        # there; re-putting them would only churn mtimes under prune).
        if persist and self.store is not None and payload is not None:
            try:
                self.store.put(self.store_key(cell), payload, cell_id=cell.cell_id)
            except OSError:
                # The store is an accelerator, never a correctness dependency:
                # a full or read-only store must not fail the cell.
                pass

    def _commit_failure(
        self,
        cell: SuiteCell,
        message: str,
        kind: str,
        report: SuiteReport,
        attempts: int,
        started: float,
        timed_out: bool = False,
    ) -> None:
        report.failures[cell] = message
        status = "timeout" if timed_out else "failed"
        report.statuses[cell] = status
        report.failure_kinds[cell] = kind
        report.attempts[cell] = attempts
        if self.journal is not None:
            self.journal.record(
                cell.cell_id, status, attempts=attempts,
                elapsed_s=time.monotonic() - started, error=message, error_kind=kind,
            )

    # ------------------------------------------------------------------
    def _run_serial(self, cells: Sequence[SuiteCell], report: SuiteReport, note: str = "") -> None:
        metrics = get_metrics()
        for cell in cells:
            started = time.monotonic()
            try:
                result = self._run_local(cell)
            except KeyboardInterrupt:
                self._flush_journal()
                raise
            except Exception as exc:
                message = f"{note + ': ' if note else ''}{exc!r}"
                self._commit_failure(
                    cell, message, classify_failure(exc), report,
                    attempts=1, started=started, timed_out=is_timeout(exc),
                )
            else:
                metrics.inc("pool.cells_serial")
                self._commit_ok(cell, result, report, attempts=1, started=started)

    def _run_local(self, cell: SuiteCell):
        return _run_cell(cell, self.machine, self.max_instructions, self.threshold, self.scale)

    def _flush_journal(self) -> None:
        if self.journal is not None:
            self.journal.flush()

    @staticmethod
    def _shutdown_pool(pool, cancel: bool) -> None:
        shutdown = getattr(pool, "shutdown", None)
        if shutdown is None:
            return
        if cancel:
            # Never wait on in-flight cells while unwinding: drop queued
            # work, leave running workers to die with the process.
            shutdown(wait=False, cancel_futures=True)
        else:
            shutdown(wait=True)

    def _run_parallel(self, cells: Sequence[SuiteCell], report: SuiteReport) -> None:
        metrics = get_metrics()
        workers = max(1, min(self.jobs, len(cells)))
        metrics.inc("pool.workers", workers)
        pool = self.executor_factory(max_workers=workers)
        try:
            futures = {
                pool.submit(
                    _run_cell, cell, self.machine, self.max_instructions, self.threshold, self.scale
                ): cell
                for cell in cells
            }
            with metrics.timer("pool.wall"):
                for future, cell in futures.items():
                    started = time.monotonic()
                    try:
                        result = future.result(timeout=self.cell_timeout)
                    except (process.BrokenProcessPool, KeyboardInterrupt):
                        raise
                    except Exception as exc:
                        if is_timeout(exc):
                            metrics.inc("pool.timeouts")
                            future.cancel()
                        self._retry_cell(cell, exc, report, started)
                    else:
                        metrics.inc("pool.cells_parallel")
                        self._commit_ok(cell, result, report, attempts=1, started=started)
        except BaseException:
            # Pool collapse, Ctrl-C, SIGTERM: make the journal durable and
            # abandon the pool without blocking on its running futures, so
            # the orphaned-pool leak cannot outlive the interrupt.
            self._shutdown_pool(pool, cancel=True)
            self._flush_journal()
            raise
        else:
            self._shutdown_pool(pool, cancel=False)

    def _retry_cell(self, cell: SuiteCell, first_error: Exception, report: SuiteReport, started: float) -> None:
        """Dispatch a failed cell through the failure taxonomy.

        Deterministic failures are final on the first attempt (replaying
        deterministic code on deterministic inputs replays the failure);
        transient failures are retried serially in the parent, up to
        ``self.retries`` times, behind deterministically-jittered backoff
        whose *total elapsed delay* is capped by ``self.retry_deadline``.
        A retry that raises a *deterministic* error also stops immediately.
        """
        metrics = get_metrics()
        if classify_failure(first_error) == DETERMINISTIC:
            metrics.inc("pool.fail_fast")
            self._commit_failure(
                cell, f"{first_error!r}", DETERMINISTIC, report,
                attempts=1, started=started, timed_out=is_timeout(first_error),
            )
            return
        last_error: Exception = first_error
        attempts = 1
        schedule = backoff_delays(
            self.retries,
            seed=(cell.workload, cell.config, cell.recovery),
            deadline=self.retry_deadline,
        )
        for delay in schedule:
            metrics.inc("pool.retries")
            self._sleep(delay)
            attempts += 1
            try:
                result = self._run_local(cell)
            except KeyboardInterrupt:
                self._flush_journal()
                raise
            except Exception as exc:
                last_error = exc
                if classify_failure(exc) == DETERMINISTIC:
                    break
            else:
                self._commit_ok(cell, result, report, attempts=attempts, started=started)
                return
        message = (
            f"first: {first_error!r}; retry: {last_error!r}"
            if attempts > 1
            else f"{first_error!r}"  # retries=0: there was no retry to cite
        )
        self._commit_failure(
            cell,
            message,
            classify_failure(last_error),
            report,
            attempts=attempts,
            started=started,
            timed_out=is_timeout(last_error),
        )
