"""Process-wide simulation session: compute each expensive artifact once.

The architectural trace of a (workload, program variant, input) triple is a
pure function of the program text and the input seed — it does not depend on
the machine configuration, the predictor, or the recovery scheme.  The seed
repo nevertheless re-ran the functional simulator (and re-profiled) for every
:class:`~repro.core.experiment.ExperimentRunner` instance, so a three-point
machine sweep paid the functional-sim cost three times per workload.

:class:`SimSession` is the fix: one process-wide memo of

* **workloads** — ``(name, scale)`` → the :class:`Workload` instance,
* **input images** — held by that instance: each ``(name, scale, input)``
  image is populated once, kept as a compact
  :class:`~repro.sim.memory.MemoryImage`, and every trace or profile pass
  gets its own fresh :class:`~repro.sim.memory.Memory` rebuilt from it
  (:meth:`~repro.workloads.base.Workload.memory`),
* **train artifacts** — ``(name, scale, max_instructions)`` → the reuse
  profile *and* critical-path profile, built from a single streamed
  functional pass (the trace is never materialized),
* **profile lists** — train artifacts × ``(threshold, loads_only)``,
* **program variants** — canonical ``(variant, threshold)`` keys (see
  :func:`canonical_variant_key`) → transformed :class:`Program` plus, for
  ``realloc``, its :class:`ReallocReport`, and the program's content key,
* **ref traces** — content key (:meth:`SimSession.content_key`) → an
  immutable record tuple, kept in a small LRU (traces dominate resident
  memory; bounded by :data:`DEFAULT_TRACE_CAP` entries and
  :data:`DEFAULT_TRACE_BYTES`),
* **pipeline streams** — the same content key → the trace's
  predictor-independent :func:`~repro.uarch.stream.prepare_stream` result,
  shared by every predictor, recovery scheme and machine that runs on it,
* **timing runs** — :class:`TimingKey` → the :class:`SimStats` of one
  memoized :meth:`~repro.core.experiment.ExperimentRunner.run`.

Cache-keying rules
------------------

Keys are value keys (names, numbers and program content), never object
identities, so any two runners that describe the same experiment share
artifacts.  Program variants are keyed by name: a ``base`` variant never
includes the profile threshold in its key — the base program is
threshold-independent — while ``srvp_*`` and ``realloc`` variants always
include the *effective* threshold (an explicit ``None`` resolves to the
caller's default).  This single canonicalization point fixes the seed's
asymmetry where ``ExperimentRunner.run`` keyed a trace as ``"srvp_dead"``
but the same program variant as ``"srvp_dead@0.8"``.

Traces and streams are keyed by *content*: ``(name, scale,
max_instructions, program-content key, input_name)``.  The program-content
key is computed once per variant from ``program.instructions`` and
``program.procedures`` — everything the functional simulator executes — and
interned to a small integer, so two variants that compile to one program
(on most workloads ``srvp_dead``, ``srvp_live`` and ``srvp_live_lv``, whose
marking picks the same loads) share one trace and one stream.  The input
image is a pure function of ``(name, scale, input_name)``.

A timing run is memoized under the five things the timing engines read
(:func:`timing_key`): the stream's content key; the predictor's class and
:meth:`~repro.vp.base.ValuePredictor.timing_key`, its state-shaping
constructor arguments; the routing, ``(pc, source kind, REG register id)``
per candidate pc (:func:`~repro.uarch.stream.predictor_routing`); the frozen
:class:`~repro.uarch.config.MachineConfig`; and the
:class:`~repro.uarch.recovery.RecoveryScheme`.  This is sound because the
engines are deterministic and consult the predictor only through the
routing (which pcs are candidates, from which source) and through
``confident``/``stored_value``/``update`` on candidate pcs, whose answers
two fresh instances with equal class and ``timing_key()`` give alike.  A
routing with no candidate never consults the predictor at all, so it uses
``no_predict``'s key.  A predictor whose ``timing_key()`` is ``None``
(stride, context, memory renaming) is never memoized.

Entries are invalidated only by LRU pressure on the trace and stream caches
or an explicit :meth:`SimSession.reset` — workload programs and inputs are
deterministic in ``(name, scale)``, so staleness is impossible.

Campaign worker processes (:mod:`repro.runtime.service`) each keep their
own module-level session, so consecutive cells for the same workload inside
one worker reuse its traces.
"""

from __future__ import annotations

import hashlib
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..compiler.marking import mark_static_rvp
from ..compiler.realloc import ReallocReport, reallocate
from ..isa.program import Program
from ..profiling.critpath import CriticalPathBuilder
from ..profiling.lists import ProfileLists
from ..profiling.reuse import ReuseProfile, ReuseProfileBuilder
from ..sim.functional import FunctionalSimulator
from ..sim.trace import TraceRecord
from ..uarch.config import MachineConfig
from ..uarch.recovery import RecoveryScheme
from ..uarch.stats import SimStats
from ..uarch.stream import Route, StreamEntry, prepare_stream
from ..vp.base import NoPredictor, ValuePredictor
from ..workloads.base import Workload
from ..workloads.suite import make_workload
from .metrics import get_metrics

#: Default LRU capacity for cached ref traces (the dominant memory cost).
DEFAULT_TRACE_CAP = 32

#: Default resident-size budget for the trace LRU, in bytes.  Entry-count
#: caps alone under-protect long-budget runs (a 1M-instruction trace is three
#: orders of magnitude heavier than a 1.5k one), so eviction also fires on
#: estimated bytes.
DEFAULT_TRACE_BYTES = 256 * 1024 * 1024

#: Estimated resident cost of one cached :class:`TraceRecord` (the record
#: tuple, its ints and operand tuple) — an accounting constant, not a
#: measurement.
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


class TimingKey(NamedTuple):
    """Everything a timing engine reads, as one memo key (see the module
    docstring for why these five parts suffice)."""

    #: :meth:`SimSession.content_key` of the run's trace and stream
    stream: Tuple
    #: ``(predictor class, predictor.timing_key())``
    predictor: Tuple
    #: :func:`~repro.uarch.stream.predictor_routing` of the run
    routing: Tuple[Route, ...]
    machine: MachineConfig
    recovery: RecoveryScheme


def timing_key(
    stream_key: Tuple,
    predictor: ValuePredictor,
    routing: Sequence[Route],
    machine: MachineConfig,
    recovery: RecoveryScheme,
) -> Optional[TimingKey]:
    """The memo key of one timing run, or ``None`` if it must not be memoized."""
    state = predictor.timing_key()
    if state is None:
        return None
    table = (type(predictor), state) if routing else (NoPredictor, ())
    return TimingKey(stream_key, table, tuple(routing), machine, recovery)


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
        #: program variant key -> interned content key of its program
        self._content: Dict[Tuple, int] = {}
        #: (instructions, procedures) -> content key
        self._content_ids: Dict[Tuple, int] = {}
        self._realloc: Dict[Tuple, ReallocReport] = {}
        self._traces: "OrderedDict[Tuple, Tuple[TraceRecord, ...]]" = OrderedDict()
        self._trace_resident_bytes = 0
        self._streams: "OrderedDict[Tuple, List[StreamEntry]]" = OrderedDict()
        self._stream_resident_bytes = 0
        self._batches: Dict[Tuple, Dict[str, str]] = {}
        self._timing: Dict[TimingKey, SimStats] = {}

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
        # The marking and reallocation passes verify their own output; the
        # base program is checked directly.
        from ..analysis.verifier import check_program

        base = self.workload(name, scale).program
        if variant == "base":
            program = base
            check_program(program, source=f"workload {name!r} base program")
        elif variant.startswith("srvp_"):
            level = variant[len("srvp_") :]
            lists = self.profile_lists(name, scale, max_instructions, eff_threshold, loads_only=True)
            program = mark_static_rvp(base, lists, level)
        elif variant == "realloc":
            artifacts = self.train_artifacts(name, scale, max_instructions)
            lists = self.profile_lists(name, scale, max_instructions, eff_threshold, loads_only=False)
            program, report = reallocate(base, lists, artifacts.critical)
            self._realloc[key] = report
        else:
            raise ValueError(f"unknown program variant {variant!r}")
        self._programs[key] = program
        content = (program.instructions, program.procedures)
        self._content[key] = self._content_ids.setdefault(content, len(self._content_ids))
        return program

    def content_key(
        self,
        name: str,
        scale: float,
        max_instructions: int,
        variant: str = "base",
        threshold: Optional[float] = None,
        default_threshold: float = 0.8,
        input_name: str = "ref",
    ) -> Tuple:
        """``(name, scale, max_instructions, program-content key,
        input_name)``: the key of one trace and of its stream.

        Variants that compile to equal programs get equal keys.  Builds the
        variant if it is not cached yet.
        """
        variant, eff_threshold = canonical_variant_key(variant, threshold, default_threshold)
        variant_key = (name, scale, max_instructions, variant, eff_threshold)
        if variant_key not in self._content:
            self.program_variant(*variant_key, default_threshold)
        return (name, scale, max_instructions, self._content[variant_key], input_name)

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
        for the same :meth:`content_key` — any variant that compiles to the
        same program — are cache hits and run no simulation.
        """
        key = self.content_key(
            name, scale, max_instructions, variant, threshold, default_threshold, input_name
        )
        metrics = get_metrics()
        trace = self._traces.get(key)
        if trace is not None:
            self._traces.move_to_end(key)
            metrics.inc("session.trace.hits")
            return trace
        metrics.inc("session.trace.misses")
        program = self.program_variant(
            name, scale, max_instructions, variant, threshold, default_threshold
        )
        memory = self.workload(name, scale).memory(input_name)
        sim = FunctionalSimulator(program, memory=memory)
        with metrics.timer("sim.wall"):
            # run(collect_trace=True) takes the eager decoded path (no
            # generator suspension per record).
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
        variant: str = "base",
        threshold: Optional[float] = None,
        default_threshold: float = 0.8,
        input_name: str = "ref",
    ) -> List[StreamEntry]:
        """The prepared pipeline stream of one trace.

        A stream is a pure function of its trace — no predictor state rides
        on it (each run builds its own
        :class:`~repro.uarch.stream.PredictionOverlay`) — so it is cached
        under the trace's :meth:`content_key` alone: every predictor ×
        recovery × machine cell of one program shares one stream.

        Cached streams share the trace LRU's byte budget
        (``trace_bytes``): stream bytes count toward the same
        ceiling, and stream entries are evicted (LRU) when the combined
        resident estimate exceeds it.
        """
        metrics = get_metrics()
        key = self.content_key(
            name, scale, max_instructions, variant, threshold, default_threshold, input_name
        )
        stream = self._streams.get(key)
        if stream is not None:
            self._streams.move_to_end(key)
            metrics.inc("session.stream.hits")
            return stream
        metrics.inc("session.stream.misses")
        trace = self.ref_trace(
            name, scale, max_instructions, variant, threshold, default_threshold, input_name
        )
        stream = prepare_stream(trace)
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
    # Timing runs
    # ------------------------------------------------------------------
    def timing_stats(
        self, key: Optional[TimingKey], predictor_name: str, run: Callable[[], SimStats]
    ) -> SimStats:
        """The stats of ``run()``, memoized under ``key``.

        A hit returns a copy of the stored stats, runs no engine and replays
        the run's ``predictor.<name>.*`` metrics; ``pipeline.*`` keeps
        counting real engine runs only.  ``key=None`` always runs and is not
        counted as a lookup.
        """
        if key is None:
            return run()
        metrics = get_metrics()
        stats = self._timing.get(key)
        if stats is not None:
            metrics.inc("session.timing.hits")
            metrics.inc(f"predictor.{predictor_name}.predictions", stats.predictions)
            metrics.inc(f"predictor.{predictor_name}.correct", stats.correct_predictions)
            return replace(stats)
        metrics.inc("session.timing.misses")
        stats = run()
        self._timing[key] = replace(stats)
        return stats

    # ------------------------------------------------------------------
    # Content digests (the campaign's drift sidecar)
    # ------------------------------------------------------------------
    def batch_digests(
        self, name: str, scale: float, input_names: Sequence[str] = ("ref", "train")
    ) -> Dict[str, str]:
        """Per-input content digests of one workload; nothing is simulated.

        Each is a sha256 over the base program's canonical text
        (:meth:`~repro.isa.program.Program.render`) and the input image's
        sorted nonzero words
        (:meth:`~repro.sim.memory.MemoryImage.image_bytes` of the
        workload's stored :meth:`~repro.workloads.base.Workload.image`),
        so any change to the program or an input shows in the digest.  The
        base program is read from the workload directly, unverified: nothing
        runs here, and every program a cell simulates is verified when
        :meth:`program_variant` fills its cache.
        """
        key = (name, scale, tuple(input_names))
        metrics = get_metrics()
        cached = self._batches.get(key)
        if cached is not None:
            metrics.inc("session.batch.hits")
            return cached
        metrics.inc("session.batch.misses")
        workload = self.workload(name, scale)
        text = workload.program.render().encode()
        digests: Dict[str, str] = {}
        for input_name in input_names:
            hasher = hashlib.sha256(text)
            hasher.update(workload.image(input_name).image_bytes())
            digests[input_name] = hasher.hexdigest()
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
            "timing_runs": len(self._timing),
        }

    def reset(self) -> None:
        """Drop every cached artifact (tests, long-lived processes)."""
        self._workloads.clear()
        self._train.clear()
        self._lists.clear()
        self._programs.clear()
        self._content.clear()
        self._content_ids.clear()
        self._realloc.clear()
        self._traces.clear()
        self._trace_resident_bytes = 0
        self._streams.clear()
        self._stream_resident_bytes = 0
        self._batches.clear()
        self._timing.clear()


#: The process-wide session every ExperimentRunner shares by default.
_GLOBAL = SimSession()


def get_session() -> SimSession:
    """The process-wide :class:`SimSession`."""
    return _GLOBAL


def reset_session() -> None:
    """Clear the process-wide session (tests, memory pressure)."""
    _GLOBAL.reset()
