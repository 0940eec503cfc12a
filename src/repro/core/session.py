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
  ``REPRO_SESSION_TRACE_CAP``, default 32),
* **pipeline streams** — the ref-trace key → the trace's
  predictor-independent :func:`~repro.uarch.stream.prepare_stream` result,
  shared by every predictor, recovery scheme and machine that runs on it.

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

Campaign worker processes (:mod:`repro.runtime.service`) each keep their
own module-level session, so consecutive cells for the same workload inside
one worker reuse its traces.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.marking import mark_static_rvp
from ..compiler.realloc import ReallocReport, reallocate
from ..isa.program import Program
from ..profiling.critpath import CriticalPathBuilder
from ..profiling.lists import ProfileLists
from ..profiling.reuse import ReuseProfile, ReuseProfileBuilder
from ..sim.functional import FunctionalSimulator
from ..sim.trace import TraceRecord
from ..uarch.stream import StreamEntry, prepare_stream
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
        variant: str = "base",
        threshold: Optional[float] = None,
        default_threshold: float = 0.8,
        input_name: str = "ref",
    ) -> List[StreamEntry]:
        """The prepared pipeline stream of one trace.

        A stream is a pure function of its trace — no predictor state rides
        on it (each run builds its own
        :class:`~repro.uarch.stream.PredictionOverlay`) — so it is cached
        under the canonical trace key alone: every predictor × recovery ×
        machine cell of one trace shares one stream.

        Cached streams share the trace LRU's byte budget
        (``REPRO_SESSION_TRACE_BYTES``): stream bytes count toward the same
        ceiling, and stream entries are evicted (LRU) when the combined
        resident estimate exceeds it.
        """
        metrics = get_metrics()
        variant, eff_threshold = canonical_variant_key(variant, threshold, default_threshold)
        key = (name, scale, max_instructions, variant, eff_threshold, input_name)
        stream = self._streams.get(key)
        if stream is not None:
            self._streams.move_to_end(key)
            metrics.inc("session.stream.hits")
            return stream
        metrics.inc("session.stream.misses")
        trace = self.ref_trace(
            name, scale, max_instructions, variant, eff_threshold, default_threshold, input_name
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
