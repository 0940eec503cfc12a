"""Throughput benchmarks for the execution core, with regression tracking.

``repro bench`` measures three layers of the stack on real workloads:

* **funcsim** — committed instructions per second for the reference
  interpreter (``step()``-equivalent loop), the decoded no-record fast path
  and the decoded trace path.  The decoded/reference ratio is the headline
  number the pre-decoded interpreter is accountable for.
* **pipeline** — cycle-engine throughput (simulated cycles per wall second)
  driving :func:`repro.uarch.pipeline.simulate` off a materialized trace, for
  both timing tiers: the reference per-cycle loop measured cold (stream
  preparation included, series-continuous with pre-fast-tier baselines) and
  the event-driven fast tier measured over a pre-built stream — the way
  campaign cells run it through the SimSession stream cache.
* **session** — cold-vs-warm :meth:`~repro.core.session.SimSession.ref_trace`
  latency, i.e. what the artifact caches buy a sweep.

Results are emitted as ``BENCH_<n>.json`` at the repository root, where ``n``
auto-increments past the largest committed baseline.  A run can be compared
against the previous baseline (or an explicit ``--baseline`` file): summary
throughput metrics that drop by more than the fail threshold make the run
fail (exit 1); drops between the warn and fail thresholds only warn.

Every timed section runs ``repeats`` times and keeps the *best* wall time —
the standard trick for interpreter benchmarks, since the minimum is the
least-noisy estimator of the true cost on a shared machine.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.session import SimSession
from ..sim.functional import FunctionalSimulator
from ..uarch.config import table1_config
from ..uarch.pipeline import simulate
from ..uarch.recovery import RecoveryScheme
from ..uarch.stream import prepare_stream
from ..vp.base import NoPredictor
from ..workloads.suite import WORKLOAD_CLASSES, make_workload

#: Schema identifier written into every BENCH file.
BENCH_SCHEMA = "repro-bench/1"

#: Filename pattern for committed baselines at the repo root.
_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")

#: Summary metrics checked for regressions (all are higher-is-better).
REGRESSION_METRICS = (
    "fast_minstr_s_geomean",
    "trace_minstr_s_geomean",
    "pipeline_cycles_per_s_geomean",
    "pipeline_fast_cycles_per_s_geomean",
)

#: Workloads used by ``--quick`` (one SPECint, one SPECfp).
QUICK_WORKLOADS = ("m88ksim", "mgrid")


@dataclass
class BenchConfig:
    """What to measure and how hard."""

    workloads: Sequence[str] = field(default_factory=lambda: tuple(WORKLOAD_CLASSES))
    max_instructions: int = 40_000
    repeats: int = 3
    quick: bool = False
    #: >0 enables the cProfile hook: top-N cumulative hot spots per benched
    #: engine (funcsim reference/decoded, pipeline reference/fast) collected
    #: on the first workload and attached to the payload under ``profiles``.
    profile_top: int = 0

    def validated(self) -> "BenchConfig":
        unknown = [name for name in self.workloads if name not in WORKLOAD_CLASSES]
        if unknown:
            raise ValueError(f"unknown workload(s): {', '.join(unknown)}")
        if self.max_instructions <= 0:
            raise ValueError("max_instructions must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")
        return self

    @classmethod
    def quick_config(cls) -> "BenchConfig":
        return cls(workloads=QUICK_WORKLOADS, max_instructions=20_000, repeats=2, quick=True)


def _best_time(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` (min is the low-noise estimator)."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _geomean(values: Sequence[float]) -> Optional[float]:
    positives = [v for v in values if v > 0]
    if not positives:
        return None
    return math.exp(sum(math.log(v) for v in positives) / len(positives))


# ----------------------------------------------------------------------
# Individual benchmarks
# ----------------------------------------------------------------------
def _bench_funcsim(name: str, max_insts: int, repeats: int) -> Dict[str, float]:
    """Reference vs decoded-fast vs decoded-trace committed-instruction rates."""
    workload = make_workload(name)

    def run(engine: str, collect_trace: bool) -> int:
        # Fresh memory per run: the ref input is mutated by stores.
        program, memory = workload.build("ref")
        sim = FunctionalSimulator(program, memory=memory, engine=engine)
        return sim.run(max_instructions=max_insts, collect_trace=collect_trace).instructions

    instructions = run("decoded", False)
    ref_s = _best_time(lambda: run("reference", False), repeats)
    fast_s = _best_time(lambda: run("decoded", False), repeats)
    trace_s = _best_time(lambda: run("decoded", True), repeats)
    minstr = lambda seconds: instructions / seconds / 1e6 if seconds > 0 else 0.0
    ref_rate, fast_rate, trace_rate = minstr(ref_s), minstr(fast_s), minstr(trace_s)
    return {
        "instructions": instructions,
        "reference_minstr_s": ref_rate,
        "fast_minstr_s": fast_rate,
        "trace_minstr_s": trace_rate,
        "fast_speedup": fast_rate / ref_rate if ref_rate else 0.0,
        "trace_speedup": trace_rate / ref_rate if ref_rate else 0.0,
    }


def _bench_pipeline(name: str, max_insts: int, repeats: int) -> Dict[str, float]:
    """Cycle-engine throughput over a materialized trace (no-predict baseline).

    ``cycles_per_s`` is the reference tier measured cold (stream preparation
    inside the timed region, exactly how pre-fast-tier baselines measured
    it); ``fast_cycles_per_s`` is the event-driven tier over a pre-built
    stream — what a campaign cell pays after the SimSession stream cache has
    warmed.  The two runs must produce identical stats, so the bench itself
    is a cheap differential gate.
    """
    workload = make_workload(name)
    program, memory = workload.build("ref")
    trace = FunctionalSimulator(program, memory=memory).run(
        max_instructions=max_insts, collect_trace=True
    ).trace
    config = table1_config()
    stats = simulate(trace, NoPredictor(), config, RecoveryScheme.SELECTIVE, engine="reference")
    seconds = _best_time(
        lambda: simulate(trace, NoPredictor(), config, RecoveryScheme.SELECTIVE, engine="reference"),
        repeats,
    )
    stream = prepare_stream(trace)
    fast_stats = simulate(
        None, NoPredictor(), config, RecoveryScheme.SELECTIVE, engine="fast", stream=stream
    )
    if fast_stats != stats:
        raise RuntimeError(f"fast/reference stats diverged on {name}")
    fast_seconds = _best_time(
        lambda: simulate(
            None, NoPredictor(), config, RecoveryScheme.SELECTIVE, engine="fast", stream=stream
        ),
        repeats,
    )
    rate = stats.cycles / seconds if seconds > 0 else 0.0
    fast_rate = stats.cycles / fast_seconds if fast_seconds > 0 else 0.0
    return {
        "cycles": stats.cycles,
        "cycles_per_s": rate,
        "wall_s": seconds,
        "fast_cycles_per_s": fast_rate,
        "fast_wall_s": fast_seconds,
        "fast_speedup": fast_rate / rate if rate else 0.0,
    }


def _bench_session(name: str, max_insts: int) -> Dict[str, float]:
    """Cold vs warm ref-trace latency through a fresh :class:`SimSession`."""
    session = SimSession()
    start = time.perf_counter()
    session.ref_trace(name, 1.0, max_insts)
    cold_s = time.perf_counter() - start
    start = time.perf_counter()
    session.ref_trace(name, 1.0, max_insts)
    warm_s = time.perf_counter() - start
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else 0.0,
        "cached_entries": sum(session.cache_stats().values()),
    }


# ----------------------------------------------------------------------
# Profiling hook (``repro bench --profile``)
# ----------------------------------------------------------------------
def _profile_hotspots(fn: Callable[[], object], top: int) -> List[Dict[str, object]]:
    """Top-``top`` cumulative-time hot spots of one ``fn()`` call."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    rows: List[Dict[str, object]] = []
    ordered = sorted(stats.stats.items(), key=lambda item: item[1][3], reverse=True)
    for (filename, lineno, func), (cc, nc, tt, ct, _callers) in ordered[:top]:
        rows.append(
            {
                "where": f"{os.path.basename(filename)}:{lineno}({func})",
                "ncalls": nc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    return rows


def _profile_engines(name: str, max_insts: int, top: int) -> Dict[str, List[Dict[str, object]]]:
    """Hot-spot attribution for every benched engine, on one workload."""
    workload = make_workload(name)

    def funcsim(engine: str) -> Callable[[], object]:
        def run() -> object:
            program, memory = workload.build("ref")
            sim = FunctionalSimulator(program, memory=memory, engine=engine)
            return sim.run(max_instructions=max_insts)

        return run

    program, memory = workload.build("ref")
    trace = FunctionalSimulator(program, memory=memory).run(
        max_instructions=max_insts, collect_trace=True
    ).trace
    config = table1_config()
    stream = prepare_stream(trace)
    return {
        "funcsim_reference": _profile_hotspots(funcsim("reference"), top),
        "funcsim_decoded": _profile_hotspots(funcsim("decoded"), top),
        "pipeline_reference": _profile_hotspots(
            lambda: simulate(trace, NoPredictor(), config, RecoveryScheme.SELECTIVE, engine="reference"),
            top,
        ),
        "pipeline_fast": _profile_hotspots(
            lambda: simulate(
                None, NoPredictor(), config, RecoveryScheme.SELECTIVE, engine="fast", stream=stream
            ),
            top,
        ),
    }


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
def run_benchmarks(
    config: BenchConfig, progress: Optional[Callable[[str], None]] = None
) -> Dict[str, object]:
    """Run the full campaign and return the BENCH payload (sans file metadata)."""
    config = config.validated()
    note = progress or (lambda message: None)
    funcsim: Dict[str, Dict[str, float]] = {}
    pipeline: Dict[str, Dict[str, float]] = {}
    session: Dict[str, Dict[str, float]] = {}
    for name in config.workloads:
        note(f"bench {name}: funcsim")
        funcsim[name] = _bench_funcsim(name, config.max_instructions, config.repeats)
        note(f"bench {name}: pipeline")
        pipeline[name] = _bench_pipeline(name, config.max_instructions, config.repeats)
        note(f"bench {name}: session")
        session[name] = _bench_session(name, config.max_instructions)

    summary = {
        "reference_minstr_s_geomean": _geomean([r["reference_minstr_s"] for r in funcsim.values()]),
        "fast_minstr_s_geomean": _geomean([r["fast_minstr_s"] for r in funcsim.values()]),
        "trace_minstr_s_geomean": _geomean([r["trace_minstr_s"] for r in funcsim.values()]),
        "fast_speedup_geomean": _geomean([r["fast_speedup"] for r in funcsim.values()]),
        "trace_speedup_geomean": _geomean([r["trace_speedup"] for r in funcsim.values()]),
        "pipeline_cycles_per_s_geomean": _geomean([r["cycles_per_s"] for r in pipeline.values()]),
        "pipeline_fast_cycles_per_s_geomean": _geomean(
            [r["fast_cycles_per_s"] for r in pipeline.values()]
        ),
        "pipeline_fast_speedup_geomean": _geomean([r["fast_speedup"] for r in pipeline.values()]),
    }
    profiles: Dict[str, List[Dict[str, object]]] = {}
    if config.profile_top > 0 and config.workloads:
        note(f"bench {config.workloads[0]}: profiling engines")
        profiles = _profile_engines(
            config.workloads[0], config.max_instructions, config.profile_top
        )
    return {
        "schema": BENCH_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": sys.platform,
            "machine": platform.machine(),
        },
        "config": {
            "quick": config.quick,
            "workloads": list(config.workloads),
            "max_instructions": config.max_instructions,
            "repeats": config.repeats,
        },
        "results": {
            "funcsim": funcsim,
            "pipeline": pipeline,
            "session": session,
        },
        "summary": summary,
        **({"profiles": profiles} if profiles else {}),
    }


# ----------------------------------------------------------------------
# Baselines and regression comparison
# ----------------------------------------------------------------------
def find_latest_bench(root: str) -> Optional[str]:
    """Path of the highest-numbered ``BENCH_<n>.json`` under ``root``, if any."""
    best_n, best_path = -1, None
    try:
        names = os.listdir(root)
    except OSError:
        return None
    for name in names:
        match = _BENCH_RE.match(name)
        if match and int(match.group(1)) > best_n:
            best_n, best_path = int(match.group(1)), os.path.join(root, name)
    return best_path


def next_bench_path(root: str) -> str:
    """``BENCH_<n+1>.json`` one past the highest existing baseline (min n=1)."""
    latest = find_latest_bench(root)
    if latest is None:
        return os.path.join(root, "BENCH_1.json")
    n = int(_BENCH_RE.match(os.path.basename(latest)).group(1))
    return os.path.join(root, f"BENCH_{n + 1}.json")


def compare_benchmarks(
    current: Dict[str, object],
    baseline: Dict[str, object],
    fail_threshold: float = 0.30,
    warn_threshold: float = 0.10,
) -> List[Dict[str, object]]:
    """Compare summary throughput metrics against a baseline payload.

    Returns one entry per checked metric with the fractional ``drop``
    ((baseline − current) / baseline; negative means *faster*) and a
    ``status`` of ``ok`` / ``warn`` / ``fail``.  A metric measured now but
    absent from the baseline gets status ``missing`` (never a failure): the
    gate for a new series only arms once a baseline carrying it is
    committed.  Metrics absent from the current run are skipped entirely —
    an old-schema baseline never fails a new run.
    """
    cur_summary = current.get("summary") or {}
    base_summary = baseline.get("summary") or {}
    report: List[Dict[str, object]] = []
    for metric in REGRESSION_METRICS:
        cur, base = cur_summary.get(metric), base_summary.get(metric)
        if not isinstance(cur, (int, float)):
            continue
        if not isinstance(base, (int, float)) or base <= 0:
            report.append(
                {"metric": metric, "baseline": None, "current": cur, "drop": None,
                 "status": "missing"}
            )
            continue
        drop = (base - cur) / base
        status = "ok"
        if drop > fail_threshold:
            status = "fail"
        elif drop > warn_threshold:
            status = "warn"
        report.append(
            {"metric": metric, "baseline": base, "current": cur, "drop": drop, "status": status}
        )
    return report


def load_bench(path: str) -> Dict[str, object]:
    """Load a BENCH JSON file, validating the schema tag."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: not a {BENCH_SCHEMA} file (schema={payload.get('schema')!r})")
    return payload


def write_bench(path: str, payload: Dict[str, object]) -> None:
    """Persist a BENCH payload atomically (temp + rename + fsync).

    A crashed or SIGKILLed bench run therefore never leaves a truncated
    ``BENCH_<n>.json`` for the *next* run to trip over as its baseline.
    """
    from ..runtime.atomic import atomic_write_json

    atomic_write_json(path, payload)
