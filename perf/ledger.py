"""The per-layer ledger: which public methods bound each layer, and the
metrics one traced repetition yields for them."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from tracing import Tracer, layer_totals, root_seconds

#: layer -> the public method whose calls are that layer's spans.
LAYER_TARGETS = {
    # The uarch timing engine plus predictor construction.
    "timing": "repro.core.experiment:ExperimentRunner.run",
    "stream": "repro.core.session:SimSession.pipeline_stream",
    # The sim package's functional simulator on the ref input.
    "trace": "repro.core.session:SimSession.ref_trace",
    # The compiler, ir and analysis passes plus verification.
    "variant": "repro.core.session:SimSession.program_variant",
    # The profiling package on the train input.
    "train": "repro.core.session:SimSession.train_artifacts",
    "lists": "repro.core.session:SimSession.profile_lists",
    "batch": "repro.core.session:SimSession.batch_digests",
    "store.get": "repro.runtime.store:ResultStore.get",
    "store.put": "repro.runtime.store:ResultStore.put",
    "journal": "repro.runtime.journal:RunJournal.record",
}

OBSERVERS = {
    "timing": lambda result: {"committed": result.stats.committed},
    "store.get": lambda result: {"hits": float(result is not None)},
}

#: The program's own cache counters the ledger reports beside the spans.
SESSION_COUNTERS = {
    "stream.hits": "session.stream.hits",
    "stream.misses": "session.stream.misses",
    "stream.uncacheable": "session.stream.uncacheable",
    "stream.evictions": "session.stream.evictions",
    "trace.hits": "session.trace.hits",
    "trace.misses": "session.trace.misses",
    "trace.evictions": "session.trace.evictions",
}

#: Every per-layer metric: (name, unit, better).
PER_LAYER = (
    ("timing.self_s", "s", "lower"),
    ("timing.calls", "count", "lower"),
    ("timing.share", "frac", "lower"),
    ("timing.kinst_per_s", "kinst/s", "higher"),
    ("stream.self_s", "s", "lower"),
    ("stream.calls", "count", "lower"),
    ("stream.share", "frac", "lower"),
    ("stream.hits", "count", "higher"),
    ("stream.misses", "count", "lower"),
    ("stream.uncacheable", "count", "lower"),
    ("stream.evictions", "count", "lower"),
    ("stream.reuse", "frac", "higher"),
    ("trace.self_s", "s", "lower"),
    ("trace.calls", "count", "lower"),
    ("trace.share", "frac", "lower"),
    ("trace.hits", "count", "higher"),
    ("trace.misses", "count", "lower"),
    ("trace.evictions", "count", "lower"),
    ("variant.self_s", "s", "lower"),
    ("variant.calls", "count", "lower"),
    ("variant.share", "frac", "lower"),
    ("train.self_s", "s", "lower"),
    ("train.calls", "count", "lower"),
    ("train.share", "frac", "lower"),
    ("lists.self_s", "s", "lower"),
    ("lists.calls", "count", "lower"),
    ("batch.self_s", "s", "lower"),
    ("batch.calls", "count", "lower"),
    ("batch.share", "frac", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.get_calls", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("store.put_s", "s", "lower"),
    ("store.put_calls", "count", "lower"),
    ("journal.record_s", "s", "lower"),
    ("journal.records", "count", "lower"),
    ("other.self_s", "s", "lower"),
    ("session.resident_mb", "MB", "lower"),
    ("tracing.overhead", "frac", "lower"),
    ("sim.ipc_geomean", "inst/cycle", "higher"),
    ("sim.coverage", "frac", "higher"),
    ("sim.accuracy", "frac", "higher"),
    ("sim.fetch_stall_frac", "frac", "lower"),
    ("sim.iq_stall_frac", "frac", "lower"),
    ("sim.rob_stall_frac", "frac", "lower"),
    ("sim.squashes_per_kinst", "1/kinst", "lower"),
    ("sim.reissues_per_kinst", "1/kinst", "lower"),
    ("sim.branch_mpki", "1/kinst", "lower"),
    ("sim.l1d_mpki", "1/kinst", "lower"),
)


def session_counters() -> Dict[str, int]:
    from repro.core import get_metrics

    metrics = get_metrics()
    return {name: metrics.get(counter) for name, counter in SESSION_COUNTERS.items()}


def layer_metrics(
    tracer: Tracer, wall: float, scale: float, counters: Dict[str, int]
) -> Dict[str, Optional[float]]:
    """Span-derived metrics of one traced repetition.

    ``wall`` is the repetition's host seconds, ``scale`` converts host to
    reference seconds (see ``clock.py``) and ``counters`` are the session
    counters the repetition added.  A layer whose target is missing reports
    ``None`` for every metric it owns.
    """
    totals = layer_totals(tracer.spans)
    values: Dict[str, Optional[float]] = {}
    owned: Dict[str, List[str]] = defaultdict(list)

    def put(layer: str, key: str, value: float) -> None:
        values[key] = value
        owned[layer].append(key)

    def spans(layer: str, seconds_key: str, calls_key: str, share: bool = True) -> Tuple[int, float]:
        calls, seconds = totals.get(layer, (0, 0.0))
        prefix = layer.split(".")[0]
        put(layer, f"{prefix}.{seconds_key}", seconds * scale)
        put(layer, f"{prefix}.{calls_key}", calls)
        if share:
            put(layer, f"{prefix}.share", seconds / wall)
        return calls, seconds

    _, seconds = spans("timing", "self_s", "calls")
    committed = tracer.counters["timing"]["committed"]
    put("timing", "timing.kinst_per_s", committed / (seconds * scale) / 1000 if seconds else 0.0)
    calls, _ = spans("stream", "self_s", "calls")
    for name in SESSION_COUNTERS:
        put(name.split(".")[0], name, counters[name])
    put("stream", "stream.reuse", counters["stream.hits"] / calls if calls else 0.0)
    for layer in ("trace", "variant", "train", "batch"):
        spans(layer, "self_s", "calls")
    spans("lists", "self_s", "calls", share=False)
    spans("store.get", "get_s", "get_calls", share=False)
    put("store.get", "store.hits", tracer.counters["store.get"]["hits"])
    spans("store.put", "put_s", "put_calls", share=False)
    spans("journal", "record_s", "records", share=False)
    values["other.self_s"] = (wall - root_seconds(tracer.spans)) * scale
    for layer in tracer.missing:
        for key in owned[layer]:
            values[key] = None
    return values
