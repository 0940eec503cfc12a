"""Span recorder for the per-layer ledger.

:class:`Tracer` wraps named public methods by patching their class
attributes for the duration of one traced repetition.  Each call records a
:class:`Span` (layer, start, end and the span that was open when it began)
in memory; :func:`self_times` then gives every span its duration minus the
part of it that its child spans cover.  Targets are named as text
(``"repro.core.session:SimSession.ref_trace"``), so a later rename or
deletion only logs a warning and reports that layer as missing instead of
crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

LOG = logging.getLogger("perf.tracing")

#: Per-layer hook: called with a wrapped call's return value, it returns the
#: counter increments that call contributes (e.g. ``{"hits": 1}``).
Observer = Callable[[object], Dict[str, float]]


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    #: Index of the enclosing span in :attr:`Tracer.spans`, ``None`` at the root.
    parent: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(target: str) -> Tuple[type, str]:
    """``"package.module:Class.method"`` -> (class, method name).

    Raises ``LookupError`` when the module, class or method is gone or the
    method is not a plain function.
    """
    module_name, _, qualname = target.partition(":")
    class_name, _, attr = qualname.rpartition(".")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{target}: {exc}") from None
    cls = getattr(module, class_name, None)
    if not isinstance(cls, type):
        raise LookupError(f"{target}: no class {class_name!r}")
    if not inspect.isfunction(inspect.getattr_static(cls, attr, None)):
        raise LookupError(f"{target}: no method {attr!r}")
    return cls, attr


class Tracer:
    """Records spans around the target methods while installed."""

    def __init__(
        self,
        targets: Dict[str, str],
        clock: Callable[[], float] = time.perf_counter,
        observers: Optional[Dict[str, Observer]] = None,
    ) -> None:
        self.targets = dict(targets)
        self.clock = clock
        self.observers = dict(observers or {})
        self.spans: List[Span] = []
        #: layer -> counter name -> total, summed from the observers.
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: Layers whose target could not be resolved.
        self.missing: Dict[str, str] = {}
        self._stack: List[int] = []
        self._patched: List[Tuple[type, str, object]] = []

    def install(self) -> "Tracer":
        for layer, target in self.targets.items():
            try:
                cls, attr = resolve(target)
            except LookupError as exc:
                LOG.warning("tracing: layer %r not traced: %s", layer, exc)
                self.missing[layer] = str(exc)
                continue
            self._patched.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, self._wrap(layer, getattr(cls, attr)))
        return self

    def uninstall(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            if original is None:
                delattr(cls, attr)  # the method was inherited
            else:
                setattr(cls, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, layer: str, method):
        observer = self.observers.get(layer)

        @functools.wraps(method)
        def traced(*args, **kwargs):
            span = Span(layer, self.clock(), parent=self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = method(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if observer is not None:
                for name, amount in observer(result).items():
                    self.counters[layer][name] += amount
            return result

        return traced


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - _covered(children.get(index, ()), span.start, span.end)
        for index, span in enumerate(spans)
    ]


def layer_totals(spans: List[Span]) -> Dict[str, Tuple[int, float]]:
    """layer -> (calls, summed self seconds)."""
    totals: Dict[str, Tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, seconds = totals.get(span.layer, (0, 0.0))
        totals[span.layer] = (calls + 1, seconds + own)
    return totals


def root_seconds(spans: List[Span]) -> float:
    """Summed duration of the spans no other span encloses."""
    return sum(span.duration for span in spans if span.parent is None)
