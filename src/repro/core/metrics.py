"""Lightweight observability: process-wide counters and wall-clock timers.

Every layer of the execution core reports into one :class:`MetricsRegistry`:

* the functional simulator counts runs and committed instructions,
* the pipeline counts runs, cycles and its wall time,
* the :class:`~repro.core.session.SimSession` counts cache hits/misses per
  artifact kind (trace / profile / program variant / timing run),
* the :class:`~repro.runtime.service.CampaignSupervisor` counts dispatches,
  re-dispatches, per-cell timeouts and pool rebuilds (``service.*``).

The registry is deliberately simple — plain dict increments, one
``perf_counter`` pair per *run* (never per instruction) — so instrumentation
stays invisible in the hot loops.  ``snapshot()`` exports a structured dict
(counters, timers, derived rates such as instructions/sec and cache hit
rates) that :mod:`repro.core.results` serialises as JSON for the
``--profile`` / ``repro metrics`` CLI surface.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple


class MetricsRegistry:
    """Named counters and accumulated wall-clock timers."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, Tuple[float, int]] = {}  # name -> (seconds, count)

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Accumulate the wall time of the ``with`` body under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - start)

    def add_time(self, name: str, seconds: float) -> None:
        total, count = self._timers.get(name, (0.0, 0))
        self._timers[name] = (total + seconds, count + 1)

    def seconds(self, name: str) -> float:
        return self._timers.get(name, (0.0, 0))[0]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def _rate(self, hits: str, misses: str) -> Optional[float]:
        total = self.get(hits) + self.get(misses)
        return self.get(hits) / total if total else None

    def snapshot(self) -> Dict[str, object]:
        """Structured export: raw counters/timers plus derived rates."""
        timers = {
            name: {"seconds": total, "count": count, "mean_seconds": total / count if count else 0.0}
            for name, (total, count) in sorted(self._timers.items())
        }
        derived: Dict[str, object] = {}
        sim_seconds = self.seconds("sim.wall")
        if sim_seconds > 0:
            derived["sim.instructions_per_sec"] = self.get("sim.instructions") / sim_seconds
        pipe_seconds = self.seconds("pipeline.wall")
        if pipe_seconds > 0:
            derived["pipeline.cycles_per_sec"] = self.get("pipeline.cycles") / pipe_seconds
        for kind in ("trace", "profile", "program", "lists", "timing"):
            rate = self._rate(f"session.{kind}.hits", f"session.{kind}.misses")
            if rate is not None:
                derived[f"session.{kind}.hit_rate"] = rate
        return {
            "counters": dict(sorted(self._counters.items())),
            "timers": timers,
            "derived": derived,
        }

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()


#: Process-wide default registry.  Campaign worker processes each get their
#: own (fresh) instance.
_GLOBAL = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide registry every subsystem reports into."""
    return _GLOBAL


def reset_metrics() -> None:
    """Zero the process-wide registry (tests, CLI runs)."""
    _GLOBAL.reset()
