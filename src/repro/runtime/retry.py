"""Bounded exponential backoff with deterministic jitter.

Transient campaign failures (worker timeouts, poisoned cells, pool hiccups)
are retried on a ``base * 2**attempt`` schedule, capped at ``cap`` seconds.
The jitter that decorrelates retries is *deterministic*: it is derived from a
stable seed (the cell key) rather than wall-clock entropy, so a failing
campaign replays the exact same schedule on every run — a requirement for the
fault-injection tests, which assert the schedule, and in keeping with the
repository-wide no-hidden-randomness rule.
"""

from __future__ import annotations

import random
import zlib
from typing import Iterator, Optional

#: Default schedule parameters used by :class:`~repro.runtime.service.CampaignSupervisor`.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0


def _stable_seed(key: object) -> int:
    """A process-independent integer seed for any printable key."""
    return zlib.crc32(repr(key).encode("utf-8"))


def backoff_delay(
    attempt: int,
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
    seed: object = 0,
) -> float:
    """Delay before retry number ``attempt`` (0-based), in seconds.

    ``min(cap, base * 2**attempt)`` scaled by a deterministic jitter factor
    in ``[0.5, 1.0)`` ("decorrelated halved jitter"): retries of different
    cells spread out, retries of the same cell are reproducible.
    """
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    raw = min(cap, base * (2.0 ** attempt))
    jitter = random.Random((_stable_seed(seed) << 16) ^ attempt).uniform(0.5, 1.0)
    return raw * jitter


def backoff_delays(
    attempts: int,
    base: float = DEFAULT_BACKOFF_BASE,
    cap: float = DEFAULT_BACKOFF_CAP,
    seed: object = 0,
    deadline: Optional[float] = None,
) -> Iterator[float]:
    """The full schedule for ``attempts`` retries of one cell.

    ``deadline`` caps the *total elapsed backoff* across the whole schedule:
    once the cumulative delay reaches it, the schedule ends — retrying past
    a cell's wall-clock budget would just trade a transient failure for a
    timeout.  The delay that would cross the deadline is clipped to the
    remaining budget (a shortened retry beats no retry), and later delays
    are dropped.  ``deadline=None`` preserves the unbounded schedule.
    """
    total = 0.0
    for attempt in range(attempts):
        delay = backoff_delay(attempt, base=base, cap=cap, seed=seed)
        if deadline is not None:
            remaining = deadline - total
            if remaining <= 0:
                return
            delay = min(delay, remaining)
        total += delay
        yield delay
