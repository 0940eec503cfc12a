"""Structured failure taxonomy for campaign cells.

The paper distinguishes its recovery schemes by *what must be replayed* after
a value misprediction (refetch / reissue / selective, §5); the campaign layer
applies the same discipline to cell failures — replay only what a retry can
actually fix:

``transient``
    The *environment* failed, not the experiment: a worker timed out, a cell
    result was poisoned in transit (unpicklable state), the process pool
    collapsed, an OS-level hiccup.  Rerunning the identical cell can succeed,
    so transient failures get bounded exponential backoff with deterministic
    jitter (:mod:`repro.runtime.retry`).

``deterministic``
    The *experiment* failed: a simulator fault (:class:`SimulationError`),
    a verifier diagnostic (:class:`VerificationError`), or any other
    repeatable error raised by deterministic code on deterministic inputs.
    Retrying replays the same failure, so the cell fails fast — exactly one
    attempt — and the diagnostic is preserved verbatim in the run journal.

A program that is still running at its instruction budget is neither: the
functional simulator truncates it there and the cell measures what
committed.  A cell that outlives its wall-clock deadline is a transient
timeout.

Classification is structural, not exhaustive: a known-transient type (or any
exception whose class sets ``transient = True``, the hook the fault injector
uses) is transient; *everything else* is deterministic, because the
simulators, compilers and verifiers below this layer are all seeded and
wall-clock-free — an unknown exception from them will recur on replay.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, TimeoutError as FutureTimeout

# Re-exported so campaign code has one import point for the whole taxonomy.
from ..sim.functional import SimulationError  # noqa: F401

#: Classification labels recorded in journals and reports.
TRANSIENT = "transient"
DETERMINISTIC = "deterministic"


class CampaignError(RuntimeError):
    """Base class for campaign-layer failures (journal, resume, orchestration)."""


class TransientError(CampaignError):
    """A retryable environment failure, wrapping the original cause."""


class WorkerCrashed(TransientError):
    """A worker process died (SIGKILL, OOM-kill) while holding a cell.

    The environment failed, not the experiment: the same cell re-dispatched
    to a surviving worker is expected to succeed, so the supervisor treats a
    crash exactly like any other transient — re-dispatch with backoff,
    bounded by the retry budget and the cell's wall-clock deadline.
    """


class DeterministicError(CampaignError):
    """A repeatable experiment failure; retrying would replay it."""


#: Exception types that indicate the environment (not the experiment) failed.
#: ``BrokenExecutor`` covers ``BrokenProcessPool``; ``FutureTimeout`` is an
#: alias of the builtin ``TimeoutError`` on Python >= 3.11 and a distinct
#: class before that, so both spellings are listed.
_TRANSIENT_TYPES = (
    FutureTimeout,
    TimeoutError,
    BrokenExecutor,
    ConnectionError,
    EOFError,
    InterruptedError,
    TransientError,
)


def classify_failure(exc: BaseException) -> str:
    """``TRANSIENT`` or ``DETERMINISTIC`` for one raised exception.

    The explicit ``transient`` class attribute wins over the type tables in
    either direction, so test doubles (and future error types in other
    packages) can declare their class without this module importing them.
    """
    explicit = getattr(type(exc), "transient", None)
    if explicit is not None:
        return TRANSIENT if explicit else DETERMINISTIC
    if isinstance(exc, DeterministicError):
        return DETERMINISTIC
    if isinstance(exc, _TRANSIENT_TYPES):
        return TRANSIENT
    if isinstance(exc, OSError):
        return TRANSIENT
    return DETERMINISTIC


def is_timeout(exc: BaseException) -> bool:
    """Was this failure a worker deadline expiry (journal status ``timeout``)?"""
    return isinstance(exc, (FutureTimeout, TimeoutError))
