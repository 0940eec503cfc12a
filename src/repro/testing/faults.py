"""Deterministic fault injection for the execution layer.

Two targets, matching the production fault paths that must keep working:

:class:`~repro.runtime.service.CampaignSupervisor`
    The real supervisor is kept; only its executor boundary and clock are
    faked.  A :class:`ChaosPolicy` scripts worker lifecycle events by
    dispatch slot or by cell (kills that break the pool, stalls that run
    into the per-cell deadline, slow cells, deterministic simulator faults,
    supervisor interrupts) and a :class:`ChaosHarness`
    replays the script on a :class:`ManualClock`, so every retry, timeout,
    pool recycle, rebuild and serial-degradation path is exercised on
    purpose.

:class:`~repro.core.session.SimSession`
    :func:`evict_traces` forces LRU evictions on the shared trace cache;
    :func:`verify_trace_refill` shows a post-eviction refill reproduces the
    evicted trace bit-for-bit (staleness is impossible by construction, and
    this checks the construction).
"""

from __future__ import annotations

from concurrent.futures import process
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.session import SimSession
from ..sim.functional import SimulationError


class PoisonedCellError(RuntimeError):
    """Stands in for a worker that returned garbage (e.g. unpicklable state).

    An in-transit loss, not an experiment failure — the class-attribute hook
    :func:`repro.runtime.errors.classify_failure` honours marks it transient
    (retryable) without the taxonomy module importing this package.
    """

    transient = True


# ----------------------------------------------------------------------
# Chaos injection for the campaign service (repro.runtime.service)
# ----------------------------------------------------------------------
#: Chaos actions a dispatch slot can carry.  Slots are *dispatch* order
#: across the whole supervised run (re-dispatches get new slots), so a
#: script can say "the 3rd dispatch is SIGKILLed, its retry succeeds".
CHAOS_OK = "ok"
CHAOS_KILL = "kill"            # worker SIGKILL: the pool breaks (POSIX semantics)
CHAOS_CRASH = "crash"          # single worker death without pool collapse
CHAOS_STALL = "stall"          # wedged worker: never completes
CHAOS_SLOW = "slow"            # completes after ``slow_ticks`` ticks
CHAOS_SIM_FAULT = "sim-fault"  # the cell raises a deterministic simulator fault
CHAOS_INTERRUPT = "chaos-interrupt"  # supervisor-side interrupt (models its death)


class ManualClock:
    """A clock that moves only when told to — the chaos tests' time source."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("clocks do not run backwards")
        self._now += seconds
        return self._now


@dataclass(frozen=True)
class ChaosPolicy:
    """A deterministic script of service-layer failures, by dispatch slot or cell.

    Scripts *worker lifecycle* events against the campaign supervisor —
    kills that break the pool, stalls and slow cells that meet the per-cell
    deadline, and simulator faults that must fail fast.
    An ``int`` key scripts one dispatch slot; a ``str`` key names a cell id
    and scripts every dispatch of that cell (a cell that always hangs).
    Unscripted dispatches behave (``ok``).
    """

    script: Dict[Union[int, str], str] = field(default_factory=dict)
    #: ticks a ``slow`` dispatch stays in flight before completing.
    slow_ticks: int = 3
    #: ticks an ``ok`` dispatch stays in flight (1 = harvested next poll).
    ok_ticks: int = 1

    @classmethod
    def from_actions(cls, *actions: str, **kwargs) -> "ChaosPolicy":
        """Script slots 0..n-1 positionally: ``from_actions('kill', 'ok')``."""
        return cls(script=dict(enumerate(actions)), **kwargs)

    def action_for(self, slot: int, cell_id: str) -> str:
        return self.script.get(cell_id, self.script.get(slot, CHAOS_OK))


class _ChaosFuture:
    """A scripted stand-in for one dispatched worker future."""

    def __init__(self, fn, args, action: str, harness: "ChaosHarness") -> None:
        self._fn = fn
        self._args = args
        self.action = action
        self.harness = harness
        self.cancelled = False
        if action == CHAOS_SLOW:
            self.ticks_left = harness.policy.slow_ticks
        elif action == CHAOS_STALL:
            self.ticks_left = -1  # never completes
        else:
            self.ticks_left = harness.policy.ok_ticks

    # -- lifecycle driven by the harness tick ---------------------------
    def on_tick(self) -> None:
        if self.ticks_left > 0:
            self.ticks_left -= 1

    # -- future protocol -------------------------------------------------
    def done(self) -> bool:
        if self.action == CHAOS_STALL:
            return False
        return self.ticks_left <= 0

    def result(self, timeout: Optional[float] = None):
        if self.action == CHAOS_KILL:
            raise process.BrokenProcessPool("chaos: worker SIGKILLed, pool broken")
        if self.action == CHAOS_CRASH:
            from ..runtime.errors import WorkerCrashed

            raise WorkerCrashed("chaos: worker process died")
        if self.action == CHAOS_INTERRUPT:
            raise KeyboardInterrupt("chaos: supervisor interrupted")
        if self.action == CHAOS_SIM_FAULT:
            raise SimulationError("chaos: deterministic simulator fault")
        return self._fn(*self._args)

    def cancel(self) -> bool:
        self.cancelled = True
        return True


class ChaosExecutor:
    """Pool stand-in whose futures follow a :class:`ChaosPolicy` script."""

    def __init__(self, harness: "ChaosHarness", max_workers: Optional[int] = None) -> None:
        self.harness = harness
        self.max_workers = max_workers
        self.submitted: List[_ChaosFuture] = []
        self.shutdown_calls: List[Tuple[bool, bool]] = []

    def submit(self, fn, *args, **kwargs) -> _ChaosFuture:
        slot = self.harness.next_slot()
        action = self.harness.policy.action_for(slot, args[0].cell_id)
        future = _ChaosFuture(fn, args, action, self.harness)
        self.harness.injected[action] = self.harness.injected.get(action, 0) + 1
        self.submitted.append(future)
        self.harness.live.append(future)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Model ``ProcessPoolExecutor.shutdown``, including its blocking.

        A real ``shutdown(wait=True)`` joins every worker, so it never
        returns while a worker is wedged; here that is an ``AssertionError``
        instead of a hang, which is how the chaos matrix catches a
        supervisor that waits on a stalled dispatch.
        """
        self.shutdown_calls.append((wait, cancel_futures))
        if cancel_futures:
            for future in self.submitted:
                future.cancel()
        wedged = [f for f in self.submitted if not (f.done() or f.cancelled)]
        if wait and wedged:
            raise AssertionError(
                f"shutdown(wait=True) would block on {len(wedged)} unfinished dispatch(es)"
            )


class ChaosHarness:
    """Drives a :class:`~repro.runtime.service.CampaignSupervisor` through chaos.

    Owns the :class:`ManualClock` and the scripted executor factory.
    Installing the harness replaces the supervisor's ``_sleep`` with
    :meth:`sleep`, so each supervisor poll tick *is* a harness tick: the
    clock advances by exactly the requested interval and every live future
    gets one ``on_tick`` — deadline races become scripted sequences, never
    wall-clock races.

    Build supervisors with ``CampaignSupervisor(..., **harness.supervisor_kwargs())``
    then call :meth:`attach`.
    """

    def __init__(self, policy: ChaosPolicy) -> None:
        self.policy = policy
        self.clock = ManualClock()
        self.live: List[_ChaosFuture] = []
        self.executors: List[ChaosExecutor] = []
        self.injected: Dict[str, int] = {}
        self._slots = 0
        self.ticks = 0

    def next_slot(self) -> int:
        slot = self._slots
        self._slots += 1
        return slot

    def executor_factory(self, max_workers: Optional[int] = None, initializer=None) -> ChaosExecutor:
        """Build a scripted pool; scripted workers run no ``initializer``."""
        executor = ChaosExecutor(self, max_workers)
        self.executors.append(executor)
        return executor

    def supervisor_kwargs(self) -> Dict[str, object]:
        """Constructor kwargs that put the supervisor on harness time."""
        return {"clock": self.clock.now, "executor_factory": self.executor_factory}

    def attach(self, supervisor) -> None:
        supervisor._sleep = self.sleep

    def sleep(self, seconds: float) -> None:
        self.ticks += 1
        self.clock.advance(seconds)
        for future in list(self.live):
            future.on_tick()


# ----------------------------------------------------------------------
# SimSession cache faults
# ----------------------------------------------------------------------
def evict_traces(session: SimSession, keep: int = 0) -> int:
    """Force LRU eviction down to ``keep`` cached traces; returns evicted count."""
    evicted = 0
    while len(session._traces) > max(0, keep):
        _, trace = session._traces.popitem(last=False)
        session._trace_resident_bytes -= session._trace_cost(trace)
        evicted += 1
    return evicted


def verify_trace_refill(session: SimSession, **ref_trace_kwargs) -> bool:
    """Prove a forced eviction is recoverable: refill equals the original."""
    before = session.ref_trace(**ref_trace_kwargs)
    evict_traces(session, keep=0)
    after = session.ref_trace(**ref_trace_kwargs)
    return before == after
