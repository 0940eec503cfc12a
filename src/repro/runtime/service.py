"""Campaign execution: one supervisor, in-process or over a worker pool.

:class:`CampaignSupervisor` is the only cell executor.  It owns a campaign's
grid and journal and takes every cell to exactly one terminal journal
state.  With ``spec.jobs == 1`` it runs the cells one after another in its
own process (serial mode); with ``jobs > 1`` it dispatches them to a pool of
worker processes, which adds surviving **worker** failure mid-campaign to
the journal's crash safety:

* every dispatched cell has a **per-cell deadline** (``cell_timeout``, from
  :func:`derive_cell_timeout`); a cell past it — its worker wedged,
  SIGSTOPped or livelocked — fails with ``TimeoutError`` and the supervisor
  **recycles the pool**: the workers are killed, every other in-flight cell
  goes back to the queue without being charged an attempt, and a fresh pool
  takes over.  No killed worker can deliver a late result, so each cell
  reaches exactly one terminal journal state;
* worker death that breaks the whole ``ProcessPoolExecutor`` (POSIX kills
  any sibling futures with ``BrokenProcessPool``) triggers a bounded **pool
  rebuild**; past the rebuild budget the supervisor **degrades to serial**
  execution in its own process — a collapsed pool costs throughput, never
  results.  Deadline recycles do not count against that budget, and serial
  mode (``jobs == 1`` or degraded) has no per-cell deadline;
* in both modes failures are routed through the taxonomy
  (:func:`~repro.runtime.errors.classify_failure`): transient ones
  (:class:`~repro.runtime.errors.WorkerCrashed`, timeouts) are retried
  behind the deterministic backoff schedule
  (:func:`~repro.runtime.retry.backoff_delays`, elapsed-capped);
  deterministic ones fail fast with the diagnostic preserved;
* every terminal state goes through the
  :class:`~repro.runtime.journal.RunJournal`, plus ``note`` event records
  (dispatches, timeouts, rebuilds, degradation) so a post-mortem can replay
  the supervisor's decisions; supervisor SIGKILL is therefore just another
  resume (:func:`resume_campaign`).  The pool is always torn down by killing
  its workers, never by waiting on them, so a stopped worker cannot hang
  the supervisor;
* with a :class:`~repro.runtime.store.ResultStore` the supervisor alone
  touches it: one pre-pass read per cell before anything is dispatched,
  one write per freshly committed result.  Workers only simulate.

All time flows through an injectable clock and all waiting through an
injectable ``sleep``, so the chaos harness (:mod:`repro.testing.faults`)
scripts kills, stalls and races deterministically instead of racing the
wall clock.
"""

from __future__ import annotations

import signal
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, process
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..core.experiment import ExperimentResult, ExperimentRunner
from ..core.metrics import get_metrics
from ..uarch.config import MachineConfig
from ..uarch.recovery import RecoveryScheme
from .campaign import (
    CampaignReport,
    CampaignSpec,
    SuiteCell,
    _verify_batch_sidecar,
    _write_batch_sidecar,
    build_report,
    compute_batch_digests,
    deliver_sigterm_as_interrupt,
)
from .errors import DETERMINISTIC, WorkerCrashed, classify_failure, is_timeout
from .journal import OK, JournalError, RunJournal, new_run_id
from .retry import backoff_delays
from .store import ResultStore, cell_store_key

#: Supervisor poll cadence (seconds): how often futures and cell deadlines
#: are re-examined.  Chaos tests replace ``_sleep`` so this is wall-clock
#: cost only, never a correctness parameter.
DEFAULT_POLL_INTERVAL = 0.05


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
    machine: MachineConfig,
    max_instructions: int,
    threshold: float,
    scale: float,
) -> ExperimentResult:
    """Run one cell in this process's session.

    Top-level so it pickles: pool workers run it directly, and serial mode
    calls it in the supervisor's process.
    """
    runner = ExperimentRunner(
        cell.workload,
        scale=scale,
        machine=machine,
        max_instructions=max_instructions,
        threshold=threshold,
    )
    return runner.run(cell.config, recovery=RecoveryScheme.parse(cell.recovery))


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _restore_default_sigterm() -> None:
    """Pool initializer: a SIGTERMed worker dies instead of raising.

    Forked workers inherit the supervisor's SIGTERM -> ``KeyboardInterrupt``
    handler (:func:`~repro.runtime.campaign.deliver_sigterm_as_interrupt`);
    with it a worker would ship the interrupt back as its cell's result and
    abort the whole campaign.  With the default action the worker dies like
    a SIGKILLed one and the pool-rebuild path re-runs its cell.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """One cell waiting for (re-)dispatch."""

    cell: SuiteCell
    attempts: int = 0
    not_before: float = 0.0
    #: Remaining backoff schedule (filled on first transient failure).
    schedule: Optional[List[float]] = None
    first_error: Optional[str] = None


@dataclass
class _Dispatch:
    """One in-flight (cell, future) pairing."""

    cell: SuiteCell
    future: object
    worker_tag: str
    started: float
    attempts: int
    #: The queue entry this attempt came from: carries the retry context.
    entry: _Pending


@dataclass
class ServiceStats:
    """Supervisor-side counters, journaled at shutdown and asserted by chaos tests."""

    dispatched: int = 0
    completed: int = 0
    store_hits: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    degraded_serial: bool = False

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class CampaignSupervisor:
    """Run one campaign: in-process at ``spec.jobs == 1``, else over a worker pool."""

    #: Executor factory, ``callable(max_workers=n, initializer=f)``; the
    #: chaos harness substitutes a scripted executor here.
    executor_factory = ProcessPoolExecutor

    #: Injectable wait primitive — the chaos harness replaces this with a
    #: function that advances its manual clock and ticks the scripted futures.
    _sleep = staticmethod(time.sleep)

    def __init__(
        self,
        spec: CampaignSpec,
        out_dir: str,
        store: Optional[ResultStore] = None,
        retries: int = 2,
        cell_timeout: Optional[float] = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        max_pool_rebuilds: int = 2,
        clock: Optional[Callable[[], float]] = None,
        executor_factory=None,
    ) -> None:
        self.spec = spec
        self.out_dir = out_dir
        self.workers = max(1, spec.jobs)
        self.store = store
        self.machine = spec.build_machine()
        #: The machine's canonical store-key payload, encoded once.
        self._machine_payload = asdict(self.machine)
        #: workload -> input -> content digest, pinned by :meth:`run` or
        #: :meth:`resume` from the drift sidecar; part of every store key.
        self.batch_digests: Dict[str, Dict[str, str]] = {}
        self.retries = max(0, retries)
        self.cell_timeout = (
            derive_cell_timeout(spec.max_instructions) if cell_timeout is None else cell_timeout
        )
        self.retry_deadline = self.cell_timeout
        self.poll_interval = poll_interval
        self.max_pool_rebuilds = max(0, max_pool_rebuilds)
        #: Zero-argument time source; production reads ``time.monotonic``.
        self.now = clock if clock is not None else time.monotonic
        self.stats = ServiceStats()
        if executor_factory is not None:
            self.executor_factory = executor_factory
        self._dispatch_counter = 0

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, run_id: Optional[str] = None) -> CampaignReport:
        """Execute a fresh campaign (new journal under ``out_dir``)."""
        run_id = run_id if run_id is not None else new_run_id()
        journal = RunJournal.create(
            self.out_dir, run_id, self.spec.config_dict(), self.spec.cell_ids()
        )
        self.batch_digests = compute_batch_digests(self.spec)
        _write_batch_sidecar(self.out_dir, run_id, self.batch_digests)
        report = self._supervise(journal, self.spec.cells(), restored={}, resumed=False)
        report.batch_digests = self.batch_digests
        return report

    def resume(self, run_id: str) -> CampaignReport:
        """Resume a campaign after supervisor death (SIGKILL, crash, interrupt).

        The journal is authoritative: ``ok`` cells are restored from their
        stored payloads, every other cell re-enters the dispatch queue.  The
        spec this supervisor was built with is verified against the header
        fingerprint, so a drifted grid is refused, not merged.
        """
        journal = RunJournal.find(self.out_dir, run_id)
        journal.verify_config(self.spec.config_dict())
        restored: Dict[str, ExperimentResult] = {}
        for cell_id, entry in journal.states().items():
            if entry.get("status") == OK and entry.get("result"):
                restored[cell_id] = ExperimentResult.from_dict(entry["result"])
        pending_ids = set(journal.pending_cells())
        cells = [cell for cell in self.spec.cells() if cell.cell_id in pending_ids]
        self.batch_digests = _verify_batch_sidecar(self.out_dir, run_id, self.spec, journal)
        report = self._supervise(journal, cells, restored=restored, resumed=True)
        report.batch_digests = self.batch_digests
        return report

    # ------------------------------------------------------------------
    # Store addressing
    # ------------------------------------------------------------------
    def store_key(self, cell: SuiteCell) -> str:
        """The cell's store address (once :meth:`run` or :meth:`resume` has
        pinned the workload content digests it includes)."""
        return cell_store_key(
            cell.cell_id,
            self._machine_payload,
            self.spec.max_instructions,
            self.spec.threshold,
            self.spec.scale,
            self.batch_digests[cell.workload],
        )

    # ------------------------------------------------------------------
    # Core supervision loop
    # ------------------------------------------------------------------
    def _supervise(
        self,
        journal: RunJournal,
        cells: Sequence[SuiteCell],
        restored: Dict[str, ExperimentResult],
        resumed: bool,
    ) -> CampaignReport:
        metrics = get_metrics()
        journal.note(
            "service_start",
            workers=self.workers,
            cell_timeout=self.cell_timeout,
            resumed=resumed,
            cells=len(cells),
        )
        pending: "OrderedDict[str, _Pending]" = OrderedDict(
            (cell.cell_id, _Pending(cell=cell)) for cell in cells
        )
        inflight: Dict[str, _Dispatch] = {}
        fresh: Dict[str, ExperimentResult] = {}
        pool = None
        rebuilds = 0
        used_processes = False

        # Store pre-pass, the store's only read: hit cells never enter the
        # queue, and every other cell's result is written once, on commit.
        if self.store is not None:
            for cell_id in list(pending):
                payload = self.store.get(self.store_key(pending[cell_id].cell))
                if payload is None:
                    continue
                try:
                    result = ExperimentResult.from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    continue
                entry = pending.pop(cell_id)
                fresh[cell_id] = result
                self.stats.store_hits += 1
                journal.record(entry.cell.cell_id, "ok", attempts=0, elapsed_s=0.0, result=payload)

        serial = self.workers <= 1
        try:
            with deliver_sigterm_as_interrupt():
                while pending or inflight:
                    if not serial and pool is None:
                        try:
                            pool = self.executor_factory(
                                max_workers=max(1, min(self.workers, len(pending))),
                                initializer=_restore_default_sigterm,
                            )
                            used_processes = True
                        except (OSError, RuntimeError) as exc:
                            journal.note("pool_unavailable", error=repr(exc))
                            serial = True
                    if serial:
                        self._drain_serial(journal, pending, fresh)
                        break
                    try:
                        # Both submitting into a broken pool and harvesting a
                        # dead worker's future raise BrokenProcessPool; the
                        # kill can land between polls, so dispatch needs the
                        # same collapse handling as the harvest.
                        self._dispatch_ready(pool, journal, pending, inflight)
                        self._poll_inflight(journal, pending, inflight, fresh)
                    except process.BrokenProcessPool as exc:
                        rebuilds += 1
                        self.stats.pool_rebuilds += 1
                        metrics.inc("service.pool_rebuilds")
                        self._reclaim_all(journal, pending, inflight, exc)
                        self._abandon_pool(pool)
                        pool = None
                        if rebuilds > self.max_pool_rebuilds:
                            journal.note("degrade_serial", rebuilds=rebuilds)
                            self.stats.degraded_serial = True
                            metrics.inc("service.degraded_serial")
                            serial = True
                        continue
                    if self._time_out_overdue(journal, pending, inflight):
                        # The overdue worker may be wedged for good: recycle
                        # the pool (not a rebuild, so no step toward serial).
                        self._abandon_pool(pool)
                        pool = None
                        continue
                    if pending or inflight:
                        self._sleep(self.poll_interval)
            if pool is not None:
                self._abandon_pool(pool)  # nothing is in flight: no result lost
                pool = None
        except KeyboardInterrupt:
            journal.note("interrupted", inflight=len(inflight), pending=len(pending))
            journal.flush()
            journal.close()
            if pool is not None:
                self._abandon_pool(pool)
            raise

        journal.note("service_done", **self.stats.to_dict())
        report = build_report(
            self.spec, journal, restored, fresh, resumed=resumed,
            executed=len(cells), used_processes=used_processes,
            store_hits=self.stats.store_hits,
        )
        journal.close()
        return report

    # ------------------------------------------------------------------
    # Loop pieces
    # ------------------------------------------------------------------
    @staticmethod
    def _abandon_pool(pool) -> None:
        """Tear down an executor we are done with, without blocking on workers.

        A SIGKILLed worker can die holding the shared call-queue lock,
        leaving its siblings deadlocked inside ``call_queue.get``, and a
        SIGSTOPped one never exits at all; a waiting ``shutdown`` would then
        hang (or leak the deadlocked processes past interpreter exit).  The
        caller has nothing in flight it still wants, so no result can be
        lost: kill the workers first, then shut down without waiting.
        """
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.kill()
            except (AttributeError, OSError):
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # executors without cancel_futures
            pool.shutdown(wait=False)

    def _next_tag(self) -> str:
        self._dispatch_counter += 1
        return f"d{self._dispatch_counter}"

    def _dispatch_ready(self, pool, journal, pending, inflight) -> None:
        """Submit every dispatchable pending cell to a free worker slot."""
        now = self.now()
        for cell_id in list(pending):
            if len(inflight) >= self.workers:
                return
            entry = pending[cell_id]
            if entry.not_before > now:
                continue
            tag = self._next_tag()
            future = pool.submit(
                _run_cell,
                entry.cell,
                self.machine,
                self.spec.max_instructions,
                self.spec.threshold,
                self.spec.scale,
            )
            del pending[cell_id]
            inflight[cell_id] = _Dispatch(
                cell=entry.cell, future=future, worker_tag=tag,
                started=now, attempts=entry.attempts + 1, entry=entry,
            )
            self.stats.dispatched += 1
            get_metrics().inc("service.dispatches")
            journal.note("dispatch", cell=cell_id, worker=tag, attempt=entry.attempts + 1)

    def _poll_inflight(self, journal, pending, inflight, fresh) -> None:
        """Harvest completed futures; raise ``BrokenProcessPool`` upward."""
        for cell_id in list(inflight):
            dispatch = inflight[cell_id]
            future = dispatch.future
            if not future.done():
                continue
            del inflight[cell_id]
            try:
                result = future.result()
            except process.BrokenProcessPool:
                inflight[cell_id] = dispatch  # reclaimed by the rebuild path
                raise
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                self._handle_failure(journal, pending, dispatch, exc)
                continue
            self._commit_outcome(journal, fresh, dispatch, result)

    def _commit_outcome(self, journal, fresh, dispatch: _Dispatch, result) -> None:
        """Journal one cell's result as ``ok``, then write it to the store (its one writer)."""
        cell = dispatch.cell
        payload = result.to_dict()
        elapsed = self.now() - dispatch.started
        journal.record(cell.cell_id, "ok", attempts=dispatch.attempts, elapsed_s=elapsed, result=payload)
        fresh[cell.cell_id] = result
        self.stats.completed += 1
        if self.store is not None:
            try:
                self.store.put(self.store_key(cell), payload, cell_id=cell.cell_id)
            except OSError:
                pass  # the store accelerates; it never fails a cell

    def _handle_failure(self, journal, pending, dispatch: _Dispatch, exc: Exception) -> None:
        """Route one failed attempt through the taxonomy: retry or commit.

        Deterministic failures are final (replaying deterministic code on
        deterministic inputs replays the failure); transient ones re-enter
        ``pending`` behind the cell's backoff schedule until it runs out.  A
        cell that fails after a retry cites both its first and last error.
        """
        cell = dispatch.cell
        kind = classify_failure(exc)
        prior = dispatch.entry
        if kind != DETERMINISTIC:
            if prior.schedule is None:
                prior.schedule = list(
                    backoff_delays(
                        self.retries,
                        seed=(cell.workload, cell.config, cell.recovery),
                        deadline=self.retry_deadline,
                    )
                )
                prior.first_error = f"{exc!r}"
            if dispatch.attempts <= len(prior.schedule):
                delay = prior.schedule[dispatch.attempts - 1]
                prior.attempts = dispatch.attempts
                prior.not_before = self.now() + delay
                pending[cell.cell_id] = prior
                get_metrics().inc("service.redispatches")
                journal.note(
                    "redispatch_scheduled", cell=cell.cell_id, attempt=dispatch.attempts,
                    delay_s=round(delay, 6), error=repr(exc),
                )
                return
        message = (
            f"first: {prior.first_error}; retry: {exc!r}" if dispatch.attempts > 1 else f"{exc!r}"
        )
        self._commit_failure(journal, dispatch, message, kind, timed_out=is_timeout(exc))

    def _commit_failure(self, journal, dispatch: _Dispatch, message, kind, timed_out=False) -> None:
        status = "timeout" if timed_out else "failed"
        elapsed = self.now() - dispatch.started
        journal.record(
            dispatch.cell.cell_id, status, attempts=dispatch.attempts,
            elapsed_s=elapsed, error=message, error_kind=kind,
        )
        self.stats.completed += 1

    def _time_out_overdue(self, journal, pending, inflight) -> bool:
        """Enforce the per-cell deadline; True when the pool must be recycled.

        Each cell past ``cell_timeout`` fails with ``TimeoutError`` (retried,
        or committed ``timeout`` once its retries run out).  Its worker may
        never come back, so the pool goes with it: every other in-flight
        cell returns to ``pending`` at its current attempt count — it did
        nothing wrong, so it is not charged an attempt.
        """
        now = self.now()
        overdue = [
            cell_id for cell_id, dispatch in inflight.items()
            if now - dispatch.started > self.cell_timeout
        ]
        if not overdue:
            return False
        requeued = [cell_id for cell_id in inflight if cell_id not in overdue]
        for cell_id in requeued:
            pending[cell_id] = inflight.pop(cell_id).entry
        for cell_id in overdue:
            dispatch = inflight.pop(cell_id)
            self.stats.timeouts += 1
            get_metrics().inc("service.timeouts")
            journal.note(
                "cell_timeout", cell=cell_id, worker=dispatch.worker_tag,
                attempt=dispatch.attempts, requeued=requeued,
            )
            self._handle_failure(
                journal, pending, dispatch,
                TimeoutError(f"cell exceeded {self.cell_timeout:.1f}s wall-clock cap"),
            )
        return True

    def _reclaim_all(self, journal, pending, inflight, cause: Exception) -> None:
        """Pool collapse: every in-flight cell fails as a worker crash (retried while it can)."""
        journal.note("pool_broken", inflight=len(inflight), error=repr(cause))
        for cell_id in list(inflight):
            dispatch = inflight.pop(cell_id)
            self._handle_failure(
                journal, pending, dispatch,
                WorkerCrashed(f"pool broken while running {cell_id!r}: {cause!r}"),
            )

    # ------------------------------------------------------------------
    # Serial mode
    # ------------------------------------------------------------------
    def _drain_serial(self, journal, pending, fresh) -> None:
        """Run every remaining cell in the supervisor process.

        The whole campaign at ``jobs == 1``; the rest of it after the pool
        could not be built or collapsed past its rebuild budget.  Cells
        requeued by transient failures re-enter ``pending`` and are picked
        up by the same loop, so serial mode still honours the retry
        schedule before reaching a terminal state for every cell.
        """
        while pending:
            cell_id = next(iter(pending))
            entry = pending.pop(cell_id)
            wait = entry.not_before - self.now()
            if wait > 0:
                self._sleep(wait)
            started = self.now()
            dispatch = _Dispatch(
                cell=entry.cell, future=None, worker_tag="serial", started=started, attempts=entry.attempts + 1, entry=entry,
            )
            try:
                result = _run_cell(
                    entry.cell, self.machine, self.spec.max_instructions,
                    self.spec.threshold, self.spec.scale,
                )
            except KeyboardInterrupt:
                pending[cell_id] = entry  # still pending for the resume
                raise
            except Exception as exc:
                self._handle_failure(journal, pending, dispatch, exc)
                continue
            self._commit_outcome(journal, fresh, dispatch, result)


# ----------------------------------------------------------------------
# Functional entry points
# ----------------------------------------------------------------------
def run_campaign(
    spec: CampaignSpec,
    out_dir: str,
    run_id: Optional[str] = None,
    store: Optional[ResultStore] = None,
    **supervisor_kwargs,
) -> CampaignReport:
    """Execute a fresh campaign with a new journal under ``out_dir``."""
    supervisor = CampaignSupervisor(spec, out_dir, store=store, **supervisor_kwargs)
    return supervisor.run(run_id=run_id)


def resume_campaign(
    out_dir: str,
    run_id: str,
    spec: Optional[CampaignSpec] = None,
    jobs: Optional[int] = None,
    store: Optional[ResultStore] = None,
    **supervisor_kwargs,
) -> CampaignReport:
    """Finish an interrupted campaign: restore ``ok`` cells, run the rest.

    The journal header is authoritative for the grid.  A caller-supplied
    ``spec`` is *verified* against the stored fingerprint (and rejected on
    mismatch) rather than trusted; with no spec, the grid is reconstructed
    from the header, so ``repro run --resume <id>`` needs nothing but the id.
    ``jobs`` defaults to the spec's, else 1.
    """
    if spec is None:
        journal = RunJournal.find(out_dir, run_id)
        try:
            spec = CampaignSpec.from_config(journal.config)
        except (KeyError, TypeError, ValueError) as exc:
            raise JournalError(
                f"journal of run {run_id!r} does not describe a campaign grid: {exc!r}"
            ) from exc
        finally:
            journal.close()
    if jobs is not None:
        spec = spec.with_jobs(jobs)
    supervisor = CampaignSupervisor(spec, out_dir, store=store, **supervisor_kwargs)
    return supervisor.resume(run_id)
