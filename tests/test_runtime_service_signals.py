"""Real worker processes under signals the chaos harness cannot model.

SIGSTOP freezes a worker without killing it, so nothing but the per-cell
deadline notices, and a pool that still holds the frozen process can never
be shut down by waiting.  SIGTERM is a polite kill that a forked worker must
not turn into the supervisor's own interrupt.  SIGKILL of the supervisor
itself leaves nothing to tear the pool down, so its workers must notice and
exit on their own.

Each case runs a four-cell, two-worker campaign on a real
``ProcessPoolExecutor`` (through ``executor_factory``), signals its workers
at a scripted moment, and requires the supervisor to return within the
per-cell deadline plus slack, with exactly one ``ok`` record per cell and
results equal to a serial run.  A watchdog SIGKILLs every worker once a
bound passes, so a supervisor that waits on a frozen worker fails here
instead of hanging the suite.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.runtime.campaign import CampaignSpec
from repro.runtime.journal import journal_path
from repro.runtime.service import CampaignSupervisor, run_campaign

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGSTOP") or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs POSIX job-control signals and fork-started workers",
)

SPEC = CampaignSpec(
    workloads=("li", "go"),
    configs=("no_predict", "lvp"),
    recoveries=("selective",),
    max_instructions=1500,
    jobs=2,
)

#: Per-cell deadline: far above a healthy 1.5k-instruction cell (well under
#: a second), far below the production floor of 60 s.
CELL_TIMEOUT = 4.0
#: Room for pool start-up, retry backoff and re-running the timed-out cells.
SLACK = 12.0
#: When the watchdog SIGKILLs every worker: past any passing run.
WATCHDOG_S = CELL_TIMEOUT + SLACK + 10.0
#: How long a worker stays busy after marking itself, before its cell runs:
#: cells on a session warmed by the serial run take milliseconds, and a
#: signal sent on the marker must land while the worker is inside its cell.
BUSY_S = 0.25


def _marked(marker_dir, fn, *args):
    """Worker-side shim: leave this worker's pid in ``marker_dir``, then run ``fn``."""
    open(os.path.join(marker_dir, str(os.getpid())), "w").close()
    time.sleep(BUSY_S)
    return fn(*args)


def _signal(pid: int, signum: int) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass  # already gone: the supervisor tore its pool down first


class _Pool(ProcessPoolExecutor):
    """A real pool whose tasks mark their worker busy and report completion.

    Workers are forked (the Linux default before Python 3.14), so they
    inherit the supervisor's signal handlers exactly as production workers
    do there.
    """

    def __init__(self, owner: "_Pools", **kwargs) -> None:
        super().__init__(mp_context=multiprocessing.get_context("fork"), **kwargs)
        self.owner = owner

    def submit(self, fn, *args):
        future = super().submit(_marked, self.owner.marker_dir, fn, *args)
        future.add_done_callback(self.owner.harvested)
        return future


class _Pools:
    """``executor_factory`` building real pools whose workers the test signals."""

    def __init__(self, marker_dir: str) -> None:
        self.marker_dir = marker_dir
        self.pools = []
        self.stopped = []
        self.watchdog_fired = False
        self.on_all_done = None
        self._ok = 0
        self._done = threading.Event()
        self._watchdog = None

    def __call__(self, **kwargs) -> _Pool:
        pool = _Pool(self, **kwargs)
        self.pools.append(pool)
        return pool

    def workers(self):
        pids = []
        for pool in self.pools:
            pids += [proc.pid for proc in list((getattr(pool, "_processes", None) or {}).values())]
        return pids

    # -- scripted signals ------------------------------------------------
    def stop(self, pid: int) -> None:
        """SIGSTOP one worker and arm the watchdog."""
        _signal(pid, signal.SIGSTOP)
        self.stopped.append(pid)
        if self._watchdog is None:
            self._watchdog = threading.Thread(target=self._watch, daemon=True)
            self._watchdog.start()

    def when_busy(self, count: int, act) -> None:
        """Call ``act(pids)`` once ``count`` workers have started a cell."""

        def poll():
            deadline = time.monotonic() + WATCHDOG_S
            while time.monotonic() < deadline and not self._done.is_set():
                busy = [int(name) for name in os.listdir(self.marker_dir)]
                if len(busy) >= count:
                    act(busy[:count])
                    return
                time.sleep(0.01)

        threading.Thread(target=poll, daemon=True).start()

    def harvested(self, future) -> None:
        """Done-callback: fire ``on_all_done`` when every cell has a result."""
        if future.cancelled() or future.exception() is not None:
            return
        self._ok += 1
        if self._ok == len(SPEC.cell_ids()) and self.on_all_done is not None:
            self.on_all_done()

    def _watch(self) -> None:
        if not self._done.wait(WATCHDOG_S):
            self.watchdog_fired = True
            for pid in self.workers() + self.stopped:
                _signal(pid, signal.SIGKILL)

    def close(self) -> None:
        self._done.set()
        for pid in self.stopped:
            _signal(pid, signal.SIGKILL)


@pytest.fixture(scope="module")
def serial_payloads(tmp_path_factory):
    report = run_campaign(SPEC.with_jobs(1), str(tmp_path_factory.mktemp("serial")), run_id="golden")
    assert report.complete
    return _payloads(report)


@pytest.fixture
def pools(tmp_path):
    marker_dir = tmp_path / "busy"
    marker_dir.mkdir()
    pools = _Pools(str(marker_dir))
    yield pools
    pools.close()


def _payloads(report):
    return sorted(json.dumps(r.to_dict(), sort_keys=True) for r in report.results)


def _supervise(tmp_path, pools, serial_payloads) -> CampaignSupervisor:
    """Run the campaign and check the common acceptance bar."""
    supervisor = CampaignSupervisor(
        SPEC, str(tmp_path / "runs"), cell_timeout=CELL_TIMEOUT, executor_factory=pools
    )
    start = time.monotonic()
    try:
        report = supervisor.run(run_id="r")
    except KeyboardInterrupt:
        pytest.fail("a signalled worker aborted the whole campaign")
    elapsed = time.monotonic() - start

    assert not pools.watchdog_fired, "the supervisor waited on a stopped worker"
    assert elapsed < CELL_TIMEOUT + SLACK
    assert report.complete
    counts = {}
    with open(journal_path(supervisor.out_dir, "r")) as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("type") == "cell" and entry.get("status") == "ok":
                counts[entry["id"]] = counts.get(entry["id"], 0) + 1
    assert counts == {cell_id: 1 for cell_id in SPEC.cell_ids()}
    assert _payloads(report) == serial_payloads
    return supervisor


def test_sigstop_every_busy_worker_times_out_and_recycles_the_pool(tmp_path, pools, serial_payloads):
    pools.when_busy(SPEC.jobs, lambda pids: [pools.stop(pid) for pid in pids])
    supervisor = _supervise(tmp_path, pools, serial_payloads)
    assert pools.stopped
    assert supervisor.stats.timeouts >= 1
    assert supervisor.stats.pool_rebuilds == 0
    assert len(pools.pools) >= 2


def test_sigstop_idle_worker_before_teardown_does_not_hang(tmp_path, pools, serial_payloads):
    pools.on_all_done = lambda: pools.stop(pools.workers()[0])
    supervisor = _supervise(tmp_path, pools, serial_payloads)
    assert pools.stopped
    assert supervisor.stats.timeouts == 0
    assert len(pools.pools) == 1


def _pool_workers(pid: int):
    """Pids of ``pid``'s children other than a multiprocessing resource
    tracker (scans ``/proc``)."""
    found = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                with open(f"/proc/{name}/cmdline", "rb") as handle:
                    cmdline = handle.read()
            except OSError:
                continue
            if int(fields[1]) == pid and b"resource_tracker" not in cmdline:
                found.append(int(name))
    return found


def _alive(pid: int) -> bool:
    """Is ``pid`` a live process (not gone, not a zombie awaiting reaping)?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to find pool workers")
def test_sigkilled_supervisor_takes_its_pool_workers_down(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    supervisor = subprocess.Popen(
        [sys.executable, "-m", "repro", "suite", "--config", "no_predict", "lvp", "--jobs", "2",
         "--max-insts", "4000", "--out-dir", str(tmp_path / "runs"), "--run-id", "orphans"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []
    try:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and supervisor.poll() is None:
            workers = _pool_workers(supervisor.pid)
            if len(workers) >= 2:
                break
            time.sleep(0.02)
        assert len(workers) >= 2, "the supervisor never brought its pool up"
        supervisor.kill()
        supervisor.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(_alive(pid) for pid in workers):
            time.sleep(0.1)
        survivors = [pid for pid in workers if _alive(pid)]
        assert not survivors, f"pool workers outlived their SIGKILLed supervisor: {survivors}"
    finally:
        if supervisor.poll() is None:
            supervisor.kill()
            supervisor.wait()
        for pid in workers:
            _signal(pid, signal.SIGKILL)


#: A stand-in supervisor: fork one worker that starts its orphan watch only
#: once the supervisor is dead, print the worker's pid, then wait to be killed.
_LATE_WATCH = """
import os, time
from repro.runtime.service import _exit_when_orphaned
supervisor = os.getpid()
worker = os.fork()
if worker == 0:
    while os.getppid() == supervisor:
        time.sleep(0.01)
    _exit_when_orphaned(supervisor)
    os._exit(0)
print(worker, flush=True)
time.sleep(60)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to see zombies")
def test_worker_orphaned_before_its_watch_starts_exits():
    # A worker forked just before its supervisor is SIGKILLed runs its pool
    # initializer afterwards, while the unreaped supervisor is still a zombie
    # that answers kill(pid, 0).
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    supervisor = subprocess.Popen(
        [sys.executable, "-c", _LATE_WATCH], env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE, text=True,
    )
    worker = None
    try:
        worker = int(supervisor.stdout.readline())
        supervisor.kill()  # not reaped until the worker is judged
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and _alive(worker):
            time.sleep(0.05)
        assert not _alive(worker), "a worker orphaned before its watch started lived on"
    finally:
        supervisor.kill()
        supervisor.wait()
        supervisor.stdout.close()
        if worker is not None:
            _signal(worker, signal.SIGKILL)


def test_sigterm_busy_worker_rebuilds_the_pool(tmp_path, pools, serial_payloads):
    pools.when_busy(1, lambda pids: _signal(pids[0], signal.SIGTERM))
    supervisor = _supervise(tmp_path, pools, serial_payloads)
    assert supervisor.stats.pool_rebuilds == 1
    assert not supervisor.stats.degraded_serial
