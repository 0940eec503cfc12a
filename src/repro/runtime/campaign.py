"""Crash-safe, resumable experiment campaigns: the grid and its records.

A *campaign* is one (workload × config × recovery) grid executed by
:class:`~repro.runtime.service.CampaignSupervisor` and checkpointed
cell-by-cell into a :class:`~repro.runtime.journal.RunJournal`.  This module
holds the parts that do not depend on how cells execute: the fingerprintable
:class:`CampaignSpec`, the :class:`SuiteCell` unit of work, the
content-digest drift sidecar, and the :class:`CampaignReport` assembled from
the journal.  The contract:

* **Crash-safe.**  Every terminal cell state (``ok`` with the serialized
  result, ``failed``/``timeout`` with the diagnostic and its taxonomy kind)
  is fsynced before the campaign moves on.  SIGINT and SIGTERM cancel queued
  cells without waiting on running ones and flush the journal first; SIGKILL
  at worst tears the final journal line, which replay tolerates.
* **Resumable.**  ``resume_campaign`` re-opens the journal, verifies the
  stored config fingerprint (the journal header is the source of truth for
  the grid — a changed grid is an error, not a merge), restores every ``ok``
  cell from its stored payload without re-simulating, and re-executes only
  the non-``ok`` cells.  A campaign killed at 50% therefore finishes the
  remaining 50% and produces the identical
  :class:`~repro.core.results.ResultTable` an uninterrupted run would have.

The machine configuration is referenced *by name* (``table1`` /
``aggressive``) so it participates in the config fingerprint; everything
else in the spec is plain numbers and strings for the same reason.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple

from ..core.experiment import CONFIG_NAMES, ExperimentResult
from ..core.session import get_session
from ..uarch.config import MachineConfig, aggressive_config, table1_config
from ..uarch.recovery import RecoveryScheme
from ..workloads.suite import WORKLOAD_CLASSES
from .atomic import atomic_write_json
from .journal import OK, PENDING, JournalError, RunJournal

#: Machine configurations a campaign can name (names go into the fingerprint).
MACHINE_FACTORIES: Dict[str, Callable[[], MachineConfig]] = {
    "table1": table1_config,
    "aggressive": aggressive_config,
}


@dataclass(frozen=True)
class SuiteCell:
    """One (workload, config, recovery) unit of campaign work."""

    workload: str
    config: str
    recovery: str

    @property
    def cell_id(self) -> str:
        """The journal identity of this cell (``workload/config/recovery``)."""
        return f"{self.workload}/{self.config}/{self.recovery}"


@dataclass(frozen=True)
class CampaignSpec:
    """The complete, fingerprintable description of one campaign grid."""

    workloads: Tuple[str, ...]
    configs: Tuple[str, ...]
    recoveries: Tuple[str, ...] = ("selective",)
    machine: str = "table1"
    max_instructions: int = 40_000
    threshold: float = 0.8
    scale: float = 1.0
    #: Worker processes; 1 runs every cell in the supervisor's own process.
    jobs: int = 1

    def __post_init__(self) -> None:
        # Reject unknown names here, before a journal exists: a grid naming
        # one would otherwise fail every cell or leave an unresumable journal.
        for axis, names, known in (
            ("workloads", self.workloads, sorted(WORKLOAD_CLASSES)),
            ("configs", self.configs, list(CONFIG_NAMES)),
            ("recoveries", self.recoveries, [s.value for s in RecoveryScheme]),
        ):
            unknown = [name for name in names if name not in known]
            if unknown:
                raise ValueError(f"{axis}: unknown name {unknown[0]!r}; choose from {known}")
        if self.machine not in MACHINE_FACTORIES:
            raise ValueError(
                f"unknown machine {self.machine!r}; choose from {sorted(MACHINE_FACTORIES)}"
            )
        if self.max_instructions < 1:
            raise ValueError(f"max_instructions must be at least 1, got {self.max_instructions}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be between 0 and 1, got {self.threshold}")

    # -- identity -------------------------------------------------------
    def config_dict(self) -> Dict[str, object]:
        """The canonical payload stored (and fingerprinted) in the journal.

        ``jobs`` is deliberately excluded: parallelism changes scheduling,
        never results, so resuming with a different ``--jobs`` is legal.
        """
        return {
            "workloads": list(self.workloads),
            "configs": list(self.configs),
            "recoveries": list(self.recoveries),
            "machine": self.machine,
            "max_instructions": self.max_instructions,
            "threshold": self.threshold,
            "scale": self.scale,
        }

    @classmethod
    def from_config(cls, config: Dict[str, object], jobs: int = 1) -> "CampaignSpec":
        """Rebuild a spec from a journal header (every :meth:`config_dict` key)."""
        return cls(
            workloads=tuple(config["workloads"]),
            configs=tuple(config["configs"]),
            recoveries=tuple(config["recoveries"]),
            machine=str(config["machine"]),
            max_instructions=int(config["max_instructions"]),
            threshold=float(config["threshold"]),
            scale=float(config["scale"]),
            jobs=jobs,
        )

    # -- materialization ------------------------------------------------
    def cells(self) -> List[SuiteCell]:
        return [
            SuiteCell(workload, config, recovery)
            for workload in self.workloads
            for config in self.configs
            for recovery in self.recoveries
        ]

    def cell_ids(self) -> List[str]:
        return [cell.cell_id for cell in self.cells()]

    def build_machine(self) -> MachineConfig:
        return MACHINE_FACTORIES[self.machine]()

    def with_jobs(self, jobs: int) -> "CampaignSpec":
        return replace(self, jobs=jobs)


#: Schema tag of the drift sidecar.  Untagged sidecars hold the older
#: final-state digests, which came from simulating every input.
BATCH_SCHEMA = "repro-batches/2"


def batch_sidecar_path(out_dir: str, run_id: str) -> str:
    """Path of the drift sidecar for one campaign run."""
    return os.path.join(out_dir, f"{run_id}.batches.json")


def compute_batch_digests(spec: CampaignSpec) -> Dict[str, Dict[str, str]]:
    """Per-workload content digests for every workload in the grid.

    All of a campaign's cells for one workload derive their programs from
    one base program and run on the same inputs, so one
    :meth:`~repro.core.session.SimSession.batch_digests` per workload pins
    them.  A resume recomputes the digests and refuses to continue into a
    grid whose programs or inputs changed.  The digests read content only:
    a change to the simulator's semantics between run and resume is not
    caught here (the golden counter snapshot and the engine matrix guard
    the simulators).
    """
    session = get_session()
    return {workload: session.batch_digests(workload, spec.scale) for workload in spec.workloads}


def _write_batch_sidecar(out_dir: str, run_id: str, digests: Dict) -> None:
    atomic_write_json(
        batch_sidecar_path(out_dir, run_id), {"schema": BATCH_SCHEMA, "digests": digests}
    )


def _verify_batch_sidecar(out_dir: str, run_id: str, spec: CampaignSpec, journal: RunJournal) -> Dict:
    """On resume: recompute the digests and compare with the sidecar.

    A missing sidecar (killed before the write) or an untagged one (written
    in the older final-state format, which nothing can recompute without
    simulating) is rewritten, with a journal note.  A sidecar that is not a
    JSON object is a :class:`JournalError` naming the file.  A tagged sidecar that
    differs means the programs or inputs drifted between run and resume,
    which would silently mix incompatible results — that is a
    :class:`JournalError`, exactly like the journal's config fingerprint
    check.
    """
    digests = compute_batch_digests(spec)
    path = batch_sidecar_path(out_dir, run_id)
    stored = None
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JournalError(f"batch sidecar {path} is unreadable: {exc}") from exc
        if not isinstance(stored, dict):
            raise JournalError(f"batch sidecar {path} is not a JSON object")
    if stored is None or "schema" not in stored:
        journal.note("batch_sidecar_rewritten", was="missing" if stored is None else "untagged")
        _write_batch_sidecar(out_dir, run_id, digests)
        return digests
    if stored["schema"] != BATCH_SCHEMA:
        raise JournalError(f"batch sidecar of run {run_id!r} has unknown schema {stored['schema']!r}")
    old = stored.get("digests", {})
    if old != digests:
        drifted = sorted(name for name in set(old) | set(digests) if old.get(name) != digests.get(name))
        raise JournalError(
            f"batch digest mismatch on resume of run {run_id!r}: the program or "
            f"inputs of workload(s) {', '.join(drifted)} changed since the run "
            f"started; refusing to mix incompatible results"
        )
    return digests


@dataclass
class CampaignReport:
    """What one (possibly resumed) campaign run produced."""

    run_id: str
    journal_path: str
    spec: CampaignSpec
    #: Completed results in grid order (restored + freshly executed).
    results: List[ExperimentResult] = field(default_factory=list)
    #: cell id -> terminal status (``pending`` for never-reached cells).
    statuses: Dict[str, str] = field(default_factory=dict)
    #: cell id -> diagnostic for every non-``ok`` cell that failed.
    failures: Dict[str, str] = field(default_factory=dict)
    #: cell id -> ``transient`` / ``deterministic`` for failed cells.
    failure_kinds: Dict[str, str] = field(default_factory=dict)
    restored: int = 0
    executed: int = 0
    resumed: bool = False
    used_processes: bool = False
    #: workload -> input -> content digest (see :func:`compute_batch_digests`).
    batch_digests: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: Cells satisfied by the shared content-addressed result store without
    #: any simulation (distinct from ``restored``, which replays the journal).
    store_hits: int = 0

    @property
    def complete(self) -> bool:
        return bool(self.statuses) and all(status == OK for status in self.statuses.values())

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for status in self.statuses.values():
            tally[status] = tally.get(status, 0) + 1
        return tally


@contextmanager
def deliver_sigterm_as_interrupt():
    """Route SIGTERM through the KeyboardInterrupt unwind path.

    The supervisor's interrupt handling (cancel queued futures, flush the
    journal, re-raise) is written once against ``KeyboardInterrupt``; this
    makes a polite ``kill`` take the same exit ramp as Ctrl-C.  Outside the
    main thread (or where signals are unavailable) it is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _raise_interrupt(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    try:
        previous = signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM, _raise_interrupt)
    except (ValueError, OSError, AttributeError):
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def build_report(
    spec: CampaignSpec,
    journal: RunJournal,
    restored: Dict[str, ExperimentResult],
    fresh: Dict[str, ExperimentResult],
    resumed: bool,
    executed: int,
    used_processes: bool,
    store_hits: int = 0,
) -> CampaignReport:
    """Assemble a :class:`CampaignReport` from journal state + in-memory results.

    The journal's replayed states are authoritative for statuses and
    diagnostics, while ``restored``/``fresh`` supply the deserialized result
    objects in grid order.
    """
    report = CampaignReport(
        run_id=journal.run_id,
        journal_path=journal.path,
        spec=spec,
        resumed=resumed,
        restored=len(restored),
        executed=executed,
        used_processes=used_processes,
        store_hits=store_hits,
    )
    states = journal.states()
    for cell in spec.cells():
        cell_id = cell.cell_id
        entry = states.get(cell_id)
        report.statuses[cell_id] = str(entry["status"]) if entry else PENDING
        result = fresh.get(cell_id) or restored.get(cell_id)
        if result is not None:
            report.results.append(result)
        elif entry and entry.get("error"):
            report.failures[cell_id] = str(entry["error"])
            if entry.get("error_kind"):
                report.failure_kinds[cell_id] = str(entry["error_kind"])
    return report
