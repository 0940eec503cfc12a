"""Durable append-only run journal: the checkpoint substrate for campaigns.

One campaign run = one JSONL file, ``<out_dir>/<run_id>.journal.jsonl``:

* **Line 1 — header.**  Schema-versioned (``repro-journal/1``), carrying the
  run id, creation time, the full campaign config, a SHA-256 **fingerprint**
  of that config, and the ordered cell-id list.  Written atomically
  (temp + rename, :mod:`repro.runtime.atomic`), so a journal either exists
  complete or not at all.
* **Lines 2.. — cell records.**  One JSON object per state change:
  ``{"type": "cell", "id": ..., "status": "ok|failed|timeout|skipped|pending",
  "attempts": n, "elapsed_s": t, "error": ..., "error_kind":
  "transient|deterministic", "result": {...}}``.  Each *committed* record is
  flushed and fsynced before the campaign moves on, so a SIGKILL loses at
  most the cell in flight.  ``ok`` records embed the serialized
  :class:`~repro.core.experiment.ExperimentResult`, which is what makes
  resume free: completed cells are *restored*, never re-run.

Crash model: an interrupted append leaves a torn **final** line.
:meth:`RunJournal.open` tolerates exactly that (the torn line is dropped and
reported via :attr:`RunJournal.torn_tail`); a torn line anywhere *else* means
real corruption and raises :class:`JournalError`.  The last record per cell
wins, so re-executing a previously failed cell simply appends its new state.

Resume contract: :func:`RunJournal.open` + :meth:`RunJournal.verify_config`
check the stored fingerprint against the resuming campaign's config — a
journal from a different grid (other workloads, budgets, thresholds) is
rejected instead of silently merging incompatible cells.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from typing import Dict, IO, List, Optional, Sequence

from .atomic import atomic_write_text
from .errors import CampaignError

#: Schema tag written into every journal header.
JOURNAL_SCHEMA = "repro-journal/1"

#: The journal cell-status vocabulary.
OK = "ok"
FAILED = "failed"
TIMEOUT = "timeout"
SKIPPED = "skipped"
PENDING = "pending"
STATUSES = (OK, FAILED, TIMEOUT, SKIPPED, PENDING)

#: Statuses a resume re-executes (everything that is not a committed result).
RERUN_STATUSES = (FAILED, TIMEOUT, SKIPPED, PENDING)


class JournalError(CampaignError):
    """Malformed journal, schema/fingerprint mismatch, or unknown run id."""


def config_fingerprint(config: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON encoding of a campaign config."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def new_run_id() -> str:
    """A fresh, filesystem-safe run id (UTC timestamp + random suffix)."""
    return time.strftime("%Y%m%dT%H%M%SZ", time.gmtime()) + "-" + os.urandom(3).hex()


def journal_path(out_dir: str, run_id: str) -> str:
    """Canonical journal location for a run id."""
    return os.path.join(out_dir, f"{run_id}.journal.jsonl")


def list_run_ids(out_dir: str) -> List[str]:
    """Run ids with a journal in ``out_dir`` (newest last, by name)."""
    try:
        names = sorted(os.listdir(out_dir))
    except OSError:
        return []
    suffix = ".journal.jsonl"
    return [name[: -len(suffix)] for name in names if name.endswith(suffix)]


class RunJournal:
    """One campaign's append-only state, already durable on every commit."""

    def __init__(self, path: str, header: Dict[str, object]) -> None:
        self.path = path
        self.header = header
        self.torn_tail = False
        self._states: Dict[str, Dict[str, object]] = {}
        self._events: List[Dict[str, object]] = []
        self._fh: Optional[IO[str]] = None
        #: Byte length of the valid prefix when a torn tail was detected;
        #: the file is truncated to this before the first new append, so a
        #: resume never writes after a partial line (which would corrupt
        #: the record boundary permanently).
        self._truncate_to: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        out_dir: str,
        run_id: str,
        config: Dict[str, object],
        cells: Sequence[str],
    ) -> "RunJournal":
        """Start a new journal; refuses to overwrite an existing run id."""
        from .atomic import ensure_durable_directory

        # A freshly created out_dir must itself survive a crash: every new
        # directory entry on the path is fsynced in its parent, or the
        # journal could vanish with the directory after power loss.
        ensure_durable_directory(out_dir)
        path = journal_path(out_dir, run_id)
        if os.path.exists(path):
            raise JournalError(f"run id {run_id!r} already exists at {path}")
        header = {
            "type": "header",
            "schema": JOURNAL_SCHEMA,
            "run_id": run_id,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "fingerprint": config_fingerprint(config),
            "config": config,
            "cells": list(cells),
        }
        atomic_write_text(path, json.dumps(header, sort_keys=True) + "\n")
        return cls(path, header)

    @classmethod
    def open(cls, path: str) -> "RunJournal":
        """Replay an existing journal, tolerating a torn final line."""
        try:
            with open(path, "r") as handle:
                raw = handle.read()
        except OSError as exc:
            raise JournalError(f"cannot open journal {path}: {exc}") from exc
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise JournalError(f"{path}: empty journal (no header)")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise JournalError(f"{path}: unreadable header: {exc}") from exc
        if header.get("type") != "header" or header.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"{path}: not a {JOURNAL_SCHEMA} journal (schema={header.get('schema')!r})"
            )
        journal = cls(path, header)
        for index, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines):
                    # A SIGKILL mid-append leaves exactly one torn final line;
                    # the cell it described was never committed, so drop it
                    # (and chop it off before any future append).
                    journal.torn_tail = True
                    journal._truncate_to = len(raw.encode("utf-8")) - len(line.encode("utf-8"))
                    break
                raise JournalError(f"{path}: corrupt record at line {index}") from None
            if record.get("type") == "cell" and "id" in record:
                journal._states[str(record["id"])] = record
            elif record.get("type") == "event":
                journal._events.append(record)
        return journal

    @classmethod
    def find(cls, out_dir: str, run_id: str) -> "RunJournal":
        """Open the journal for ``run_id`` under ``out_dir``."""
        path = journal_path(out_dir, run_id)
        if not os.path.exists(path):
            known = ", ".join(list_run_ids(out_dir)) or "none"
            raise JournalError(
                f"no journal for run id {run_id!r} in {out_dir} (known runs: {known})"
            )
        return cls.open(path)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def _verify_header_on_disk(self) -> None:
        """Refuse to append if the on-disk header is no longer ours.

        A resume replays the journal, then appends; if another process (or a
        stray editor) rewrote line 1 in between, appending would attach our
        cell records to a *different* run's identity — silent corruption.
        Checked once per append-handle open, i.e. exactly at the
        replay→append transition the race targets.
        """
        try:
            with open(self.path, "r") as handle:
                first = handle.readline()
        except OSError as exc:
            raise JournalError(f"cannot re-read journal header {self.path}: {exc}") from exc
        try:
            on_disk = json.loads(first)
        except json.JSONDecodeError as exc:
            raise JournalError(
                f"{self.path}: header was rewritten underneath an active resume and is "
                f"no longer valid JSON ({exc}); refusing to append — restore the journal "
                f"from a backup or start a new run"
            ) from exc
        for field in ("run_id", "fingerprint"):
            if on_disk.get(field) != self.header.get(field):
                raise JournalError(
                    f"{self.path}: header {field} changed underneath an active resume "
                    f"(journal opened with {self.header.get(field)!r}, disk now has "
                    f"{on_disk.get(field)!r}); refusing to append to a journal that no "
                    f"longer describes this run"
                )

    def _handle(self) -> IO[str]:
        if self._fh is None:
            self._verify_header_on_disk()
            if self._truncate_to is not None:
                os.truncate(self.path, self._truncate_to)
                self._truncate_to = None
            self._fh = open(self.path, "a")
        return self._fh

    def record(
        self,
        cell_id: str,
        status: str,
        attempts: int = 1,
        elapsed_s: Optional[float] = None,
        error: Optional[str] = None,
        error_kind: Optional[str] = None,
        result: Optional[Dict[str, object]] = None,
        fsync: bool = True,
    ) -> Dict[str, object]:
        """Append one cell state change; fsynced before returning by default."""
        if status not in STATUSES:
            raise ValueError(f"unknown cell status {status!r}; choose from {STATUSES}")
        entry: Dict[str, object] = {"type": "cell", "id": cell_id, "status": status, "attempts": attempts}
        if elapsed_s is not None:
            entry["elapsed_s"] = round(elapsed_s, 6)
        if error is not None:
            entry["error"] = error
        if error_kind is not None:
            entry["error_kind"] = error_kind
        if result is not None:
            entry["result"] = result
        handle = self._handle()
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
        self._states[cell_id] = entry
        return entry

    def note(self, event: str, fsync: bool = False, **fields: object) -> Dict[str, object]:
        """Append a supervisor *event* record (cell timeout, pool rebuild, ...).

        Events are observability, not cell state: replay ignores every
        record whose ``type`` is not ``cell``, so notes never change what a
        resume restores or re-executes.  They are flushed (ordering with the
        surrounding cell commits is preserved) but not fsynced by default.
        """
        entry: Dict[str, object] = {"type": "event", "event": event, **fields}
        handle = self._handle()
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
        return entry

    def events(self) -> List[Dict[str, object]]:
        """Replayed event records, in append order (never affects resume)."""
        return list(self._events)

    def flush(self) -> None:
        """Flush + fsync any buffered appends (interrupt path)."""
        if self._fh is not None:
            self._fh.flush()
            try:
                os.fsync(self._fh.fileno())
            except OSError:
                pass

    def close(self) -> None:
        self.flush()
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Replay / inspection
    # ------------------------------------------------------------------
    @property
    def run_id(self) -> str:
        return str(self.header.get("run_id"))

    @property
    def config(self) -> Dict[str, object]:
        return dict(self.header.get("config") or {})

    @property
    def cells(self) -> List[str]:
        return list(self.header.get("cells") or [])

    def states(self) -> Dict[str, Dict[str, object]]:
        """Latest record per cell id (last writer wins)."""
        return dict(self._states)

    def status_of(self, cell_id: str) -> Optional[str]:
        entry = self._states.get(cell_id)
        return str(entry["status"]) if entry else None

    def counts(self) -> Counter:
        """Cells per status; header cells never touched count as ``pending``."""
        tally: Counter = Counter()
        for cell_id in self.cells:
            entry = self._states.get(cell_id)
            tally[str(entry["status"]) if entry else PENDING] += 1
        for cell_id, entry in self._states.items():
            if cell_id not in self.header.get("cells", ()):
                tally[str(entry["status"])] += 1
        return tally

    def pending_cells(self) -> List[str]:
        """Header cells a resume must (re-)execute, in campaign order."""
        return [
            cell_id
            for cell_id in self.cells
            if (self._states.get(cell_id) or {}).get("status") != OK
        ]

    def verify_config(self, config: Dict[str, object]) -> None:
        """Raise unless ``config`` fingerprints to the header's fingerprint."""
        expected = self.header.get("fingerprint")
        actual = config_fingerprint(config)
        if expected != actual:
            raise JournalError(
                f"config fingerprint mismatch for run {self.run_id!r}: journal has "
                f"{expected}, resuming campaign computes {actual} — the campaign "
                "grid changed; start a new run instead of resuming"
            )
