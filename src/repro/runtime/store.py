"""Shared content-addressed result store: the campaign layer's persistent L2.

:class:`~repro.core.session.SimSession` memoizes traces and program variants
*per process* (the L1); this module adds the layer below it — a directory of
completed :class:`~repro.core.experiment.ExperimentResult` payloads keyed by
the SHA-256 of the cell's *complete effective configuration*, shared by every
campaign, supervisor and user that points at the same ``--store DIR``.  A
cell whose key is present is **never re-simulated**: the supervisor commits the
stored payload as ``ok`` without constructing an ``ExperimentRunner`` at all.

Key discipline
--------------

A store key covers exactly what determines a cell's result and nothing that
does not (mirroring the journal's config-fingerprint rules):

* the cell identity — ``workload/config/recovery`` (the same canonical id
  the journal uses),
* the full machine configuration (as a dict, so custom machines key
  correctly, not just the named ``table1``/``aggressive`` presets),
* ``max_instructions``, ``threshold``, ``scale``.

``jobs``, deadlines, worker counts and journal ids are excluded —
parallelism and supervision never change results.  The canonical-JSON +
SHA-256 encoding is shared with :func:`repro.runtime.journal.config_fingerprint`.

Crash and concurrency model
---------------------------

Entries are single JSON files written through :mod:`repro.runtime.atomic`
(temp + rename + fsync file and directory), so a reader never observes a
torn entry *at the filesystem level*.  Defence in depth for everything else:

* every entry embeds a ``digest`` — SHA-256 over the canonical encoding of
  its ``result`` payload — verified on read; a corrupt or truncated entry
  (e.g. hand-edited, or torn by a non-atomic copy between machines) is
  treated as a **miss** and deleted best-effort, never returned;
* concurrent supervisors may race on the same key; writes take a
  best-effort advisory ``flock`` on ``<root>/.lock`` and the rename makes
  the race benign — last writer wins, and both writers' payloads are
  byte-identical by construction (same key ⇒ same deterministic result);
* :meth:`ResultStore.prune` evicts oldest-first (entry mtime) so a
  long-lived service can bound the store.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict
from typing import Dict, Iterator, List, Optional

from ..core.metrics import get_metrics
from .atomic import atomic_write_text, ensure_durable_directory
from .errors import CampaignError

try:  # pragma: no cover - platform probe
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

#: Schema tag embedded in every store entry.
STORE_SCHEMA = "repro-store/1"


class StoreError(CampaignError):
    """A result-store invariant violation (bad root, unwritable entry)."""


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def result_digest(result: Dict[str, object]) -> str:
    """SHA-256 over the canonical encoding of one result payload."""
    return hashlib.sha256(_canonical(result).encode("utf-8")).hexdigest()


def cell_store_key(
    cell_id: str,
    machine: object,
    max_instructions: int,
    threshold: float,
    scale: float,
) -> str:
    """The content address of one cell's result.

    ``machine`` may be a :class:`~repro.uarch.config.MachineConfig` (encoded
    field-by-field) or an already-canonical dict.
    """
    machine_payload = asdict(machine) if not isinstance(machine, dict) else dict(machine)
    identity = {
        "schema": STORE_SCHEMA,
        "cell": cell_id,
        "machine": machine_payload,
        "max_instructions": int(max_instructions),
        "threshold": float(threshold),
        "scale": float(scale),
    }
    return hashlib.sha256(_canonical(identity).encode("utf-8")).hexdigest()


@contextmanager
def _advisory_lock(lock_path: str):
    """Best-effort cross-process write lock (no-op where flock is missing)."""
    if fcntl is None:
        yield
        return
    try:
        fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
    except OSError:
        yield
        return
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            pass
        yield
    finally:
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)
        except OSError:
            pass
        os.close(fd)


class ResultStore:
    """A directory of digest-verified, content-addressed cell results."""

    def __init__(self, root: str, writer: Optional[str] = None) -> None:
        self.root = ensure_durable_directory(root)
        if not os.path.isdir(self.root):
            raise StoreError(f"store root {root!r} is not a directory")
        self.writer = writer if writer is not None else f"pid{os.getpid()}"
        self._lock_path = os.path.join(self.root, ".lock")

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> str:
        """``<root>/<key[:2]>/<key>.json`` — two-level sharding."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    def keys(self) -> List[str]:
        """Every key with an entry file, sorted (integrity not yet checked)."""
        found = []
        try:
            shards = sorted(os.listdir(self.root))
        except OSError:
            return []
        for shard in shards:
            shard_dir = os.path.join(self.root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    found.append(name[: -len(".json")])
        return found

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    # ------------------------------------------------------------------
    # Read path (digest-verified; corrupt == miss)
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored result payload for ``key``, or ``None`` on miss.

        Any defect — unreadable file, bad JSON, wrong schema, key/digest
        mismatch — counts as a miss: a store can only ever *save* work,
        never corrupt a campaign.  Defective entries are unlinked
        best-effort so the next writer repairs the slot.
        """
        metrics = get_metrics()
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            metrics.inc("store.misses")
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            metrics.inc("store.corrupt")
            self._discard(path)
            return None
        result = entry.get("result") if isinstance(entry, dict) else None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != STORE_SCHEMA
            or entry.get("key") != key
            or not isinstance(result, dict)
            or entry.get("digest") != result_digest(result)
        ):
            metrics.inc("store.corrupt")
            self._discard(path)
            return None
        metrics.inc("store.hits")
        return result

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Write path (atomic, advisory-locked, last-writer-wins)
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        result: Dict[str, object],
        cell_id: Optional[str] = None,
        meta: Optional[Dict[str, object]] = None,
    ) -> str:
        """Persist one result under ``key``; returns the entry path."""
        entry: Dict[str, object] = {
            "schema": STORE_SCHEMA,
            "key": key,
            "digest": result_digest(result),
            "writer": self.writer,
            "result": result,
        }
        if cell_id is not None:
            entry["cell"] = cell_id
        if meta:
            entry["meta"] = dict(meta)
        path = self.path_for(key)
        ensure_durable_directory(os.path.dirname(path))
        with _advisory_lock(self._lock_path):
            atomic_write_text(path, json.dumps(entry, sort_keys=True, indent=2) + "\n")
        get_metrics().inc("store.puts")
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Process-wide store traffic counters (shared metrics registry)."""
        metrics = get_metrics()
        return {
            "hits": metrics.get("store.hits"),
            "misses": metrics.get("store.misses"),
            "puts": metrics.get("store.puts"),
            "corrupt": metrics.get("store.corrupt"),
            "entries": len(self),
        }

    def _entries_by_age(self) -> Iterator[tuple]:
        for key in self.keys():
            path = self.path_for(key)
            try:
                mtime = os.stat(path).st_mtime
            except OSError:
                continue
            yield mtime, key, path

    def prune(self, max_entries: Optional[int] = None, max_age_s: Optional[float] = None) -> int:
        """Evict entries oldest-first; returns how many were removed.

        ``max_entries`` keeps at most that many newest entries;
        ``max_age_s`` removes entries older than the cutoff (entry mtime vs
        the filesystem's clock).  Both may be combined.
        """
        import time as _time

        entries = sorted(self._entries_by_age())
        removed = 0
        if max_age_s is not None:
            cutoff = _time.time() - max_age_s
            for mtime, _key, path in list(entries):
                if mtime < cutoff:
                    self._discard(path)
                    entries.remove((mtime, _key, path))
                    removed += 1
        if max_entries is not None and len(entries) > max_entries:
            excess = len(entries) - max_entries
            for _mtime, _key, path in entries[:excess]:
                self._discard(path)
                removed += 1
        if removed:
            get_metrics().inc("store.evictions", removed)
        return removed
