"""Shared content-addressed result store: the campaign layer's persistent L2.

:class:`~repro.core.session.SimSession` memoizes traces and program variants
*per process* (the L1); this module adds the layer below it — a directory of
completed :class:`~repro.core.experiment.ExperimentResult` payloads keyed by
the SHA-256 of the cell's *complete effective configuration*, shared by every
campaign that points at the same ``--store DIR``.  A cell whose key is
present when its campaign starts is **never re-simulated**: the supervisor's
pre-pass commits the stored payload as ``ok`` without constructing an
``ExperimentRunner`` at all, and the supervisor writes every result it
commits, so the store has one reader and one writer per campaign.

Key discipline
--------------

A store key covers exactly what determines a cell's result and nothing that
does not (mirroring the journal's config-fingerprint rules):

* the cell identity — ``workload/config/recovery`` (the same canonical id
  the journal uses),
* the full machine configuration (as a dict, so custom machines key
  correctly, not just the named ``table1``/``aggressive`` presets),
* ``max_instructions``, ``threshold``, ``scale``,
* the workload's content digests (its base program text and input images),
  so a store never serves a result computed from an older program or input.

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
* two campaigns sharing a store may both miss, simulate and write the same
  key; writes take a best-effort advisory ``flock`` on ``<root>/.lock`` and
  the rename makes the race benign — last writer wins, and both writers'
  payloads are byte-identical by construction (same key ⇒ same
  deterministic result).
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict
from typing import Dict, List, Optional

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
    workload_digests: Dict[str, str],
) -> str:
    """The content address of one cell's result.

    ``machine`` may be a :class:`~repro.uarch.config.MachineConfig` (encoded
    field-by-field) or an already-canonical dict.  ``workload_digests`` are
    the cell's workload content digests (input -> digest, see
    :meth:`~repro.core.session.SimSession.batch_digests`), so a changed
    program or input image addresses new entries.
    """
    machine_payload = machine if isinstance(machine, dict) else asdict(machine)
    identity = {
        "schema": STORE_SCHEMA,
        "cell": cell_id,
        "machine": machine_payload,
        "max_instructions": int(max_instructions),
        "threshold": float(threshold),
        "scale": float(scale),
        "workload": workload_digests,
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

    def __init__(self, root: str) -> None:
        self.root = ensure_durable_directory(root)
        if not os.path.isdir(self.root):
            raise StoreError(f"store root {root!r} is not a directory")
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
    def put(self, key: str, result: Dict[str, object], cell_id: Optional[str] = None) -> str:
        """Persist one result under ``key``; returns the entry path."""
        entry: Dict[str, object] = {
            "schema": STORE_SCHEMA,
            "key": key,
            "digest": result_digest(result),
            "result": result,
        }
        if cell_id is not None:
            entry["cell"] = cell_id
        path = self.path_for(key)
        ensure_durable_directory(os.path.dirname(path))
        with _advisory_lock(self._lock_path):
            atomic_write_text(path, json.dumps(entry, sort_keys=True, indent=2) + "\n")
        get_metrics().inc("store.puts")
        return path
