"""repro.runtime — crash-safe, resumable campaign execution.

Layers, bottom-up:

* :mod:`~repro.runtime.atomic` — temp+rename+fsync file writes.
* :mod:`~repro.runtime.retry` — bounded exponential backoff with
  deterministic jitter.
* :mod:`~repro.runtime.errors` — the transient/deterministic failure
  taxonomy the campaign supervisor routes every cell failure through.
* :mod:`~repro.runtime.journal` — the append-only JSONL run journal.
* :mod:`~repro.runtime.heartbeat` — clocks, heartbeat boards and the lease
  protocol the campaign service's work stealing is built on.
* :mod:`~repro.runtime.store` — the shared content-addressed result store
  (the persistent L2 under each worker's in-process session).
* :mod:`~repro.runtime.campaign` — campaign specs, cells, the digest
  sidecar and reports.
* :mod:`~repro.runtime.service` — the campaign supervisor, the one cell
  executor (in-process serial mode, or leased workers with work stealing,
  pool rebuilds and serial degradation), and ``run_campaign`` /
  ``resume_campaign``.

``campaign``, ``store`` and ``service`` are exposed lazily (module-level
``__getattr__``): they import :mod:`repro.core` modules, which themselves
import this package's ``errors`` and ``retry`` modules, so importing them
eagerly here would create an import cycle through a half-initialized
package.
"""

from .atomic import (
    atomic_write_json,
    atomic_write_text,
    ensure_durable_directory,
    fsync_directory,
)
from .heartbeat import (
    DEFAULT_LEASE_DURATION,
    FileHeartbeatBoard,
    HeartbeatBoard,
    Lease,
    LeaseError,
    LeaseTable,
    ManualClock,
    MonotonicClock,
)
from .errors import (
    DETERMINISTIC,
    TRANSIENT,
    BudgetExceeded,
    CampaignError,
    DeterministicError,
    LeaseExpired,
    TransientError,
    WorkerCrashed,
    classify_failure,
    is_timeout,
)
from .journal import (
    JOURNAL_SCHEMA,
    JournalError,
    RunJournal,
    config_fingerprint,
    journal_path,
    list_run_ids,
    new_run_id,
)
from .retry import backoff_delay, backoff_delays

#: Names resolved lazily from .campaign (see module docstring).
_CAMPAIGN_EXPORTS = (
    "CampaignSpec",
    "CampaignReport",
    "MACHINE_FACTORIES",
    "SuiteCell",
    "deliver_sigterm_as_interrupt",
)

#: Names resolved lazily from .store (imports repro.core.metrics).
_STORE_EXPORTS = (
    "ResultStore",
    "StoreError",
    "cell_store_key",
    "result_digest",
)

#: Names resolved lazily from .service (imports repro.core.experiment).
_SERVICE_EXPORTS = (
    "CampaignSupervisor",
    "ServiceStats",
    "run_campaign",
    "resume_campaign",
)

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "ensure_durable_directory",
    "fsync_directory",
    "DETERMINISTIC",
    "TRANSIENT",
    "BudgetExceeded",
    "CampaignError",
    "DeterministicError",
    "LeaseExpired",
    "TransientError",
    "WorkerCrashed",
    "classify_failure",
    "is_timeout",
    "JOURNAL_SCHEMA",
    "JournalError",
    "RunJournal",
    "config_fingerprint",
    "journal_path",
    "list_run_ids",
    "new_run_id",
    "backoff_delay",
    "backoff_delays",
    "DEFAULT_LEASE_DURATION",
    "FileHeartbeatBoard",
    "HeartbeatBoard",
    "Lease",
    "LeaseError",
    "LeaseTable",
    "ManualClock",
    "MonotonicClock",
    *_CAMPAIGN_EXPORTS,
    *_STORE_EXPORTS,
    *_SERVICE_EXPORTS,
]


def __getattr__(name: str):
    if name in _CAMPAIGN_EXPORTS:
        from . import campaign

        return getattr(campaign, name)
    if name in _STORE_EXPORTS:
        from . import store

        return getattr(store, name)
    if name in _SERVICE_EXPORTS:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
