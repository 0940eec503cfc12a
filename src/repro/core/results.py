"""Result tables: the shapes the paper's figures print.

:class:`ResultTable` accumulates (workload × configuration) results and
renders the rows/series each figure reports — IPC per program (Figures 3-4)
or speedup over no-prediction per program plus the arithmetic-mean bar the
paper labels "average" (Figures 5, 6, 8), and the coverage/accuracy rows of
Table 2.

This module is also the structured-export point: :meth:`ResultTable.to_dict`
serialises every cell, and :func:`metrics_report` / :func:`render_metrics`
expose the process-wide :mod:`~repro.core.metrics` registry (cache hit
rates, sim wall time, instructions/sec, campaign dispatches) as JSON for the
``--profile`` flag and the ``repro metrics`` command.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence

from .experiment import ExperimentResult
from .metrics import MetricsRegistry, get_metrics


def metrics_report(registry: Optional[MetricsRegistry] = None) -> Dict[str, object]:
    """Structured snapshot of the (process-wide) metrics registry."""
    return (registry if registry is not None else get_metrics()).snapshot()


def render_metrics(registry: Optional[MetricsRegistry] = None) -> str:
    """The metrics snapshot as pretty-printed JSON."""
    return json.dumps(metrics_report(registry), indent=2, sort_keys=True)


class ResultTable:
    """(workload, config) -> ExperimentResult with figure-style rendering."""

    def __init__(self, baseline: str = "no_predict") -> None:
        self.baseline = baseline
        self._cells: Dict[str, Dict[str, ExperimentResult]] = {}
        self._workload_order: List[str] = []
        self._config_order: List[str] = []
        #: (workload, config) -> campaign status (``ok``/``failed``/``timeout``/...).
        self._statuses: Dict[tuple, str] = {}
        #: (workload, config) -> diagnostic for failed cells (the footer).
        self._failures: Dict[tuple, str] = {}

    def _register(self, workload: str, config: str) -> None:
        if workload not in self._workload_order:
            self._workload_order.append(workload)
        if config not in self._config_order:
            self._config_order.append(config)

    def add(self, result: ExperimentResult) -> None:
        row = self._cells.setdefault(result.workload, {})
        row[result.config] = result
        self._register(result.workload, result.config)
        self._statuses[(result.workload, result.config)] = "ok"

    def mark_failed(self, workload: str, config: str, status: str = "failed", message: str = "") -> None:
        """Record a cell that produced no result; it renders as ``—`` and
        appears in the failure footer, keeping the table shape intact."""
        self._register(workload, config)
        self._statuses[(workload, config)] = status
        if message:
            self._failures[(workload, config)] = message

    def status(self, workload: str, config: str) -> Optional[str]:
        return self._statuses.get((workload, config))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def ipc(self, workload: str, config: str) -> float:
        return self._cells[workload][config].ipc

    def speedup(self, workload: str, config: str) -> float:
        base = self._cells[workload][self.baseline].ipc
        return self._cells[workload][config].ipc / base if base else 0.0

    def mean_speedup(self, config: str) -> float:
        """Arithmetic mean of per-program speedups (the paper's 'average').

        Workloads whose cell (or baseline cell) is missing — e.g. failed in
        a partial campaign — are excluded from the mean rather than crashing
        it, matching the ``—`` the table renders for them.
        """
        values = [
            self.speedup(w, config)
            for w in self._workload_order
            if config in self._cells.get(w, {}) and self.baseline in self._cells.get(w, {})
        ]
        return sum(values) / len(values) if values else 0.0

    def coverage(self, workload: str, config: str) -> float:
        return self._cells[workload][config].stats.coverage

    def accuracy(self, workload: str, config: str) -> float:
        return self._cells[workload][config].stats.accuracy

    @property
    def workloads(self) -> Sequence[str]:
        return tuple(self._workload_order)

    @property
    def configs(self) -> Sequence[str]:
        return tuple(self._config_order)

    # ------------------------------------------------------------------
    # Structured export
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Every cell as plain data: IPC, speedup, coverage/accuracy, stats."""
        cells: List[Dict[str, object]] = []
        for workload in self._workload_order:
            for config in self._config_order:
                result = self._cells.get(workload, {}).get(config)
                if result is None:
                    continue
                cell: Dict[str, object] = {
                    "workload": workload,
                    "config": config,
                    "recovery": result.recovery,
                    "ipc": result.ipc,
                    "coverage": result.stats.coverage,
                    "accuracy": result.stats.accuracy,
                    "stats": result.stats.summary(),
                }
                if self.baseline in self._cells.get(workload, {}):
                    cell["speedup"] = self.speedup(workload, config)
                cells.append(cell)
        payload: Dict[str, object] = {
            "baseline": self.baseline,
            "workloads": list(self._workload_order),
            "configs": list(self._config_order),
            "cells": cells,
        }
        if self._statuses:
            payload["statuses"] = [
                {"workload": w, "config": c, "status": status}
                for (w, c), status in sorted(self._statuses.items())
            ]
        if self._failures:
            payload["failures"] = [
                {"workload": w, "config": c, "error": message}
                for (w, c), message in sorted(self._failures.items())
            ]
        return payload

    def render_json(self, include_metrics: bool = False) -> str:
        payload = self.to_dict()
        if include_metrics:
            payload["metrics"] = metrics_report()
        return json.dumps(payload, indent=2, sort_keys=True)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_ipc(self, title: str = "") -> str:
        """Figure 3/4-style: IPC per program per configuration."""
        return self._render(title, self.ipc, "{:.3f}")

    def render_speedup(self, title: str = "", include_average: bool = True) -> str:
        """Figure 5/6/8-style: speedup over the baseline, plus 'average'."""
        lines = self._render(title, self.speedup, "{:.3f}").splitlines()
        if include_average:
            cells = [f"{'average':10s}"]
            for config in self._config_order:
                cells.append(f"{self.mean_speedup(config):>{max(8, len(config))}.3f}")
            lines.append("  ".join(cells))
        return "\n".join(lines) + "\n"

    def render_coverage(self, title: str = "") -> str:
        """Table 2-style: '% predicted / accuracy' per cell."""
        header = [f"{'program':10s}"] + [f"{c:>16s}" for c in self._config_order]
        lines = [title, "  ".join(header)] if title else ["  ".join(header)]
        for workload in self._workload_order:
            cells = [f"{workload:10s}"]
            for config in self._config_order:
                result = self._cells.get(workload, {}).get(config)
                if result is None:
                    status = self._statuses.get((workload, config))
                    cells.append(f"{'—' if status not in (None, 'ok') else '-':>16s}")
                else:
                    text = f"{100 * result.stats.coverage:.0f}/{100 * result.stats.accuracy:.1f}"
                    cells.append(f"{text:>16s}")
            lines.append("  ".join(cells))
        return "\n".join(lines) + "\n"

    def render_failures(self, title: str = "failures") -> str:
        """Footer summarising failed cells (empty string when none failed)."""
        failed = [(w, c, s) for (w, c), s in sorted(self._statuses.items()) if s != "ok"]
        if not failed:
            return ""
        lines = [f"{title}: {len(failed)} cell(s) did not complete"]
        for workload, config, status in failed:
            message = self._failures.get((workload, config), "")
            suffix = f": {message}" if message else ""
            lines.append(f"  {status.upper():8s} {workload}/{config}{suffix}")
        return "\n".join(lines) + "\n"

    def _render(self, title: str, cell, fmt: str) -> str:
        header = [f"{'program':10s}"] + [f"{c:>{max(8, len(c))}s}" for c in self._config_order]
        lines = [title, "  ".join(header)] if title else ["  ".join(header)]
        for workload in self._workload_order:
            cells = [f"{workload:10s}"]
            for config in self._config_order:
                width = max(8, len(config))
                status = self._statuses.get((workload, config))
                if config in self._cells.get(workload, {}):
                    try:
                        cells.append(f"{fmt.format(cell(workload, config)):>{width}s}")
                    except KeyError:
                        # Value depends on a missing cell (e.g. speedup with
                        # a failed baseline) — degrade that cell, not the row.
                        cells.append(f"{'—':>{width}s}")
                elif status is not None and status != "ok":
                    cells.append(f"{'—':>{width}s}")
                else:
                    cells.append(f"{'-':>{width}s}")
            lines.append("  ".join(cells))
        return "\n".join(lines) + "\n"
