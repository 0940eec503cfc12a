"""Parameter sweeps: vary one machine/predictor knob, measure the suite.

The paper fixes its machine at Table 1 and motivates the design by IQ
pressure, storage cost and confidence filtering.  :func:`sweep_machine`
makes those arguments quantitative for any machine knob::

    from dataclasses import replace
    from repro.core.sweep import sweep_machine
    from repro.uarch import table1_config

    rows = sweep_machine(
        "iq", [16, 32, 64],
        lambda iq: replace(table1_config(), iq_int=iq, iq_fp=iq),
        workloads=("m88ksim", "hydro2d"),
        configs=("no_predict", "drvp_all_dead"),
    )
"""

from __future__ import annotations

import numbers
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from ..uarch.config import MachineConfig
from ..uarch.recovery import RecoveryScheme
from .experiment import ExperimentRunner

SweepRows = Dict[Tuple[object, str, str], float]  # (point, workload, config) -> IPC


def _ordered_points(points: Iterable[object]) -> List[object]:
    """Sweep points in numeric order when all are numeric ([8, 16, 64], not
    [16, 64, 8]); fall back to ``str`` order for mixed or symbolic points."""
    items = list(points)
    if items and all(isinstance(p, numbers.Real) and not isinstance(p, bool) for p in items):
        return sorted(items)
    return sorted(items, key=str)


def sweep_machine(
    name: str,
    points: Iterable[object],
    make_machine: Callable[[object], MachineConfig],
    workloads: Sequence[str],
    configs: Sequence[str],
    max_instructions: int = 25_000,
    recovery: RecoveryScheme = RecoveryScheme.SELECTIVE,
) -> SweepRows:
    """Run ``configs`` x ``workloads`` at every sweep point; returns IPCs.

    The architectural trace does not depend on the machine configuration, so
    all sweep points share one functional-sim run per (workload, program
    variant) through the process-wide :class:`~repro.core.session.SimSession`
    — only the cycle-level pipeline re-runs per point.
    """
    rows: SweepRows = {}
    for point in points:
        machine = make_machine(point)
        for workload in workloads:
            runner = ExperimentRunner(workload, machine=machine, max_instructions=max_instructions)
            for config in configs:
                rows[(point, workload, config)] = runner.run(config, recovery=recovery).ipc
    return rows


def speedup_series(rows: SweepRows, workload: str, config: str, baseline: str = "no_predict") -> Dict[object, float]:
    """Speedup-over-baseline as a function of the sweep point."""
    points = {point for point, w, _ in rows if w == workload}
    return {
        point: rows[(point, workload, config)] / rows[(point, workload, baseline)]
        for point in _ordered_points(points)
        if (point, workload, baseline) in rows
    }


def render_sweep(rows: SweepRows, title: str = "") -> str:
    """Simple table: one row per (workload, config), one column per point."""
    points = _ordered_points({p for p, _, _ in rows})
    pairs = sorted({(w, c) for _, w, c in rows})
    lines = [title] if title else []
    header = [f"{'workload/config':28s}"] + [f"{str(p):>10s}" for p in points]
    lines.append("  ".join(header))
    for workload, config in pairs:
        cells = [f"{workload + '/' + config:28s}"]
        for point in points:
            value = rows.get((point, workload, config))
            cells.append(f"{value:10.3f}" if value is not None else f"{'-':>10s}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"
