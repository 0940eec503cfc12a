"""Figure 8 — value prediction on a more aggressive 16-wide processor.

The Section 7.4 machine doubles the instruction queues, functional units,
renaming registers and fetch bandwidth, and fetches up to three basic blocks
per cycle.  Series: lvp_all, drvp_all, drvp_all_dead_lv.

Paper shape: "In removing many of the limitations to instruction-level
parallelism existent in the previous processor, the performance of RVP
increases, both over no-prediction (15% performance gain) and over
traditional last-value prediction (5% higher performance).  In fact, RVP with
no compiler support (rvp_all) provides equal performance to the last-value
architecture."
"""

from __future__ import annotations

from conftest import EXTRA_TITLE, collect_tables, run_once

CONFIGS = ("no_predict", "lvp_all", "drvp_all", "drvp_all_dead_lv")


def test_fig8_aggressive_processor(benchmark, runners, wide_machine):
    def row(name):
        runner = runners.get(name, machine=wide_machine)
        return [runner.run(config) for config in CONFIGS]

    table, extra = run_once(benchmark, lambda: collect_tables(row))
    print("\n" + table.render_speedup("Figure 8: 16-wide machine (speedup over no-prediction)"))
    print(extra.render_speedup(EXTRA_TITLE, include_average=False))

    lvp = table.mean_speedup("lvp_all")
    drvp = table.mean_speedup("drvp_all")
    dead_lv = table.mean_speedup("drvp_all_dead_lv")
    print(f"means: lvp={lvp:.3f} drvp={drvp:.3f} dead_lv={dead_lv:.3f}")

    # Bigger machine, bigger gains: the full scheme beats the paper's 8-wide
    # average target comfortably, and beats the LVP table.
    assert dead_lv > 1.10
    assert dead_lv > lvp
    # Plain RVP (no compiler support) still provides real average gains.  The
    # paper reports it matching LVP exactly; in this reproduction it gains but
    # trails the table by a few percent (see EXPERIMENTS.md, Figure 8 notes).
    assert drvp > 1.04
    assert drvp >= lvp - 0.10


def test_fig8_gains_grow_with_width(benchmark, runners, wide_machine):
    """The paper's comparative claim: RVP's edge grows on the wider machine."""

    def collect():
        rows = {}
        for name in ("m88ksim", "hydro2d", "turb3d"):
            narrow = runners.get(name)
            wide = runners.get(name, machine=wide_machine)
            rows[name] = (
                narrow.run("drvp_all_dead_lv").ipc / narrow.run("no_predict").ipc,
                wide.run("drvp_all_dead_lv").ipc / wide.run("no_predict").ipc,
            )
        return rows

    rows = run_once(benchmark, collect)
    print("\nRVP speedup, 8-wide vs 16-wide:")
    for name, (narrow, wide) in rows.items():
        print(f"  {name:10s} {narrow:.3f} -> {wide:.3f}")
    grew = sum(1 for narrow, wide in rows.values() if wide >= narrow - 0.02)
    assert grew >= 2, rows
