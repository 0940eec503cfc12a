"""Figure 5 — dynamic register-based value prediction for load instructions.

Speedup over no-prediction for buffer-based LVP (loads) and dynamic RVP for
loads at three assistance levels (none / dead-register / dead+last-value).

Paper shape: "RVP-dead only slightly under-performs the much more expensive
last value prediction, while RVP-dead-lv outperforms LVP somewhat, achieving
an 8% average gain over no prediction."
"""

from __future__ import annotations

from conftest import EXTRA_TITLE, collect_tables, run_once

CONFIGS = ("no_predict", "lvp", "drvp", "drvp_dead", "drvp_dead_lv")


def test_fig5_dynamic_loads(benchmark, runners):
    def row(name):
        runner = runners.get(name)
        return [runner.run(config) for config in CONFIGS]

    table, extra = run_once(benchmark, lambda: collect_tables(row))
    print("\n" + table.render_speedup("Figure 5: dynamic RVP for loads (speedup over no-prediction)"))
    print(extra.render_speedup(EXTRA_TITLE, include_average=False))

    lvp = table.mean_speedup("lvp")
    drvp = table.mean_speedup("drvp")
    dead = table.mean_speedup("drvp_dead")
    dead_lv = table.mean_speedup("drvp_dead_lv")

    # Everything provides real average gains over no-prediction.
    assert lvp > 1.02 and dead_lv > 1.04
    # Compiler assistance helps dynamic RVP (dead and dead+lv over plain).
    assert dead >= drvp - 0.005
    assert dead_lv >= dead - 0.005
    # The paper's punchline: RVP with dead+lv assistance is competitive with
    # (or better than) the buffer-based last-value predictor.
    assert dead_lv >= lvp - 0.02, f"drvp_dead_lv {dead_lv:.3f} far below lvp {lvp:.3f}"
