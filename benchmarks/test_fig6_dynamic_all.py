"""Figure 6 — dynamic register-based value prediction for all instructions.

Speedup over no-prediction for lvp_all, the Gabbay & Mendelson register
predictor (Grp_all, stride component removed "to equalize comparisons"),
and dynamic RVP for all instructions at three assistance levels.

Paper shape: drvp_all_dead_lv provides ~12% more performance than no
prediction; even the dead optimisation alone is competitive with buffer-based
LVP; the Gabbay register predictor clearly trails RVP (its per-register
confidence counters suffer "high interference ... as every instruction that
writes a register shares the same counter").
"""

from __future__ import annotations

from conftest import EXTRA_TITLE, collect_tables, run_once

CONFIGS = ("no_predict", "lvp_all", "grp_all", "drvp_all", "drvp_all_dead", "drvp_all_dead_lv")


def test_fig6_dynamic_all(benchmark, runners):
    def row(name):
        runner = runners.get(name)
        return [runner.run(config) for config in CONFIGS]

    table, extra = run_once(benchmark, lambda: collect_tables(row))
    print("\n" + table.render_speedup("Figure 6: dynamic RVP for all instructions (speedup)"))
    print(extra.render_speedup(EXTRA_TITLE, include_average=False))

    lvp = table.mean_speedup("lvp_all")
    grp = table.mean_speedup("grp_all")
    drvp = table.mean_speedup("drvp_all")
    dead = table.mean_speedup("drvp_all_dead")
    dead_lv = table.mean_speedup("drvp_all_dead_lv")
    print(f"means: lvp={lvp:.3f} grp={grp:.3f} drvp={drvp:.3f} dead={dead:.3f} dead_lv={dead_lv:.3f}")

    # Substantial average gain for the full scheme (paper: ~12%).
    assert dead_lv > 1.08, dead_lv
    # The Gabbay register predictor is the weakest of the predictors.
    assert grp <= drvp + 0.005 and grp < dead and grp < lvp
    # dead+lv RVP is competitive with the much more expensive LVP table.
    assert dead_lv >= lvp - 0.02
    # m88ksim is the showcase: RVP's cross-instruction prediction (the
    # Figure 2b store-load pattern) beats LVP decisively there.
    assert table.speedup("m88ksim", "drvp_all_dead") > table.speedup("m88ksim", "lvp_all") + 0.05
