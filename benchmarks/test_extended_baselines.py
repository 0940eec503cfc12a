"""Extended baselines: the storage-heavy schemes the paper cites but
excludes from its figures (Section 2 / Figure 3 discussion).

The paper compares RVP only against last-value prediction because "a key
advantage of RVP prediction is the drastic reduction in required storage";
stride predictors [4], context/hybrid predictors [7, 13] and memory-renaming
architectures [16, 11] all add storage *beyond* LVP.  This benchmark runs
two of those — Gabbay-style stride prediction and Tyson/Austin-style memory
renaming — next to LVP and RVP, to check the paper's implicit claim: the
cheap register-file predictor stays competitive with the expensive ones on
this machine.
"""

from __future__ import annotations

from conftest import EXTRA_TITLE, collect_tables, run_once

CONFIGS = ("no_predict", "lvp_all", "stride_all", "context_all", "memren", "drvp_all_dead_lv")


def test_extended_baselines(benchmark, runners):
    def row(name):
        runner = runners.get(name)
        return [runner.run(config) for config in CONFIGS]

    table, extra = run_once(benchmark, lambda: collect_tables(row))
    print("\n" + table.render_speedup("Extended baselines (speedup over no-prediction)"))
    print(table.render_coverage("coverage/accuracy"))
    print(extra.render_speedup(EXTRA_TITLE, include_average=False))

    rvp = table.mean_speedup("drvp_all_dead_lv")
    stride = table.mean_speedup("stride_all")
    context = table.mean_speedup("context_all")
    memren = table.mean_speedup("memren")
    lvp = table.mean_speedup("lvp_all")
    print(f"means: lvp={lvp:.3f} stride={stride:.3f} context={context:.3f} "
          f"memren={memren:.3f} rvp_dead_lv={rvp:.3f}")

    # The storageless scheme stays competitive with every buffer-based one.
    assert rvp >= max(stride, context, memren, lvp) - 0.06
    # Memory renaming shines exactly where the paper's Figure 2b pattern
    # lives (the interpreter's store->load pc channel)...
    assert table.speedup("m88ksim", "memren") > 1.10
    # ...and RVP with the dead list captures the same channel.
    assert table.speedup("m88ksim", "drvp_all_dead_lv") >= table.speedup("m88ksim", "memren") - 0.05
