"""Table 2 — percentage of instructions predicted and prediction accuracy.

For all-instruction prediction: dynamic RVP with the dead optimisation, with
dead+last-value, buffer-based LVP, and the Gabbay & Mendelson register
predictor.  Cells are "% insts predicted / accuracy %".

Paper shape: both RVP and LVP get very high accuracy from the conservative
resetting counters (threshold 7); coverage correlates with performance better
than accuracy does; the G&M predictor's coverage is far below RVP's on the
register-sharing-heavy codes; m88ksim and turb3d have the highest coverage.
"""

from __future__ import annotations

from conftest import EXTRA_TITLE, collect_tables, run_once

from repro.workloads import PAPER_WORKLOADS

CONFIGS = ("drvp_all_dead", "drvp_all_dead_lv", "lvp_all", "grp_all")


def test_table2_coverage(benchmark, runners):
    def row(name):
        runner = runners.get(name)
        return [runner.run(config) for config in CONFIGS]

    table, extra = run_once(benchmark, lambda: collect_tables(row))
    print("\n" + table.render_coverage("Table 2: % insts predicted / accuracy"))
    print(extra.render_coverage(EXTRA_TITLE))

    for name in PAPER_WORKLOADS:
        for config in CONFIGS:
            accuracy = table.accuracy(name, config)
            coverage = table.coverage(name, config)
            assert 0.0 <= coverage <= 1.0
            if coverage > 0.02:
                # The resetting counters keep accuracy high wherever
                # predictions actually fire.
                assert accuracy > 0.80, (name, config, accuracy)
    # dead_lv coverage >= dead coverage (it adds candidates).
    for name in PAPER_WORKLOADS:
        assert table.coverage(name, "drvp_all_dead_lv") >= table.coverage(name, "drvp_all_dead") - 0.02, name
    # m88ksim and turb3d are the coverage leaders for RVP.
    rvp_cov = {n: table.coverage(n, "drvp_all_dead") for n in PAPER_WORKLOADS}
    top3 = sorted(rvp_cov, key=rvp_cov.get, reverse=True)[:4]
    assert "m88ksim" in top3 or "turb3d" in top3, rvp_cov
    # go has the lowest RVP coverage of the suite (within noise).
    assert rvp_cov["go"] <= min(rvp_cov.values()) + 0.03, rvp_cov
