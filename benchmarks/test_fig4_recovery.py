"""Figure 4 — the effect of the misprediction-recovery mechanism.

IPC for no-prediction and static RVP (dead optimisation) under the three
recovery schemes — refetch, reissue, selective reissue — with a conservative
90% profile threshold ("refetch and reissue require more conservative
prediction").

Paper shape: "the relatively simple refetch scheme performs well on this
architecture, often outperforming reissue by large margins and occasionally
beating selective reissue"; selective reissue is the best overall.
"""

from __future__ import annotations

from conftest import EXTRA_TITLE, collect_tables, run_once

from repro.uarch import RecoveryScheme
from repro.workloads import PAPER_WORKLOADS

SCHEMES = (RecoveryScheme.REFETCH, RecoveryScheme.REISSUE, RecoveryScheme.SELECTIVE)


def test_fig4_recovery(benchmark, runners):
    def row(name):
        runner = runners.get(name, threshold=0.9)
        results = [runner.run("no_predict")]
        for scheme in SCHEMES:
            result = runner.run("srvp_dead", recovery=scheme, threshold=0.9)
            result.config = f"srvp_{scheme.value}"
            results.append(result)
        return results

    table, extra = run_once(benchmark, lambda: collect_tables(row))
    print("\n" + table.render_ipc("Figure 4: recovery mechanisms (IPC, srvp_dead @ 90%)"))
    print(extra.render_ipc(EXTRA_TITLE))

    refetch = table.mean_speedup("srvp_refetch")
    reissue = table.mean_speedup("srvp_reissue")
    selective = table.mean_speedup("srvp_selective")
    print(f"mean speedups: refetch={refetch:.3f} reissue={reissue:.3f} selective={selective:.3f}")

    # Selective reissue provides the best overall performance (tolerance:
    # the paper itself notes refetch "occasionally beating selective
    # reissue", and at small instruction budgets the two can tie).
    assert selective >= refetch - 0.015 and selective >= reissue - 0.015
    # Refetch outperforms reissue on several programs (the paper's surprise).
    refetch_wins = sum(
        1 for n in PAPER_WORKLOADS if table.speedup(n, "srvp_refetch") > table.speedup(n, "srvp_reissue")
    )
    assert refetch_wins >= 3, f"refetch beat reissue on only {refetch_wins} programs"
