"""Figure 1 — the degree of register-value reuse for loads.

The paper's opening measurement: for every load in the SPEC suite, how often
is the loaded value already (cumulatively) in the same register / in the same
or a dead register / in any register / in a register or equal to the load's
last value.  The paper's headline: "At least 75% of the time, the value
loaded from memory is either already in the register file, or was recently
there", with the C SPEC and F SPEC averages shown as grouped bars.
"""

from __future__ import annotations

from conftest import EXTRA_BENCHMARKS, MAX_INSTS, run_once

from repro.profiling import ReuseProfile
from repro.sim import run_program
from repro.workloads import C_SPEC, F_SPEC, PAPER_WORKLOADS, make_workload


def _collect():
    rows = {}
    for name in PAPER_WORKLOADS + EXTRA_BENCHMARKS:
        workload = make_workload(name)
        program, memory = workload.build("ref")
        result = run_program(program, memory=memory, max_instructions=MAX_INSTS, collect_trace=True)
        profile = ReuseProfile.from_trace(result.trace)
        rows[name] = profile.fig1.fractions()
    return rows


def _mean(rows, names, key):
    return sum(rows[n][key] for n in names) / len(names)


def test_fig1_register_reuse(benchmark):
    rows = run_once(benchmark, _collect)

    print("\nFigure 1: register-value reuse for loads (cumulative fractions)")
    print(f"{'program':10s} {'same':>7s} {'dead':>7s} {'any':>7s} {'any|lvp':>8s}")
    for name, f in rows.items():
        print(f"{name:10s} {f['same']:7.1%} {f['dead']:7.1%} {f['any']:7.1%} {f['any_or_lvp']:8.1%}")
    for label, group in (("C SPEC", C_SPEC), ("F SPEC", F_SPEC)):
        print(
            f"{label:10s} {_mean(rows, group, 'same'):7.1%} {_mean(rows, group, 'dead'):7.1%} "
            f"{_mean(rows, group, 'any'):7.1%} {_mean(rows, group, 'any_or_lvp'):8.1%}"
        )

    # Shape assertions.
    for name, f in rows.items():
        # The four categories are cumulative by construction.
        assert f["same"] <= f["dead"] + 1e-9, name
        assert f["dead"] <= f["any"] + 1e-9, name
        assert f["any"] <= f["any_or_lvp"] + 1e-9, name
    # The paper's headline: substantial reuse on average; the dead-register
    # category adds visibly over same-register somewhere in the suite.
    overall = _mean(rows, PAPER_WORKLOADS, "any_or_lvp")
    assert overall >= 0.40, f"suite average any|lvp fraction too low: {overall:.1%}"
    assert any(rows[n]["dead"] - rows[n]["same"] > 0.05 for n in PAPER_WORKLOADS), (
        "dead-register reuse never material"
    )
