"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 perf/compare.py A.jsonl B.jsonl

``A`` holds the parent commit's runs and ``B`` the change's, one record per
line as ``run.py --out`` appends them.  For each workload and end-to-end
metric the report gives both sides' median and quartiles, the change in
the median, the larger of the two run-to-run spreads (distance between the
quartiles over the median), the pair win rate of B over A (pairs taken in
file order, ties counting for neither) and a verdict:

* ``worse``      - B's median is worse than A's by more than the bound;
* ``unresolved`` - the spread is wider than the bound, so the medians say
  nothing, unless every run of B reads better than every run of A;
* ``better``     - B wins at least nine tenths of the pairs and the medians
  differ by more than A's own spread (or the unresolved exception holds);
* ``same``       - none of the above.

The exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def series(runs: Sequence[Dict], workload: str, metric: str) -> List[float]:
    values = []
    for run in runs:
        value = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if value is not None:
            values.append(value)
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the benchmark gate takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _relative(amount: float, base: float) -> float:
    if base:
        return amount / abs(base)
    return 0.0 if amount == 0 else float("inf")


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> Dict:
    """Judge B against A for one metric (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = max(_relative(a_q3 - a_q1, a_med), _relative(b_q3 - b_q1, b_med))
    worsening = _relative(sign * (b_med - a_med), a_med)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    every_b_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound:
        outcome = "better" if every_b_better else "unresolved"
    elif worsening > bound:
        outcome = "worse"
    elif win_rate >= 0.9 and sign * (a_med - b_med) > a_q3 - a_q1:
        outcome = "better"
    else:
        outcome = "same"
    return {
        "a": (a_q1, a_med, a_q3),
        "b": (b_q1, b_med, b_q3),
        "change": _relative(b_med - a_med, a_med),
        "spread": spread,
        "win_rate": win_rate,
        "verdict": outcome,
    }


def compare(a_runs: Sequence[Dict], b_runs: Sequence[Dict], metrics: Sequence[Dict]) -> List[Dict]:
    rows = []
    workloads = list(dict.fromkeys(w for run in a_runs for w in run["workloads"]))
    for workload in workloads:
        for metric in metrics:
            a = series(a_runs, workload, metric["name"])
            b = series(b_runs, workload, metric["name"])
            if not a or not b:
                continue
            row = verdict(a, b, metric["bound"], metric["better"])
            rows.append({"workload": workload, "metric": metric["name"], "bound": metric["bound"], **row})
    return rows


def render(rows: Sequence[Dict]) -> str:
    lines = [
        f"{'workload':9s} {'metric':20s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s}"
        f" {'change':>8s} {'spread':>7s} {'bound':>6s} {'wins':>6s}  verdict"
    ]
    for row in rows:
        a_q1, a_med, a_q3 = row["a"]
        b_q1, b_med, b_q3 = row["b"]
        lines.append(
            f"{row['workload']:9s} {row['metric']:20s}"
            f" {f'{a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]':>30s}"
            f" {f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':>30s}"
            f" {row['change']:>+8.1%} {row['spread']:>7.1%} {row['bound']:>6.0%}"
            f" {row['win_rate']:>6.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of perf/run.py records")
    parser.add_argument("a", help="baseline runs (JSON lines from run.py --out)")
    parser.add_argument("b", help="candidate runs")
    args = parser.parse_args(argv)
    with open(BENCHMARK, "r", encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    rows = compare(load_runs(args.a), load_runs(args.b), metrics)
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
