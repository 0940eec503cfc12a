"""End-to-end benchmark: regenerate the paper's figures and time every layer.

Run from the repository root::

    python3 perf/run.py --seed 0                  # all four workloads + ledger
    python3 perf/run.py --workload figures --seed 3 --seconds 15 --trace 0

Every repetition runs in a fresh, serial, single-threaded child process
that imports ``repro`` from ``src/``, builds the workload's programs (the
timed set-up) and then runs the workload once against a cold session.
Repetitions of different workloads are interleaved.  After the timed
repetitions, one traced repetition per workload gives the per-layer
ledger.  With ``--workload`` the last line of standard output is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``); see README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"

WORKLOADS = ("figures", "sweep", "long", "campaign")

#: Every end-to-end metric: (name, unit).
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cell_p50_ms", "ms"),
    ("cell_p90_ms", "ms"),
    ("rerun_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_speedup_geomean", "x"),
)
#: Timed repetitions per workload when no ``--seconds`` budget is given.
REPS = 3
#: Set-up samples per workload; children that only set up fill the gap.
SETUP_SAMPLES = 5
#: A child that runs longer than this is killed and fails the run.
CHILD_TIMEOUT_S = 150
#: Percentiles the tail-latency rule chooses from.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def highest_percentile(samples: int, beyond: int = 10) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with at least ``beyond`` samples above it."""
    fitting = [p for p in PERCENTILES if samples * (100 - p) / 100 >= beyond]
    return max(fitting) if fitting else None


# ----------------------------------------------------------------------
# Child: one repetition
# ----------------------------------------------------------------------
def child(spec: Dict) -> Dict:
    """Set up, then (unless ``mode == "setup"``) run one repetition."""
    from clock import REFERENCE_KERNEL_S, HostClock
    from tracing import Tracer

    clock = HostClock().start()
    try:
        started = clock.now()
        sys.path.insert(0, str(SRC))
        import workloads

        plan = workloads.make_plan(spec["workload"], spec["seed"])
        workloads.setup(plan)
        out: Dict = {"setup_s": clock.normalized(started, clock.now())}
        if spec["mode"] == "setup":
            return out
        tracer = None
        if spec["mode"] == "traced":
            import ledger

            counters_before = ledger.session_counters()
            tracer = Tracer(ledger.LAYER_TARGETS, clock=clock.now, observers=ledger.OBSERVERS).install()
        try:
            if plan.workload == "campaign":
                # Inside the checkout: the benchmark writes nowhere else.
                with tempfile.TemporaryDirectory(prefix=".work-", dir=PERF) as workdir:
                    rep = workloads.run_campaign(plan, clock.now, workdir)
            else:
                rep = workloads.run_grid(plan, clock.now)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if spec["check"] and plan.checks:
            rep.mismatches.update(workloads.reference_check(plan, rep.cells))
    finally:
        clock.stop()
    scale = clock.scale(rep.start, rep.end)
    out.update(
        wall_s=(rep.end - rep.start) * scale,
        host_wall_s=rep.end - rep.start,
        host_kernel_ms=REFERENCE_KERNEL_S * 1000 / scale,
        cells=[
            [c.cell_id, clock.normalized(*c.window, seconds=c.seconds) * 1000, c.digest, c.error]
            for c in rep.cells
        ],
        reruns_s=[clock.normalized(start, end) for start, end in rep.reruns],
        mismatches=rep.mismatches,
        sim=workloads.sim_summary(plan, rep.cells),
        plan={"scale": plan.scale, "max_insts": plan.max_insts},
    )
    if tracer is not None:
        after = ledger.session_counters()
        counters = {name: after[name] - counters_before[name] for name in after}
        out["layers"] = ledger.layer_metrics(tracer, rep.end - rep.start, scale, counters)
        out["layers"]["session.resident_mb"] = rep.resident_mb
    return out


# ----------------------------------------------------------------------
# Parent: schedule children, aggregate, report
# ----------------------------------------------------------------------
def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(workload: str, seed: int, mode: str, check: bool = False) -> Dict:
    spec = json.dumps({"workload": workload, "seed": seed, "mode": mode, "check": check})
    command = [sys.executable, str(PERF / "run.py"), "--child"]
    try:
        proc = subprocess.run(
            command, input=spec, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=_child_env(),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode} child exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} child exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workloads: Sequence[str], seed: int, seconds: Optional[float], trace: bool) -> Dict[str, Dict]:
    """Run every child; returns workload -> {"reps", "setups", "traced"}."""
    runs = {w: {"reps": [], "setups": [], "traced": None, "elapsed": 0.0} for w in workloads}

    def wants(workload: str) -> bool:
        run = runs[workload]
        done = len(run["reps"])
        if done == 0:
            return True
        if seconds is None:
            return done < REPS
        return run["elapsed"] * (done + 1) / done <= seconds

    # Round-robin, so that a slow period on the host spreads over workloads.
    while any(wants(w) for w in workloads):
        for workload in workloads:
            if wants(workload):
                run = runs[workload]
                started = time.monotonic()
                out = spawn(workload, seed, "rep", check=not run["reps"])
                run["elapsed"] += time.monotonic() - started
                run["reps"].append(out)
                run["setups"].append(out["setup_s"])
    for workload in workloads:
        run = runs[workload]
        while len(run["setups"]) < SETUP_SAMPLES:
            run["setups"].append(spawn(workload, seed, "setup")["setup_s"])
        if trace:
            run["traced"] = spawn(workload, seed, "traced")
    return runs


def summarize(workload: str, run: Dict) -> Dict:
    """End-to-end metrics, correctness and per-layer ledger of one workload."""
    reps = run["reps"]
    first = reps[0]
    ms = [cell[1] for rep in reps for cell in rep["cells"]]
    mismatches = dict(first["mismatches"])
    reference = {cell[0]: cell[2] for cell in first["cells"]}
    for rep in reps[1:] + ([run["traced"]] if run["traced"] else []):
        mismatches.update(rep["mismatches"])
        for cell_id, _, digest, _ in rep["cells"]:
            if reference.get(cell_id) != digest:
                mismatches[cell_id] = f"counters digest {digest} differs from {reference.get(cell_id)}"
    errors = {cell[0]: cell[3] for rep in reps for cell in rep["cells"] if cell[3]}
    failed = set(errors) | set(mismatches)
    wall = statistics.median(rep["wall_s"] for rep in reps)
    reruns = [seconds for rep in reps for seconds in rep["reruns_s"]]
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(run["setups"]),
        "cell_p50_ms": percentile(ms, 50),
        "cell_p90_ms": percentile(ms, 90),
        # Only the campaign has a result store; elsewhere a rerun is cold.
        "rerun_s": statistics.median(reruns) if reruns else wall,
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "sim_speedup_geomean": first["sim"]["sim_speedup_geomean"],
    }
    layers = None
    if run["traced"]:
        traced = run["traced"]
        layers = dict(traced["layers"])
        layers["tracing.overhead"] = traced["wall_s"] / wall - 1
        layers.update({k: v for k, v in first["sim"].items() if k.startswith("sim.")})
    # Over the cells in id order, so that every seed prints the same digest.
    cells = sorted(f"{cell[0]}={cell[2]}" for cell in first["cells"])
    digest = hashlib.sha256("\n".join(cells).encode()).hexdigest()[:16]
    return {
        "metrics": metrics,
        "layers": layers,
        "correct": not mismatches,
        "attempted": len(first["cells"]),
        "failed": len(failed),
        "digest": digest,
        "diagnostics": {**errors, **mismatches},
        "samples": {
            "reps": len(reps),
            "cells": len(ms),
            "beyond_p90": sum(1 for value in ms if value > metrics["cell_p90_ms"]),
            "tail_pct": highest_percentile(len(ms)),
            "setups": len(run["setups"]),
            "reruns": len(reruns),
        },
        "host_wall_s": statistics.median(rep["host_wall_s"] for rep in reps),
        "host_kernel_ms": statistics.median(rep["host_kernel_ms"] for rep in reps),
        "plan": first["plan"],
    }


def environment() -> Dict:
    commit = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "commit": commit,
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def print_report(summaries: Dict[str, Dict], env: Dict) -> None:
    import ledger

    names = list(summaries)
    print(f"commit {env['commit']}  host {env['host']}  nproc {env['nproc']}  python {env['python']}")
    print(f"{'end-to-end':28s}" + "".join(f"{n:>12s}" for n in names))
    for metric, unit in END_TO_END:
        row = "".join(f"{_fmt(summaries[n]['metrics'][metric]):>12s}" for n in names)
        print(f"{metric + ' [' + unit + ']':28s}{row}")
    fail_frac = "".join(f"{summaries[n]['failed']}/{summaries[n]['attempted']}".rjust(12) for n in names)
    print(f"{'fail_frac':28s}{fail_frac}")
    for key in ("reps", "cells", "beyond_p90", "tail_pct", "setups", "reruns"):
        print(f"{'samples.' + key:28s}" + "".join(f"{_fmt(summaries[n]['samples'][key]):>12s}" for n in names))
    print(f"{'host_wall_s (raw)':28s}" + "".join(f"{summaries[n]['host_wall_s']:>12.4g}" for n in names))
    print(f"{'host_kernel_ms':28s}" + "".join(f"{summaries[n]['host_kernel_ms']:>12.4g}" for n in names))
    if all(summaries[n]["layers"] for n in names):
        print(f"{'per-layer':28s}" + "".join(f"{n:>12s}" for n in names))
        for metric, unit, _ in ledger.PER_LAYER:
            row = "".join(f"{_fmt(summaries[n]['layers'][metric]):>12s}" for n in names)
            print(f"{metric + ' [' + unit + ']':28s}{row}")
    for name in names:
        summary = summaries[name]
        verdict = "ok" if summary["correct"] else "MISMATCH"
        print(f"digest {name} {summary['digest']} {verdict}")
        for cell_id, message in sorted(summary["diagnostics"].items()):
            print(f"  {name} {cell_id}: {message.splitlines()[0]}")


def json_line(summary: Dict, trace: bool) -> str:
    import ledger

    if trace:
        units = {name: unit for name, unit, _ in ledger.PER_LAYER}
        values = summary["layers"]
    else:
        units = dict(END_TO_END)
        values = summary["metrics"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps(
        {
            "correct": summary["correct"],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 is the paper configuration")
    parser.add_argument(
        "--seconds", type=float,
        help=f"time budget per workload for the timed repetitions (default: {REPS} repetitions)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1, help="run one traced repetition")
    parser.add_argument("--out", metavar="FILE", help="append this run's record to FILE (JSON lines)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child(json.loads(sys.stdin.read()))))
        return 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no repro package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    workloads = (args.workload,) if args.workload else WORKLOADS
    try:
        runs = measure(workloads, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    summaries = {w: summarize(w, runs[w]) for w in workloads}
    env = environment()
    print_report(summaries, env)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**env, "seed": args.seed, "workloads": summaries}) + "\n")
    if args.workload:
        print(json_line(summaries[args.workload], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
