"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``      Run one or more configurations on a workload and print a table::

                 python -m repro run --workload m88ksim \\
                     --config no_predict lvp_all drvp_all_dead

             With ``--out-dir`` the run becomes a crash-safe *campaign*:
             every cell is journaled durably as it completes, and an
             interrupted (Ctrl-C, SIGTERM, SIGKILL) run is finished later
             with ``--resume``, re-executing only the cells that never
             committed::

                 python -m repro run --workload m88ksim --out-dir runs --run-id demo
                 python -m repro run --resume demo --out-dir runs

``suite``    Run configurations across all nine workloads (a figure row),
             optionally fanned out over worker processes; ``--out-dir`` /
             ``--run-id`` journal the campaign the same way::

                 python -m repro suite --config no_predict lvp_all drvp_all_dead_lv --jobs 4

             Every campaign runs under the fault-tolerant supervisor
             (:mod:`repro.runtime.service`); ``--jobs N`` gives it N worker
             processes, with a crashed worker's cells re-dispatched and a
             wedged one's pool recycled at the per-cell deadline; ``--store DIR``
             adds the shared content-addressed result store so identical
             cells are never re-simulated across campaigns::

                 python -m repro suite --out-dir runs --jobs 4 --store /var/cache/repro

``metrics``  Run configurations, then emit results + execution metrics
             (session-cache hit rates, sim wall time, campaign dispatches) as
             structured JSON::

                 python -m repro metrics --workload m88ksim --config no_predict drvp_all

``profile``  Show a workload's register-reuse profile and the four lists::

                 python -m repro profile --workload li --threshold 0.8

``realloc``  Run the Section 7.3 reallocator and show the rewritten
             instructions::

                 python -m repro realloc --workload mgrid

``lint``     Statically verify workload program variants (or an ``.s`` file)
             against the RVP rule catalog::

                 python -m repro lint --all --variant base srvp_dead realloc
                 python -m repro lint li --json
                 python -m repro lint --asm bad.s

``fuzz``     Property-based differential fuzzing: generate random verifier-clean
             programs and judge them against the oracle families in
             :mod:`repro.testing.oracles`; failures are greedily shrunk and can
             be written out as assembler reproducers::

                 python -m repro fuzz --runs 200 --seed 0
                 python -m repro fuzz --runs 50 --oracle trace-equivalence --json
                 python -m repro fuzz --runs 200 --out fuzz-repro/

``list``     List available workloads and configuration names.

Exit codes: 0 success, 1 lint/fuzz failures were found, 2 usage/internal
error or a *partial* campaign (some cells failed; the journal records which,
and ``--resume`` re-executes exactly those), 130 when a campaign was
interrupted (resume hint printed).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.experiment import CONFIG_NAMES, ExperimentRunner
from .core.results import ResultTable, render_metrics
from .uarch.config import aggressive_config, table1_config
from .uarch.recovery import RecoveryScheme
from .workloads.suite import WORKLOAD_CLASSES


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-insts", type=_at_least_one, default=40_000, help="committed-instruction budget per run")
    parser.add_argument("--threshold", type=_fraction, default=0.8, help="profile predictability threshold")
    parser.add_argument("--wide", action="store_true", help="use the Section 7.4 16-wide machine")
    parser.add_argument(
        "--recovery",
        choices=[s.value for s in RecoveryScheme],
        default="selective",
        help="value-misprediction recovery scheme",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print execution metrics (cache hit rates, sim wall time) as JSON afterwards",
    )


def _maybe_profile(args: argparse.Namespace) -> None:
    if getattr(args, "profile", False):
        print(render_metrics())


def _runner(args: argparse.Namespace, workload: str) -> ExperimentRunner:
    machine = aggressive_config() if args.wide else table1_config()
    return ExperimentRunner(workload, machine=machine, max_instructions=args.max_insts, threshold=args.threshold)


# ----------------------------------------------------------------------
# Journaled campaigns (run/suite --out-dir, run --resume)
# ----------------------------------------------------------------------
def _campaign_table(report) -> ResultTable:
    """A ResultTable with every campaign cell, completed or failed."""
    table = ResultTable()
    for result in report.results:
        table.add(result)
    for cell_id, status in report.statuses.items():
        if status != "ok":
            workload, config, _recovery = cell_id.split("/", 2)
            table.mark_failed(workload, config, status=status, message=report.failures.get(cell_id, ""))
    return table


def _render_campaign(report, args: argparse.Namespace) -> int:
    counts = report.counts()
    total = sum(counts.values())
    verb = "resumed" if report.resumed else "run"
    restored = f", {report.restored} restored" if report.restored else ""
    from_store = f", {report.store_hits} from store" if report.store_hits else ""
    print(
        f"  campaign {report.run_id} ({verb}): {counts.get('ok', 0)}/{total} cells ok"
        f"{restored}{from_store}, journal {report.journal_path}"
    )
    table = _campaign_table(report)
    print()
    print(table.render_ipc("campaign IPC"))
    if "no_predict" in report.spec.configs:
        print(table.render_speedup("speedups"))
    print(table.render_coverage("coverage/accuracy"))
    footer = table.render_failures()
    if footer:
        print(footer)
    _maybe_profile(args)
    if not report.complete:
        print(
            f"  partial: resume with `repro run --resume {report.run_id} "
            f"--out-dir {getattr(args, 'out_dir', 'runs')}`",
            file=sys.stderr,
        )
        return 2
    return 0


def _campaign_store(args: argparse.Namespace):
    """The shared content-addressed result store named by ``--store``, if any."""
    store_dir = getattr(args, "store", None)
    if not store_dir:
        return None
    from .runtime.store import ResultStore

    return ResultStore(store_dir)


def _campaign_spec(args: argparse.Namespace, workloads):
    from .runtime import CampaignSpec

    return CampaignSpec(
        workloads=tuple(workloads),
        configs=tuple(args.config),
        recoveries=(RecoveryScheme.parse(args.recovery).value,),
        machine="aggressive" if args.wide else "table1",
        max_instructions=args.max_insts,
        threshold=args.threshold,
        jobs=args.jobs,
    )


def _run_campaign_cli(args: argparse.Namespace, workloads) -> int:
    from .runtime import JournalError, resume_campaign, run_campaign

    try:
        if args.resume:
            report = resume_campaign(
                args.out_dir, args.resume, jobs=args.jobs, store=_campaign_store(args)
            )
        else:
            report = run_campaign(
                _campaign_spec(args, workloads), args.out_dir, run_id=args.run_id,
                store=_campaign_store(args),
            )
    except JournalError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        run_id = getattr(args, "resume", None) or args.run_id or "<run-id>"
        print(
            f"\nrepro: interrupted; committed cells are journaled — resume with "
            f"`repro run --resume {run_id} --out-dir {args.out_dir}`",
            file=sys.stderr,
        )
        return 130
    return _render_campaign(report, args)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume or args.out_dir:
        if args.out_dir is None:
            print("repro: --resume requires --out-dir (where the journal lives)", file=sys.stderr)
            return 2
        if not args.resume and not args.workload:
            print("repro: run needs --workload (or --resume RUN_ID)", file=sys.stderr)
            return 2
        return _run_campaign_cli(args, (args.workload,) if args.workload else ())
    if not args.workload:
        print("repro: run needs --workload", file=sys.stderr)
        return 2
    runner = _runner(args, args.workload)
    table = ResultTable()
    scheme = RecoveryScheme.parse(args.recovery)
    for config in args.config:
        table.add(runner.run(config, recovery=scheme))
    print(table.render_ipc(f"{args.workload} (IPC, {scheme.value} recovery)"))
    if "no_predict" in args.config:
        print(table.render_speedup("speedups"))
    print(table.render_coverage("coverage/accuracy"))
    _maybe_profile(args)
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.resume or args.out_dir:
        if args.out_dir is None:
            print("repro: --resume requires --out-dir (where the journal lives)", file=sys.stderr)
            return 2
        return _run_campaign_cli(args, tuple(WORKLOAD_CLASSES))
    table = ResultTable()
    scheme = RecoveryScheme.parse(args.recovery)
    if args.jobs > 1:
        import tempfile

        from .runtime import run_campaign

        # The same supervised campaign as --out-dir, journaled into a
        # scratch directory that is gone once the table is printed.
        with tempfile.TemporaryDirectory() as out_dir:
            report = run_campaign(
                _campaign_spec(args, WORKLOAD_CLASSES), out_dir, store=_campaign_store(args)
            )
        for result in report.results:
            table.add(result)
        mode = "processes" if report.used_processes else "serial fallback"
        print(f"  {len(report.results)}/{len(report.statuses)} cells done ({args.jobs} jobs, {mode})")
        for cell_id, error in report.failures.items():
            print(f"  FAILED {cell_id}: {error}")
    else:
        for name in WORKLOAD_CLASSES:
            runner = _runner(args, name)
            for config in args.config:
                table.add(runner.run(config, recovery=scheme))
            print(f"  {name} done")
    print()
    print(table.render_speedup(f"suite speedups ({scheme.value} recovery)"))
    print(table.render_coverage("coverage/accuracy"))
    _maybe_profile(args)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run configurations, then emit results + metrics as structured JSON."""
    runner = _runner(args, args.workload)
    table = ResultTable()
    scheme = RecoveryScheme.parse(args.recovery)
    for config in args.config:
        table.add(runner.run(config, recovery=scheme))
    print(table.render_json(include_metrics=True))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    runner = _runner(args, args.workload)
    profile = runner.train_profile()
    lists = runner.profile_lists()
    program = runner.workload.program
    fractions = profile.fig1.fractions()
    print(f"{args.workload}: load reuse (train input) — same {fractions['same']:.1%}, "
          f"dead {fractions['dead']:.1%}, any {fractions['any']:.1%}, any|lvp {fractions['any_or_lvp']:.1%}\n")
    print(f"{'pc':>4s}  {'instruction':30s} {'count':>7s} {'same':>6s} {'lv':>6s}  lists")
    for pc, site in sorted(profile.sites.items()):
        if site.count < 8:
            continue
        tags = [
            name
            for name, member in (
                ("same", pc in lists.same),
                ("dead", pc in lists.dead),
                ("live", pc in lists.live),
                ("lv", pc in lists.last_value),
            )
            if member
        ]
        hint = ""
        if pc in lists.dead:
            hint = f" <- {lists.dead[pc].reg.name}"
        print(
            f"{pc:4d}  {program[pc].render():30s} {site.count:7d} {site.same_rate():6.1%} "
            f"{site.lv_rate():6.1%}  {','.join(tags)}{hint}"
        )
    return 0


def _cmd_realloc(args: argparse.Namespace) -> int:
    runner = _runner(args, args.workload)
    new_program = runner.program_variant("realloc")
    report = runner.realloc_report
    print(f"{args.workload}: dead {report.dead_applied}/{report.dead_attempted} applied, "
          f"lvr {report.lvr_applied}/{report.lvr_attempted} applied")
    changed = 0
    for before, after in zip(runner.workload.program, new_program):
        if before.render() != after.render():
            print(f"  pc {before.pc:3d}:  {before.render():30s} ->  {after.render()}")
            changed += 1
    if not changed:
        print("  (no instructions rewritten)")
    return 0


#: Program variants the linter knows how to build.
LINT_VARIANTS = ("base", "srvp_same", "srvp_dead", "srvp_live", "srvp_live_lv", "realloc")


def _lint_one(session, name: str, variant: str, args: argparse.Namespace):
    """Build one (workload, variant) program plus its verification context."""
    program = session.program_variant(name, 1.0, args.max_insts, variant, None, args.threshold)
    lists = None
    lvr_pcs = set()
    if variant.startswith("srvp_"):
        lists = session.profile_lists(name, 1.0, args.max_insts, args.threshold, loads_only=True)
    elif variant == "realloc":
        lists = session.profile_lists(name, 1.0, args.max_insts, args.threshold, loads_only=False)
        report = session.realloc_report(name, 1.0, args.max_insts, None, args.threshold)
        if report is not None:
            lvr_pcs = report.lvr_pcs
    return program, lists, lvr_pcs


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .analysis.diagnostics import VerificationError, summarize
    from .analysis.verifier import LintConfig, rule_catalog, verify_program
    from .core.session import get_session

    if args.rules:
        for info in rule_catalog():
            print(f"{info.rule_id}  {info.severity.value:7s}  {info.description}")
        return 0

    config = LintConfig.parse(disabled=args.disable or (), strict=args.strict)
    session = get_session()

    workloads = sorted(WORKLOAD_CLASSES) if args.all else list(args.workload)
    if not workloads and not args.asm:
        print("lint: nothing to lint (name workloads, or use --all / --asm FILE)", file=sys.stderr)
        return 2
    unknown = [name for name in workloads if name not in WORKLOAD_CLASSES]
    if unknown:
        print(f"lint: unknown workload(s) {', '.join(unknown)}", file=sys.stderr)
        return 2

    targets = []  # (label, program, lists, lvr_pcs) or (label, None, exc)
    if args.asm:
        from .isa.assembler import AssemblerError, assemble

        try:
            with open(args.asm) as handle:
                program = assemble(handle.read())
        except (OSError, AssemblerError) as exc:
            print(f"lint: cannot assemble {args.asm}: {exc}", file=sys.stderr)
            return 2
        targets.append((f"asm:{args.asm}", program, None, set()))
    for name in workloads:
        for variant in args.variant:
            targets.append((f"{name}/{variant}", name, variant, None))

    reports = []
    any_errors = False
    for label, first, second, third in targets:
        if isinstance(first, str):  # (label, workload, variant, _)
            try:
                program, lists, lvr_pcs = _lint_one(session, first, second, args)
            except VerificationError as exc:
                # The session's own cache-fill postcondition already rejected
                # this variant; report its diagnostics rather than crashing.
                diagnostics = exc.diagnostics
                program = None
        else:  # (label, program, lists, lvr_pcs)
            program, lists, lvr_pcs = first, second, third
        if program is not None:
            diagnostics = verify_program(program, lists=lists, lvr_pcs=lvr_pcs, config=config)
        summary = summarize(diagnostics)
        any_errors = any_errors or summary["error"] > 0
        reports.append({
            "target": label,
            "summary": summary,
            "diagnostics": [d.to_dict() for d in diagnostics],
        })
        if not args.json:
            if not diagnostics:
                print(f"{label}: ok")
            else:
                print(f"{label}: {summary['error']} error(s), {summary['warning']} warning(s)")
                for diag in diagnostics:
                    print(f"  {diag.render()}")

    payload = {"ok": not any_errors, "targets": reports}
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif len(reports) > 1:
        total_err = sum(r["summary"]["error"] for r in reports)
        total_warn = sum(r["summary"]["warning"] for r in reports)
        print(f"\nlint: {len(reports)} target(s), {total_err} error(s), {total_warn} warning(s)")
    return 1 if any_errors else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json
    import os

    from .testing import GeneratorConfig, run_fuzz

    config = GeneratorConfig(
        segments=args.segments,
        loop_depth=args.loop_depth,
        load_density=args.load_density,
        register_pressure=args.register_pressure,
        branch_mix=args.branch_mix,
    ).validated()

    def progress(done: int, total: int) -> None:
        if not args.json and done % 50 == 0:
            print(f"  {done}/{total} cases", file=sys.stderr)

    journal = None
    if args.out_dir:
        from .runtime import JournalError, RunJournal, journal_path

        os.makedirs(args.out_dir, exist_ok=True)
        run_id = args.run_id or f"fuzz-seed{args.seed}"
        fuzz_config = {
            "kind": "fuzz",
            "seed": args.seed,
            "runs": args.runs,
            "oracles": sorted(args.oracle) if args.oracle else [],
            "shrink": not args.no_shrink,
        }
        path = journal_path(args.out_dir, run_id)
        try:
            if os.path.exists(path):
                journal = RunJournal.open(path)
                journal.verify_config(fuzz_config)
            else:
                journal = RunJournal.create(
                    args.out_dir, run_id, fuzz_config,
                    [f"seed{args.seed + i}" for i in range(args.runs)],
                )
        except JournalError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2

    report = run_fuzz(
        seed=args.seed,
        runs=args.runs,
        oracles=args.oracle,
        shrink=not args.no_shrink,
        config=config,
        progress=progress,
        journal=journal,
    )
    if journal is not None:
        journal.close()
        from .runtime import atomic_write_json

        atomic_write_json(os.path.join(args.out_dir, "fuzz-report.json"), report.to_dict())

    if args.out and report.failures:
        os.makedirs(args.out, exist_ok=True)
        for failure in report.failures:
            path = os.path.join(args.out, f"seed{failure.seed}-{failure.oracle}.s")
            with open(path, "w") as handle:
                handle.write(f"; seed {failure.seed} oracle {failure.oracle}\n")
                handle.write(f"; {failure.message}\n")
                handle.write(failure.reproducer + "\n")

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for failure in report.failures:
            print(
                f"FAIL seed {failure.seed} [{failure.oracle}] "
                f"{failure.original_instructions} -> {failure.shrunk_instructions} insts"
            )
            print(f"  {failure.message}")
        state = "ok" if report.ok else f"{len(report.failures)} failure(s)"
        print(
            f"fuzz: {report.checked} case(s) checked, {report.invalid} invalid, "
            f"{len(report.oracles)} oracle(s): {state}"
        )
    return 0 if report.ok else 1


def _cmd_list(args: argparse.Namespace) -> int:
    print("workloads:")
    for name, cls in WORKLOAD_CLASSES.items():
        print(f"  {name:10s} [{cls.category}]  {cls.description}")
    print("\nconfigurations:")
    for config in CONFIG_NAMES:
        print(f"  {config}")
    return 0


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _rule_id(text: str) -> str:
    from .analysis.verifier import rule_catalog

    known = [info.rule_id for info in rule_catalog()]
    rule_id = text.upper()
    if rule_id not in known:
        raise argparse.ArgumentTypeError(f"unknown rule id {text!r} (known: {', '.join(known)})")
    return rule_id


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be between 0 and 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Storageless Value Prediction Using Prior Register Values (ISCA 1999) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_jobs(sub_parser: argparse.ArgumentParser, default: int, help: str) -> None:
        sub_parser.add_argument(
            "--jobs", type=_at_least_one, default=default, metavar="N", help=help
        )

    def _add_campaign(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--out-dir", metavar="DIR",
            help="journal the run as a crash-safe campaign under DIR (enables --resume)",
        )
        sub_parser.add_argument("--run-id", metavar="ID", help="campaign run id (default: generated)")
        sub_parser.add_argument(
            "--resume", metavar="RUN_ID",
            help="finish an interrupted campaign: restore ok cells from the journal, run the rest",
        )
        sub_parser.add_argument(
            "--store", metavar="DIR",
            help="shared content-addressed result store: identical cells are "
            "restored from DIR instead of re-simulated, across campaigns",
        )

    run_parser = sub.add_parser("run", help="run configurations on one workload")
    run_parser.add_argument("--workload", choices=sorted(WORKLOAD_CLASSES))
    run_parser.add_argument(
        "--config", nargs="+", choices=CONFIG_NAMES,
        default=["no_predict", "lvp_all", "drvp_all_dead_lv"],
    )
    _add_jobs(
        run_parser, 1,
        "worker processes for campaign cells (with --out-dir/--resume; 1 = in-process)",
    )
    _add_campaign(run_parser)
    _add_common(run_parser)
    run_parser.set_defaults(fn=_cmd_run)

    suite_parser = sub.add_parser("suite", help="run configurations across all workloads")
    suite_parser.add_argument(
        "--config", nargs="+", choices=CONFIG_NAMES,
        default=["no_predict", "lvp_all", "drvp_all_dead_lv"],
    )
    _add_jobs(
        suite_parser, 1, "worker processes for (workload x config) fan-out (1 = serial)"
    )
    _add_campaign(suite_parser)
    _add_common(suite_parser)
    suite_parser.set_defaults(fn=_cmd_suite)

    metrics_parser = sub.add_parser("metrics", help="run configurations and emit results + metrics JSON")
    metrics_parser.add_argument("--workload", default="m88ksim", choices=sorted(WORKLOAD_CLASSES))
    metrics_parser.add_argument(
        "--config", nargs="+", choices=CONFIG_NAMES, default=["no_predict", "drvp_all_dead_lv"]
    )
    _add_common(metrics_parser)
    metrics_parser.set_defaults(fn=_cmd_metrics)

    profile_parser = sub.add_parser("profile", help="show a workload's reuse profile")
    profile_parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    _add_common(profile_parser)
    profile_parser.set_defaults(fn=_cmd_profile)

    realloc_parser = sub.add_parser("realloc", help="run the Section 7.3 reallocator")
    realloc_parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_CLASSES))
    _add_common(realloc_parser)
    realloc_parser.set_defaults(fn=_cmd_realloc)

    lint_parser = sub.add_parser("lint", help="statically verify workload program variants")
    lint_parser.add_argument(
        "workload", nargs="*", metavar="WORKLOAD",
        help="workloads to lint (default: none; use --all for every workload)",
    )
    lint_parser.add_argument("--all", action="store_true", help="lint every registered workload")
    lint_parser.add_argument(
        "--variant", nargs="+", default=["base"], choices=LINT_VARIANTS,
        help="program variants to build and verify (default: base)",
    )
    lint_parser.add_argument("--asm", metavar="FILE", help="lint an assembler text file instead")
    lint_parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    lint_parser.add_argument("--strict", action="store_true", help="treat warnings as errors")
    lint_parser.add_argument(
        "--disable", nargs="+", type=_rule_id, metavar="RULE", help="rule ids to skip (e.g. RVP004)"
    )
    lint_parser.add_argument("--rules", action="store_true", help="print the rule catalog and exit")
    lint_parser.add_argument("--max-insts", type=_at_least_one, default=40_000, help="profiling budget for variant construction")
    lint_parser.add_argument("--threshold", type=_fraction, default=0.8, help="profile predictability threshold")
    lint_parser.set_defaults(fn=_cmd_lint)

    from .testing.oracles import ORACLE_FAMILIES

    fuzz_parser = sub.add_parser("fuzz", help="differential fuzzing of the sim/compiler/predictor stack")
    fuzz_parser.add_argument("--seed", type=int, default=0, help="first generator seed (seeds are consecutive)")
    fuzz_parser.add_argument("--runs", type=_at_least_one, default=100, help="number of generated programs")
    fuzz_parser.add_argument(
        "--oracle", nargs="+", choices=list(ORACLE_FAMILIES), default=None,
        help=f"oracle families to apply (default: all {len(ORACLE_FAMILIES)})",
    )
    fuzz_parser.add_argument("--no-shrink", action="store_true", help="report failures without minimising them")
    fuzz_parser.add_argument("--json", action="store_true", help="emit the campaign report as JSON")
    fuzz_parser.add_argument("--out", metavar="DIR", help="write shrunk reproducers (.s files) to this directory")
    fuzz_parser.add_argument(
        "--out-dir", metavar="DIR",
        help="journal judged seeds under DIR (re-running the same command resumes at the first unjudged seed)",
    )
    fuzz_parser.add_argument("--run-id", metavar="ID", help="fuzz journal run id (default: fuzz-seed<seed>)")
    fuzz_parser.add_argument("--segments", type=int, default=4, help="generator: code segments per program")
    fuzz_parser.add_argument("--loop-depth", type=int, default=2, help="generator: maximum loop nesting")
    fuzz_parser.add_argument("--load-density", type=float, default=0.25, help="generator: fraction of loads")
    fuzz_parser.add_argument("--register-pressure", type=int, default=8, help="generator: working registers")
    fuzz_parser.add_argument("--branch-mix", type=float, default=0.4, help="generator: branchy-segment fraction")
    fuzz_parser.set_defaults(fn=_cmd_fuzz)

    list_parser = sub.add_parser("list", help="list workloads and configurations")
    list_parser.set_defaults(fn=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Exit codes: 0 success, 1 lint errors found, 2 usage/internal error.

    (argparse usage failures raise ``SystemExit(2)`` on their own.)
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `python -m repro list | head`
        return 0
    except Exception as exc:
        print(f"repro: internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
