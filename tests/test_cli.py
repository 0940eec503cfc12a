"""CLI tests (python -m repro ...)."""

import pytest

from repro.cli import build_parser, main
from repro.runtime import service
from repro.sim.functional import SimulationError
from repro.workloads.suite import WORKLOAD_CLASSES


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list_command(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    for name in ("go", "m88ksim", "turb3d"):
        assert name in out
    assert "drvp_all_dead_lv" in out and "no_predict" in out


def test_run_command(capsys):
    code, out = run_cli(
        capsys, "run", "--workload", "go", "--config", "no_predict", "drvp_all", "--max-insts", "6000"
    )
    assert code == 0
    assert "go" in out and "drvp_all" in out
    assert "speedups" in out  # no_predict present -> speedup table


def test_profile_command(capsys):
    code, out = run_cli(capsys, "profile", "--workload", "perl", "--max-insts", "8000")
    assert code == 0
    assert "load reuse" in out and "lists" in out


def test_realloc_command(capsys):
    code, out = run_cli(capsys, "realloc", "--workload", "mgrid", "--max-insts", "8000")
    assert code == 0
    assert "applied" in out


def test_recovery_and_wide_flags(capsys):
    code, out = run_cli(
        capsys,
        "run", "--workload", "go", "--config", "no_predict",
        "--recovery", "refetch", "--wide", "--max-insts", "5000",
    )
    assert code == 0 and "refetch" in out


def test_metrics_command_emits_json(capsys):
    import json

    code, out = run_cli(
        capsys, "metrics", "--workload", "li", "--config", "no_predict", "lvp_all", "--max-insts", "4000"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["workloads"] == ["li"]
    assert {cell["config"] for cell in payload["cells"]} == {"no_predict", "lvp_all"}
    assert payload["metrics"]["counters"]["sim.runs"] >= 1
    assert "sim.wall" in payload["metrics"]["timers"]


def test_run_profile_flag_appends_metrics_json(capsys):
    code, out = run_cli(
        capsys, "run", "--workload", "li", "--config", "no_predict", "--max-insts", "4000", "--profile"
    )
    assert code == 0
    assert '"counters"' in out and '"timers"' in out


def test_suite_command_with_jobs(capsys):
    code, out = run_cli(
        capsys, "suite", "--config", "no_predict", "lvp_all", "--max-insts", "1500", "--jobs", "2"
    )
    assert code == 0
    assert f"{2 * len(WORKLOAD_CLASSES)}/{2 * len(WORKLOAD_CLASSES)} cells ok" in out
    assert "speedups (selective recovery)" in out
    assert "journal" not in out  # a temporary campaign: nothing to resume
    assert "did not complete" not in out


#: The supervisor's cell executor, kept for the failing wrapper below.
_run_cell = service._run_cell


def _fail_li_cells(cell, *args):
    """``service._run_cell`` with every li cell failing deterministically.

    Module-level so it pickles by reference into forked pool workers."""
    if cell.workload == "li":
        raise SimulationError("injected fault")
    return _run_cell(cell, *args)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_suite_with_a_failing_cell_exits_two(capsys, monkeypatch, jobs):
    monkeypatch.setattr(service, "_run_cell", _fail_li_cells)
    code = main(["suite", "--config", "no_predict", "--max-insts", "500", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2
    cells = len(WORKLOAD_CLASSES)
    assert f"{cells - 1}/{cells} cells ok" in captured.out
    assert "FAILED   li/no_predict: SimulationError('injected fault')" in captured.out
    assert "partial: 1/" in captured.err
    assert "--resume" not in captured.err  # a temporary campaign: nothing to resume
    assert "internal error" not in captured.err


def test_run_without_out_dir_writes_the_store(capsys, tmp_path):
    from repro.runtime.store import ResultStore

    store_dir = tmp_path / "store"
    argv = ["run", "--workload", "li", "--config", "no_predict", "lvp", "--max-insts", "1500",
            "--store", str(store_dir)]
    assert main(argv) == 0
    assert len(ResultStore(str(store_dir))) == 2  # one entry per cell
    assert main(argv) == 0
    assert "2/2 cells ok, 2 from store" in capsys.readouterr().out


def run_cli_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lint_clean_workload_exits_zero(capsys):
    code, out = run_cli(capsys, "lint", "li", "--max-insts", "4000")
    assert code == 0
    assert "li/base: ok" in out


def test_lint_all_variants_of_one_workload(capsys):
    code, out = run_cli(
        capsys, "lint", "mgrid", "--max-insts", "4000",
        "--variant", "base", "srvp_same", "realloc",
    )
    assert code == 0
    assert "srvp_same" in out and "realloc" in out


def test_lint_bad_asm_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.s"
    bad.write_text("add r2, r1, #1\nhalt\n")  # r1 is garbage at entry
    code, out = run_cli(capsys, "lint", "--asm", str(bad))
    assert code == 1
    assert "RVP003" in out


def test_lint_clean_asm_exits_zero(capsys, tmp_path):
    good = tmp_path / "good.s"
    good.write_text("li r1, #1\nadd r2, r1, #1\nhalt\n")
    code, out = run_cli(capsys, "lint", "--asm", str(good))
    assert code == 0


def test_lint_strict_promotes_warnings_to_exit_one(capsys, tmp_path):
    warn = tmp_path / "warn.s"
    warn.write_text("br end\nli r1, #1\nend:\nhalt\n")  # dead code: RVP004 warning
    code, _ = run_cli(capsys, "lint", "--asm", str(warn))
    assert code == 0
    code, out = run_cli(capsys, "lint", "--asm", str(warn), "--strict")
    assert code == 1
    assert "RVP004" in out


def test_lint_disable_silences_a_rule(capsys, tmp_path):
    bad = tmp_path / "bad.s"
    bad.write_text("add r2, r1, #1\nhalt\n")
    code, _ = run_cli(capsys, "lint", "--asm", str(bad), "--disable", "RVP003")
    assert code == 0


def test_lint_unknown_workload_exits_two(capsys):
    code, out, err = run_cli_err(capsys, "lint", "gcc")
    assert code == 2
    assert "gcc" in err


def test_lint_nothing_to_lint_exits_two(capsys):
    code, out, err = run_cli_err(capsys, "lint")
    assert code == 2


def test_lint_missing_asm_file_exits_two(capsys, tmp_path):
    code, out, err = run_cli_err(capsys, "lint", "--asm", str(tmp_path / "nope.s"))
    assert code == 2


def test_lint_json_output(capsys):
    import json

    code, out = run_cli(capsys, "lint", "li", "--max-insts", "4000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    (target,) = payload["targets"]
    assert target["summary"]["error"] == 0
    assert isinstance(target["diagnostics"], list)


def test_lint_rules_catalog(capsys):
    code, out = run_cli(capsys, "lint", "--rules")
    assert code == 0
    listed = [line.split()[0] for line in out.splitlines()]
    assert listed == [f"RVP00{n}" for n in range(1, 9)] + ["RVP013"]


def test_bad_workload_rejected():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--workload", "gcc"])


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--workload", "li", "--config", "no_predict"],
        ["lint", "li"],
    ],
    ids=["run", "lint"],
)
@pytest.mark.parametrize(
    "flag,value",
    [("--max-insts", "0"), ("--max-insts", "-5"), ("--threshold", "1.5"), ("--threshold", "-1")],
)
def test_out_of_range_budget_and_threshold_rejected(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [flag, value])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "internal error" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", "--runs", "0"],
        ["lint", "li", "--disable", "RVP999"],
        ["run", "--workload", "li", "--config", "bogus"],
        ["suite", "--config", "bogus"],
        ["metrics", "--config", "bogus"],
    ],
    ids=["fuzz-runs", "lint-disable", "run-config", "suite-config", "metrics-config"],
)
def test_out_of_range_counts_rejected(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}" in err and "internal error" not in err


def test_serve_command_is_gone(capsys):
    # Campaigns start with `run`/`suite --out-dir` and finish with `run --resume`.
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--spool", "spool", "--out-dir", "runs"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_ir_command_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["ir", "li"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_analyze_command_is_gone(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", "li"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_fuzz_command_clean(capsys):
    code, out = run_cli(capsys, "fuzz", "--runs", "5", "--seed", "0")
    assert code == 0
    assert "5 case(s) checked" in out
    assert "ok" in out


def test_fuzz_command_json(capsys):
    import json

    code, out = run_cli(capsys, "fuzz", "--runs", "3", "--seed", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["checked"] == 3
    assert payload["failures"] == []
    assert len(payload["oracles"]) == 5
    assert "pipeline-equivalence" in payload["oracles"]


def test_fuzz_command_oracle_subset(capsys):
    import json

    code, out = run_cli(
        capsys, "fuzz", "--runs", "2", "--oracle", "trace-equivalence", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracles"] == ["trace-equivalence"]


def test_fuzz_command_failure_exit_code_and_artifacts(capsys, tmp_path, monkeypatch):
    """A seeded defect makes `repro fuzz` exit 1 and write shrunk reproducers."""
    import json

    from conftest import bump_first_li

    from repro.testing import oracles

    real = oracles.mark_static_rvp
    monkeypatch.setattr(
        oracles, "mark_static_rvp", lambda program, *args: bump_first_li(real(program, *args))
    )
    out_dir = tmp_path / "repro-artifacts"
    code, out = run_cli(
        capsys, "fuzz", "--runs", "2", "--seed", "0",
        "--oracle", "pass-preservation", "--json", "--out", str(out_dir),
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["failures"]
    written = list(out_dir.glob("seed*-pass-preservation.s"))
    assert written, "expected shrunk reproducer artifacts"
    text = written[0].read_text()
    assert "halt" in text  # a runnable program, not a fragment


@pytest.mark.parametrize(
    "flag,value",
    [("--segments", "2"), ("--loop-depth", "0"), ("--load-density", "0.9"),
     ("--register-pressure", "4"), ("--branch-mix", "0.1")],
)
def test_fuzz_shape_flags_are_gone(capsys, flag, value):
    # The fuzz journal fingerprints seed, runs, oracles and shrink only, so
    # a shape flag would let a resume restore seeds judged on other programs.
    with pytest.raises(SystemExit) as excinfo:
        main(["fuzz", "--runs", "1", flag, value])
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_fuzz_command_rejects_unknown_oracle():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["fuzz", "--oracle", "nonsense"])
