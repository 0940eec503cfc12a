"""Workload suite tests: every model runs, halts, is deterministic, and has
the structural properties the experiments rely on."""

import hashlib

import pytest

from repro.profiling import ReuseProfile
from repro.sim import run_program
from repro.workloads import C_SPEC, F_SPEC, PAPER_WORKLOADS, WORKLOAD_CLASSES, all_workloads, make_workload

ALL_NAMES = tuple(WORKLOAD_CLASSES)
BUDGET = 120_000


@pytest.fixture(scope="module")
def runs():
    results = {}
    for workload in all_workloads():
        program, memory = workload.build("ref")
        results[workload.name] = run_program(program, memory=memory, max_instructions=BUDGET, collect_trace=True)
    return results


def test_registry_matches_paper_suite():
    assert PAPER_WORKLOADS == C_SPEC + F_SPEC
    assert len(PAPER_WORKLOADS) == 9  # the paper's figure suite
    assert ALL_NAMES[:9] == PAPER_WORKLOADS
    assert set(ALL_NAMES) == set(PAPER_WORKLOADS) | {"dotprod", "stencil"}
    for name in C_SPEC:
        assert make_workload(name).category == "C"
    for name in F_SPEC:
        assert make_workload(name).category == "F"


def test_unknown_workload_rejected():
    with pytest.raises(KeyError, match="unknown workload"):
        make_workload("gcc")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_runs_to_halt(runs, name):
    result = runs[name]
    assert result.halted, f"{name} did not halt within {BUDGET} instructions"
    assert 5_000 <= result.instructions <= BUDGET


@pytest.mark.parametrize("name", ALL_NAMES)
def test_deterministic_per_input(name):
    workload = make_workload(name)
    r1 = run_program(*workload.build("ref"), max_instructions=30_000)
    r2 = run_program(*workload.build("ref"), max_instructions=30_000)
    assert r1.instructions == r2.instructions
    assert r1.state.state_equal(r2.state)
    assert r1.memory == r2.memory


@pytest.mark.parametrize("name", ALL_NAMES)
def test_train_and_ref_inputs_differ(name):
    workload = make_workload(name)
    assert workload.seed("train") != workload.seed("ref")
    assert workload.memory("train") != workload.memory("ref")


def test_invalid_input_name_rejected():
    with pytest.raises(ValueError, match="unknown input"):
        make_workload("li").memory("test")


def test_scale_changes_work_amount():
    small = run_program(*make_workload("go", scale=0.5).build("ref"), max_instructions=BUDGET)
    large = run_program(*make_workload("go", scale=1.0).build("ref"), max_instructions=BUDGET)
    assert small.instructions < large.instructions


def test_scale_must_be_positive():
    with pytest.raises(ValueError):
        make_workload("go", scale=0)


def test_program_is_input_independent():
    workload = make_workload("perl")
    assert workload.program is workload.program  # cached
    # Same binary regardless of input: only memory differs.
    text = workload.program.render()
    assert text == make_workload("perl").program.render()


#: sha256 over every input image of every workload at scales 1 and 4,
#: recorded before ``smooth_field`` dropped its per-element ``np.clip``.  The
#: generators must keep drawing the same words in the same places.
INPUT_IMAGES_DIGEST = "94aac6d797796fb86f9e330688dac0948cc28e2d2a1d8b20f5459b585a249815"


def test_input_images_are_pinned():
    hasher = hashlib.sha256()
    for name in sorted(WORKLOAD_CLASSES):
        for scale in (1.0, 4.0):
            workload = make_workload(name, scale=scale)
            for input_name in ("ref", "train"):
                words = sorted(workload.memory(input_name).nonzero_words())
                hasher.update(repr((name, scale, input_name, words)).encode())
    assert hasher.hexdigest() == INPUT_IMAGES_DIGEST


@pytest.mark.parametrize("name", ALL_NAMES)
def test_mix_has_loads_stores_branches(runs, name):
    trace = runs[name].trace
    loads = sum(1 for r in trace if r.is_load)
    stores = sum(1 for r in trace if r.inst.is_store)
    branches = sum(1 for r in trace if r.inst.is_conditional)
    n = len(trace)
    assert loads / n > 0.05, f"{name}: load fraction {loads / n:.1%}"
    assert stores > 0 and branches / n > 0.02


def test_reuse_profile_orderings(runs):
    """The calibrated locality ordering the experiments rely on."""
    fractions = {}
    for name, result in runs.items():
        fractions[name] = ReuseProfile.from_trace(result.trace).fig1.fractions()
    # go is among the least same-register-reusing; the interpreters and the
    # stencil codes carry substantial reuse.
    assert fractions["m88ksim"]["same"] > 0.3
    assert fractions["turb3d"]["same"] > 0.3
    for name, f in fractions.items():
        assert f["same"] <= f["dead"] + 1e-9 <= f["any"] + 2e-9 <= f["any_or_lvp"] + 3e-9, name


def test_li_recursion_uses_stack():
    workload = make_workload("li")
    result = run_program(*workload.build("ref"), max_instructions=BUDGET, collect_trace=True)
    calls = sum(1 for r in result.trace if r.op_name == "jsr")
    rets = sum(1 for r in result.trace if r.op_name == "ret")
    assert calls == rets and calls > 10


def test_categories_and_descriptions():
    for workload in all_workloads():
        assert workload.description
        assert workload.category in ("C", "F")
