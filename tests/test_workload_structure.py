"""Per-workload structural tests: each model's documented locality pattern
actually exists in its trace (guarding the calibration against regressions)."""

import pytest

from repro.isa.opcodes import MASK64, to_signed
from repro.profiling import ReuseProfile
from repro.sim import run_program
from repro.workloads import make_workload

BUDGET = 40_000


def trace_of(name):
    workload = make_workload(name)
    return workload, run_program(*workload.build("ref"), max_instructions=BUDGET, collect_trace=True).trace


@pytest.fixture(scope="module")
def profiles():
    out = {}
    for name in ("m88ksim", "li", "mgrid", "hydro2d", "go", "turb3d"):
        workload, trace = trace_of(name)
        out[name] = (workload, trace, ReuseProfile.from_trace(trace))
    return out


def test_m88ksim_pc_load_correlates_with_dead_register(profiles):
    """The Figure 2b pattern: the guest-pc load's value sits in the register
    that computed it last iteration."""
    workload, trace, profile = profiles["m88ksim"]
    lists = profile.profile_lists(0.8)
    program = workload.program
    pc_loads = [pc for pc in lists.dead if program[pc].is_load and program[pc].imm == 32]
    assert pc_loads, "guest-pc load lost its dead-register hint"


def test_m88ksim_fetch_word_is_same_register_reusable(profiles):
    workload, trace, profile = profiles["m88ksim"]
    # The guest-instruction fetch: ld r1, 0(r11) at the loop top.
    fetch_pc = next(
        pc for pc, site in profile.sites.items()
        if site.is_load and workload.program[pc].dst is not None and workload.program[pc].dst.name == "r1"
    )
    assert profile.sites[fetch_pc].same_rate() > 0.5


def test_li_clobbered_car_load(profiles):
    """Figure 2c: the first car load's register is clobbered by the cdr, so
    its high last-value rate shows no same-register reuse."""
    workload, trace, profile = profiles["li"]
    clobbered = [
        site for site in profile.sites.values()
        if site.is_load and site.count > 500 and site.lv_rate() > 0.7 and site.same_rate() < 0.1
    ]
    assert clobbered, "li lost its clobbered-LVR pattern"


def test_mgrid_residuals_mostly_zero(profiles):
    workload, trace, profile = profiles["mgrid"]
    zero_loads = [r for r in trace if r.is_load and r.result == 0]
    loads = [r for r in trace if r.is_load]
    assert len(zero_loads) / len(loads) > 0.5


def test_hydro2d_memory_carried_chain(profiles):
    """The chain load reads the previous iteration's store."""
    workload, trace, profile = profiles["hydro2d"]
    stores = {r.addr for r in trace if r.inst.is_store}
    chain_loads = [r for r in trace if r.is_load and r.addr in stores]
    assert len(chain_loads) > 1000


def test_hydro2d_rotation_dead_hints(profiles):
    workload, trace, profile = profiles["hydro2d"]
    lists = profile.profile_lists(0.8)
    # The rotating stencil produces fp dead-register correlations.
    assert any(hint.reg.is_fp for hint in lists.dead.values())


def test_go_has_low_predictability(profiles):
    workload, trace, profile = profiles["go"]
    lists = profile.profile_lists(0.8, loads_only=True)
    # go: at most a couple of profile-qualified loads; weak locality is the point.
    assert len(lists.same) + len(lists.dead) <= 4


def test_turb3d_twiddle_is_group_constant(profiles):
    workload, trace, profile = profiles["turb3d"]
    best = max((s for s in profile.sites.values() if s.is_load), key=lambda s: s.same_rate())
    assert best.same_rate() > 0.6  # the twiddle load


def test_loop_counters_stride_by_one(profiles):
    """Some instruction (a loop counter) steps its result by +1 or -1 on at
    least 90% of its executions."""
    workload, trace, profile = profiles["go"]
    last, deltas = {}, {}
    for record in trace:
        if record.result is None:
            continue
        if record.pc in last:
            step = to_signed((record.result - last[record.pc]) & MASK64)
            deltas.setdefault(record.pc, []).append(step)
        last[record.pc] = record.result
    assert any(
        len(steps) >= 8 and max(steps.count(1), steps.count(-1)) >= 0.9 * len(steps)
        for steps in deltas.values()
    )
