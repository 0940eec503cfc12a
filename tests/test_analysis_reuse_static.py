"""Static reuse estimation: hand-built loops hit each reuse class, the
absint judgements see through register names, and the workload verdicts
are pinned."""

import pytest

from repro.analysis.reuse_static import (
    ReuseClass,
    StaticReuseEstimator,
    _no_store_procedures,
    candidate_overlap,
    compare_with_profile,
    select_rvp_candidates,
    symbolic_reuse_by_depth,
)
from repro.isa import R, assemble
from repro.profiling.lists import ProfileLists
from repro.workloads import WORKLOAD_CLASSES


def classify(text):
    program = assemble(text)
    estimate = StaticReuseEstimator(program).estimate()
    return program, estimate


def only_load(estimate, pc):
    assert pc in estimate.loads
    return estimate.loads[pc]


def test_invariant_load_untouched_dst_is_same():
    _, estimate = classify(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r3, 0(r2)
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    assert only_load(estimate, 2).reuse is ReuseClass.SAME


def test_invariant_load_with_clobbered_dst_is_last_value():
    _, estimate = classify(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r3, 0(r2)
        add r3, r3, #1
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    assert only_load(estimate, 2).reuse is ReuseClass.LAST_VALUE


def test_sibling_load_supplies_dead_register():
    _, estimate = classify(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r3, 0(r2)
        ld r4, 0(r2)
        add r3, r3, #1
        add r5, r4, #0
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    # The first load's destination is clobbered, but the sibling load of the
    # same invariant address leaves the value in r4, dead at the first load.
    verdict = only_load(estimate, 2)
    assert verdict.reuse is ReuseClass.DEAD
    assert verdict.source_reg == R[4]
    # The sibling itself keeps its destination untouched.
    assert only_load(estimate, 3).reuse is ReuseClass.SAME


def test_same_base_same_offset_store_kills_reuse():
    _, estimate = classify(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r3, 0(r2)
        add r4, r3, #1
        st r4, 0(r2)
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    verdict = only_load(estimate, 2)
    assert verdict.reuse is ReuseClass.NONE
    assert "store" in verdict.reason


def test_disjoint_base_store_does_not_kill_reuse():
    _, estimate = classify(
        """
        li r9, #16
        li r2, #64
        li r7, #256
    loop:
        ld r3, 0(r2)
        st r3, 0(r7)
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    assert only_load(estimate, 3).reuse is ReuseClass.SAME


def test_same_base_distinct_offset_store_does_not_kill_reuse():
    _, estimate = classify(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r3, 0(r2)
        st r3, 8(r2)
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    assert only_load(estimate, 2).reuse is ReuseClass.SAME


def test_varying_base_is_not_reusable():
    _, estimate = classify(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r3, 0(r2)
        add r2, r2, #8
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    verdict = only_load(estimate, 2)
    assert verdict.reuse is ReuseClass.NONE
    assert "address varies" in verdict.reason


def test_load_outside_loop_is_none():
    _, estimate = classify(
        """
        li r2, #64
        ld r3, 0(r2)
        halt
        """
    )
    verdict = only_load(estimate, 1)
    assert verdict.reuse is ReuseClass.NONE
    assert "loop" in verdict.reason


def test_counts_cover_every_static_load():
    program, estimate = classify(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r3, 0(r2)
        add r3, r3, #1
        sub r9, r9, #1
        bne r9, loop
        ld r4, 8(r2)
        halt
        """
    )
    counts = estimate.counts()
    assert sum(counts.values()) == len(estimate.loads) == 2
    assert estimate.pcs_of(ReuseClass.LAST_VALUE) == {2}
    assert estimate.pcs_of(ReuseClass.NONE) == {6}


def test_zero_register_base_load_is_invariant():
    # r31 is hardwired zero: the address is the literal offset, trivially
    # invariant; the destination is untouched, so the class is SAME.
    _, estimate = classify(
        """
        li r9, #16
    loop:
        ld r3, 8(r31)
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    assert only_load(estimate, 1).reuse is ReuseClass.SAME


def test_zero_register_destination_load_still_classified():
    _, estimate = classify(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r31, 0(r2)
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    # Classification is about the address stream; the (dropped) destination
    # is the marking pass's problem, not the estimator's.
    assert only_load(estimate, 2).reuse is not ReuseClass.NONE


NESTED_SIBLINGS = """
    li r9, #4
    li r2, #64
outer:
    ld r6, 0(r2)
    li r8, #4
inner:
    ld r3, 0(r2)
    ld r4, 0(r2)
    add r3, r3, #1
    sub r8, r8, #1
    bne r8, inner
    sub r9, r9, #1
    bne r9, outer
    halt
"""


def test_sibling_chain_across_nested_loops():
    _, estimate = classify(NESTED_SIBLINGS)
    # Outer-level load: judged against the outer loop, destination untouched.
    assert only_load(estimate, 2).reuse is ReuseClass.SAME
    # Inner pair: the clobbered load leans on its sibling's register...
    clobbered = only_load(estimate, 4)
    assert clobbered.reuse is ReuseClass.DEAD
    assert clobbered.source_reg == R[4]
    assert clobbered.source_pc == 5
    # ... and the sibling itself is SAME within the inner loop.
    assert only_load(estimate, 5).reuse is ReuseClass.SAME


def test_compare_with_profile_shape():
    from repro.core.session import SimSession

    session = SimSession()
    name, max_insts, threshold = "m88ksim", 20_000, 0.8
    program = session.workload(name).program
    profile = session.train_artifacts(name, 1.0, max_insts).profile
    lists = session.profile_lists(name, 1.0, max_insts, threshold, loads_only=True)
    estimate = StaticReuseEstimator(program).estimate()
    report = compare_with_profile(estimate, profile, lists)

    assert report["program"] == program.name
    assert report["static_loads"] == len(estimate.loads) > 0
    assert 0 <= report["judged_loads"] <= report["static_loads"]
    assert set(report["overlap"]) == {"same", "dead", "last_value"}
    for entry in report["overlap"].values():
        assert entry["both"] <= min(entry["static"], entry["profiled"])
    for fraction in report["weighted_static_fractions"].values():
        assert 0.0 <= fraction <= 1.0


# ----------------------------------------------------------------------
# Symbolic addresses: judgements that register names alone would get wrong
# ----------------------------------------------------------------------
def test_sees_through_base_register_rename():
    _, estimate = classify(
        """
        li r9, #8
        li r2, #64
    loop:
        mov r4, r2
        ld r3, 0(r4)
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    # The base register is a fresh copy every iteration; the symbolic
    # address expression still resolves to the loop-invariant r2 value.
    assert only_load(estimate, 3).reuse is ReuseClass.SAME


def test_strided_store_disproved_by_congruence_keeps_same():
    _, estimate = classify(
        """
        li r9, #8
        li r2, #1064
        li r4, #1068
    loop:
        ld r3, 0(r2)
        st r9, 0(r4)
        add r4, r4, #8
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    # Store orbit 1068 + 8n mod 2**64 never hits 1064 (offset -4 is not a
    # multiple of the stride): provably no alias, so the load stays SAME.
    assert only_load(estimate, 3).reuse is ReuseClass.SAME


def test_store_on_the_orbit_kills_reuse():
    _, estimate = classify(
        """
        li r9, #8
        li r2, #1064
        li r4, #1064
    loop:
        ld r3, 0(r2)
        st r9, 0(r4)
        add r4, r4, #8
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    # The strided store starts ON the load's cell through a different base
    # register; the estimator follows the orbit and refuses reuse.
    assert only_load(estimate, 3).reuse is ReuseClass.NONE


def test_call_clobber_depends_on_callee_stores():
    # Base and counter live in callee-saved registers so the call itself
    # does not clobber the address; only the callee's stores matter.
    clean = """
    .proc main
        li r9, #8
        li r10, #64
    loop:
        ld r3, 0(r10)
        jsr r26, callee
        sub r9, r9, #1
        bne r9, loop
        halt
    .proc callee
    callee:
        ret r26
    """
    dirty = clean.replace("ret r26", "st r9, 8(r10)\n        ret r26", 1)
    _, clean_est = classify(clean)
    _, dirty_est = classify(dirty)
    assert clean_est.loads[2].reuse is not ReuseClass.NONE
    assert dirty_est.loads[2].reuse is ReuseClass.NONE


def test_no_store_procedures_transitive_closure():
    program = assemble(
        """
        .proc main
            li r2, #64
            jsr r26, clean
            halt
        .proc clean
        clean:
            ld r3, 0(r2)
            ret r26
        .proc dirty
        dirty:
            st r3, 0(r2)
            ret r26
        .proc wraps
        wraps:
            jsr r26, dirty
            ret r26
        """
    )
    assert _no_store_procedures(program) == {"main", "clean"}


# ----------------------------------------------------------------------
# Candidate selection for the marking pass
# ----------------------------------------------------------------------
def test_select_candidates_excludes_zero_dest_loads():
    program, estimate = classify(
        """
        li r9, #8
        li r2, #64
    loop:
        ld r31, 0(r2)   ; r31 is the hardwired zero register
        ld r3, 0(r2)
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    lists = select_rvp_candidates(program, estimate)
    assert lists.threshold == 0.0
    assert 3 in lists.same
    assert 2 not in lists.same and 2 not in lists.dead and 2 not in lists.last_value


def test_select_candidates_dead_hint_names_sibling_holder():
    program, estimate = classify(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r3, 0(r2)
        ld r4, 0(r2)
        add r3, r3, #1
        sub r9, r9, #1
        bne r9, loop
        halt
        """
    )
    lists = select_rvp_candidates(program, estimate)
    hint = lists.dead[2]
    assert hint.reg == R[4]
    assert hint.producer_pc == 3
    assert 3 in lists.same


def test_candidate_overlap_counts():
    static = ProfileLists(threshold=0.0)
    static.same.update({1, 2, 3})
    profiled = ProfileLists(threshold=0.8)
    profiled.same.update({2, 3, 4})
    overlap = candidate_overlap(static, profiled)
    assert overlap["same"] == {"static": 3, "profiled": 3, "both": 2}
    assert overlap["dead"] == {"static": 0, "profiled": 0, "both": 0}


# ----------------------------------------------------------------------
# Per-loop-depth attribution
# ----------------------------------------------------------------------
def test_depth_buckets_with_trip_weighted_reuse():
    program = assemble(
        """
        li r9, #16
        li r2, #64
    loop:
        ld r3, 0(r2)
        sub r9, r9, #1
        bne r9, loop
        ld r5, 8(r2)
        halt
        """
    )
    estimator = StaticReuseEstimator(program)
    out = symbolic_reuse_by_depth(estimator.absint, estimator.estimate())
    assert set(out) == {"0", "1"}
    inner = out["1"]
    assert inner["loads"] == 1 and inner["same"] == 1
    assert inner["proven_trip_loads"] == 1
    assert inner["trip_weighted_reuse"] == round(15 / 16, 4)
    assert out["0"]["trip_weighted_reuse"] is None


def test_depth_buckets_cover_every_workload_load():
    from repro.workloads import make_workload

    for name in WORKLOAD_CLASSES:
        program = make_workload(name).program
        estimator = StaticReuseEstimator(program)
        estimate = estimator.estimate()
        loads = {inst.pc for inst in program if inst.op.is_load}
        assert set(estimate.loads) == loads, name
        out = symbolic_reuse_by_depth(estimator.absint, estimate)
        assert sum(bucket["loads"] for bucket in out.values()) == len(loads), name
        if name in ("dotprod", "stencil"):
            # header loads outside any loop; the rest in the inner loop
            assert set(out) == {"0", "2"}, name


# ----------------------------------------------------------------------
# Workload pin: class counts and agreement with the profiled lists
# ----------------------------------------------------------------------
#: workload -> (static loads, SAME loads); no workload has a provable DEAD or
#: LAST_VALUE load, and every SAME candidate is also in the profiled list.
WORKLOAD_PIN = {
    "dotprod": (4, 0),
    "go": (7, 0),
    "hydro2d": (6, 1),
    "ijpeg": (17, 2),
    "li": (11, 0),
    "m88ksim": (7, 1),
    "mgrid": (6, 0),
    "perl": (5, 0),
    "stencil": (5, 0),
    "su2cor": (6, 0),
    "turb3d": (6, 2),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
def test_workload_classes_and_candidate_overlap_pinned(name):
    from repro.core.session import SimSession

    loads, same = WORKLOAD_PIN[name]
    session = SimSession()
    program = session.workload(name).program
    estimate = StaticReuseEstimator(program).estimate()
    assert estimate.counts() == {"same": same, "dead": 0, "last_value": 0, "none": loads - same}
    lists = session.profile_lists(name, 1.0, 4000, 0.8, loads_only=True)
    overlap = candidate_overlap(select_rvp_candidates(program, estimate), lists)
    assert {cls: entry["both"] for cls, entry in overlap.items()} == {
        "same": same, "dead": 0, "last_value": 0,
    }
