"""Static reuse estimation: hand-built loops hit each reuse class."""

from repro.analysis.reuse_static import (
    ReuseClass,
    StaticReuseEstimator,
    compare_with_profile,
)
from repro.isa import R, assemble


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
