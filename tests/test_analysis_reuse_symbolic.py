"""Symbolic (absint-backed) reuse classification and candidate selection."""

from __future__ import annotations

from repro.analysis.reuse_static import ReuseClass, StaticReuseEstimator
from repro.analysis.reuse_symbolic import (
    SymbolicReuseEstimator,
    _no_store_procedures,
    candidate_overlap,
    select_rvp_candidates,
    symbolic_reuse_by_depth,
)
from repro.isa import R, assemble
from repro.profiling.lists import ProfileLists


def sym_classify(text):
    program = assemble(text)
    estimator = SymbolicReuseEstimator(program)
    return program, estimator, estimator.estimate()


# ----------------------------------------------------------------------
# Where the symbolic domain beats the base-register-name heuristic
# ----------------------------------------------------------------------
def test_symbolic_sees_through_base_register_rename():
    program, _, estimate = sym_classify(
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
    assert estimate.loads[3].reuse is ReuseClass.SAME
    heuristic = StaticReuseEstimator(program).estimate()
    assert heuristic.loads[3].reuse is ReuseClass.NONE


def test_strided_store_disproved_by_congruence_keeps_same():
    program, _, estimate = sym_classify(
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
    assert estimate.loads[3].reuse is ReuseClass.SAME


def test_store_on_the_orbit_kills_reuse():
    program, _, estimate = sym_classify(
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
    # The strided store starts ON the load's cell.  The base-register-name
    # heuristic never sees different-base stores, so it keeps SAME; the
    # symbolic estimator follows the orbit and correctly refuses.
    assert estimate.loads[3].reuse is ReuseClass.NONE
    heuristic = StaticReuseEstimator(program).estimate()
    assert heuristic.loads[3].reuse is ReuseClass.SAME


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
    _, _, clean_est = sym_classify(clean)
    _, _, dirty_est = sym_classify(dirty)
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
    program, _, estimate = sym_classify(
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
    program, _, estimate = sym_classify(
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
# Per-loop-depth attribution without a source map
# ----------------------------------------------------------------------
def test_depth_buckets_with_trip_weighted_reuse():
    _, estimator, estimate = sym_classify(
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
    out = symbolic_reuse_by_depth(estimator.absint, estimate)
    assert set(out) == {"0", "1"}
    inner = out["1"]
    assert inner["loads"] == 1 and inner["same"] == 1
    assert inner["proven_trip_loads"] == 1
    assert inner["trip_weighted_reuse"] == round(15 / 16, 4)
    assert out["0"]["trip_weighted_reuse"] is None


def test_depth_buckets_cover_every_workload_load():
    from repro.workloads import WORKLOAD_CLASSES, make_workload

    for name in WORKLOAD_CLASSES:
        program = make_workload(name).program
        estimator = SymbolicReuseEstimator(program)
        estimate = estimator.estimate()
        loads = {inst.pc for inst in program if inst.op.is_load}
        assert set(estimate.loads) == loads, name
        out = symbolic_reuse_by_depth(estimator.absint, estimate)
        assert sum(bucket["loads"] for bucket in out.values()) == len(loads), name
        if name in ("dotprod", "stencil"):
            # header loads outside any loop; the rest in the inner loop
            assert set(out) == {"0", "2"}, name


# ----------------------------------------------------------------------
# Acceptance spot-check: symbolic never behind the heuristic on workloads
# ----------------------------------------------------------------------
def test_symbolic_candidates_match_or_beat_heuristic_on_workloads():
    from repro.profiling.reuse import ReuseProfile
    from repro.sim.functional import run_program
    from repro.workloads import make_workload

    for name in ("ijpeg", "turb3d", "hydro2d"):
        workload = make_workload(name)
        result = run_program(
            workload.program, memory=workload.memory(), max_instructions=40_000, collect_trace=True
        )
        profile = ReuseProfile.from_trace(result.trace)
        lists = profile.profile_lists(0.8, loads_only=True, min_count=8)
        heuristic = select_rvp_candidates(
            workload.program, StaticReuseEstimator(workload.program).estimate()
        )
        symbolic = select_rvp_candidates(workload.program)
        h = candidate_overlap(heuristic, lists)
        s = candidate_overlap(symbolic, lists)
        for cls in ("same", "dead"):
            assert s[cls]["both"] >= h[cls]["both"], (name, cls, s[cls], h[cls])
