"""Differential oracles over generated programs.

Five oracle families, each a callable ``oracle(case)`` registered in
:data:`ORACLES` that raises :class:`OracleViolation` on failure:

``trace-equivalence``
    The eager (``run(collect_trace=True)``) and streaming (``iter_run``)
    executors must produce identical record sequences, final architectural
    state, memory and halt status — and both must match the retained
    reference interpreter (``engine="reference"``, the pre-decode ``step()``
    loop) bit for bit, pinning the decoded execution core to its oracle.
    A fourth leg pins fault fidelity on two perturbed runs: the case on a
    memory image whose first loaded word is inverted (the run diverges from
    the pristine one), and the case's program with its first executed memory
    access misaligned (the run faults there).  On both, a trace-less decoded
    run — which dispatches the same record-producing handlers as every
    production run — must match the reference: fault type, message, pc,
    commit count, final state and memory included.

``pass-preservation``
    Every verifier-guarded compiler pass (marking, insertion, stride,
    reallocation) must leave observable semantics unchanged under
    no-speculation execution: identical memory, identical per-instruction
    results/addresses/branch outcomes, and — for the insertion-based passes —
    a committed-instruction count that accounts for every inserted
    instruction (a silently dropped insertion is a detected defect, not a
    smaller program).

``predictor-sanity``
    Confidence state never escapes its encoding (resetting counters stay in
    ``[0, COUNTER_MAX]`` for RVP, LVP and the Gabbay predictor); the pipeline's
    :class:`~repro.uarch.stream.PredictionOverlay` yields exactly the per-pc
    (updates, correct) counts of an independent walk of the trace, for plain
    and dead/live/last-value-hinted RVP alike; and static RVP and dynamic RVP
    agree exactly on per-pc correctly-predicted counts when trained on the
    same underlying value stream.

``recovery-invariant``
    All three recovery schemes commit the complete trace; reissue replays at
    least as much as selective reissue; refetch squashes actually refetch;
    and no predictor means no recovery activity anywhere.

``pipeline-equivalence``
    The event-driven fast timing tier (``engine="fast"``) must reproduce the
    reference per-cycle pipeline loop's complete ``SimStats`` — every
    counter, including stall attribution and summed IQ occupancy — across
    {lvp, rvp, stride, rvp on a one-prediction-port machine} × all three
    recovery schemes.  The fast tier's test-only switch
    (``repro.uarch.fast._TEST_SKIP_EVENT``) seeds a skip-accounting defect
    the self-tests use to prove this family detects broken cycle skipping.

Helper entry points (``_eager_run`` / ``_streaming_run`` / ``_reference_run``
/ ``_engine_run`` / ``_simulate`` / ``_train_predictor``) are deliberate seams: the mutation self-tests
monkeypatch them to seed defects and prove each family actually detects
something.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.diagnostics import VerificationError
from ..compiler.insertion import insert_after
from ..analysis.effects import explicit_defs, explicit_uses
from ..compiler.marking import MARKING_LEVELS, mark_static_rvp
from ..compiler.realloc import reallocate
from ..compiler.stride_pass import apply_stride_pass
from ..isa.instructions import Instruction
from ..isa.opcodes import MASK64, OpKind, opcode
from ..isa.program import Program
from ..profiling.critpath import CriticalPathBuilder
from ..profiling.deadness import reg_id
from ..profiling.reuse import ReuseProfile
from ..sim.functional import FunctionalSimulator, RunResult, SimulationError, run_program
from ..sim.trace import TraceRecord
from ..uarch.config import MachineConfig, table1_config
from ..uarch.recovery import RecoveryScheme
from ..uarch.pipeline import simulate
from ..uarch.stream import PredictionOverlay, prepare_stream
from ..vp.base import NoPredictor, SourceKind, ValuePredictor
from ..vp.confidence import COUNTER_MAX
from ..vp.gabbay import GabbayRegisterPredictor
from ..vp.lvp import LastValuePredictor
from ..vp.rvp import DynamicRVP
from ..vp.static_rvp import StaticRVP
from ..vp.stride import StridePredictor
from .generator import GeneratedCase

#: Committed-instruction budget per functional run of a generated case.
MAX_INSTRUCTIONS = 50_000
#: Profile threshold/min-count tuned so small generated loops produce hints.
PROFILE_THRESHOLD = 0.6
PROFILE_MIN_COUNT = 2


class OracleViolation(AssertionError):
    """A differential oracle found a divergence."""

    def __init__(self, oracle: str, message: str) -> None:
        super().__init__(f"[{oracle}] {message}")
        self.oracle = oracle
        self.message = message


class CaseInvalid(RuntimeError):
    """The case cannot be judged (did not halt in budget / malformed).

    Raised instead of a violation so the fuzz runner and the shrinker can
    discard the candidate rather than reporting a false positive.
    """


def _require(condition: bool, oracle: str, message: str) -> None:
    if not condition:
        raise OracleViolation(oracle, message)


# ----------------------------------------------------------------------
# Execution seams (monkeypatched by the mutation self-tests)
# ----------------------------------------------------------------------
def _eager_run(program: Program, memory) -> RunResult:
    return run_program(program, memory=memory, max_instructions=MAX_INSTRUCTIONS, collect_trace=True)


def _streaming_run(program: Program, memory):
    sim = FunctionalSimulator(program, memory=memory)
    trace = list(sim.iter_run(max_instructions=MAX_INSTRUCTIONS))
    return sim, trace


def _reference_run(program: Program, memory) -> RunResult:
    sim = FunctionalSimulator(program, memory=memory, engine="reference")
    return sim.run(max_instructions=MAX_INSTRUCTIONS, collect_trace=True)


def _engine_run(program: Program, memory, engine: str, max_instructions: int):
    """Run one engine, capturing the fault instead of propagating it.

    Returns ``(sim, result, error)`` where ``result`` is ``sim.last_result``
    when the run faulted — a faulting decoded run must leave the same partial
    state behind as the reference engine.
    """
    sim = FunctionalSimulator(program, memory=memory, engine=engine)
    error: Optional[BaseException] = None
    try:
        result = sim.run(max_instructions=max_instructions)
    except Exception as exc:
        error = exc
        result = sim.last_result
    return sim, result, error


def _perturbed_memory(case: GeneratedCase, reference: RunResult):
    """The case's memory with the first word the program *reads* inverted.

    Running the case on this image forces data divergence away from the
    pristine run.  Targeting the first loaded address (from the reference
    trace) rather than an arbitrary word is what makes the perturbation
    reliably observable.
    """
    memory = case.memory()
    index = None
    for record in reference.trace or ():
        if record.inst.op.is_load and record.addr is not None:
            index = record.addr >> 3
            break
    if index is None:
        words = getattr(memory, "_words", {})
        index = min(words) if words else 0
    memory.store_word_index(index, memory.load_word_index(index) ^ MASK64)
    return memory


def _misaligned_program(program: Program, reference: RunResult) -> Optional[Program]:
    """``program`` with its first executed load or store misaligned by 4 bytes.

    Execution up to that access is unchanged, so a run of the result is
    guaranteed to fault there with an unaligned-access error.  ``None`` when
    the reference run touched no memory.
    """
    for record in reference.trace or ():
        if record.addr is not None:
            victim = record.inst
            break
    else:
        return None
    instructions = list(program)
    instructions[victim.pc] = replace(victim, imm=(victim.imm or 0) + 4)
    return Program(instructions, program.labels, name=program.name, procedures=program.procedures)


def _simulate(trace: Sequence[TraceRecord], predictor: ValuePredictor, recovery: RecoveryScheme):
    return simulate(trace, predictor, table1_config(), recovery)


def _base_run(case: GeneratedCase) -> RunResult:
    """The reference no-speculation run; a non-halting case is unjudgeable."""
    try:
        result = _eager_run(case.program, case.memory())
    except SimulationError as exc:
        raise CaseInvalid(f"functional run failed: {exc}") from None
    if not result.halted:
        raise CaseInvalid(f"did not halt within {MAX_INSTRUCTIONS} instructions")
    return result


def _projection(record: TraceRecord) -> Tuple:
    """The register-allocation-independent observables of one record."""
    return (record.pc, record.next_pc, record.result, record.addr, record.store_value, record.taken)


# ----------------------------------------------------------------------
# Oracle family 1: eager vs streaming trace equivalence
# ----------------------------------------------------------------------
def check_trace_equivalence(case: GeneratedCase) -> None:
    name = "trace-equivalence"
    eager = _base_run(case)
    sim, stream_trace = _streaming_run(case.program, case.memory())
    _require(
        len(eager.trace) == len(stream_trace),
        name,
        f"eager committed {len(eager.trace)} records, streaming {len(stream_trace)}",
    )
    for expected, got in zip(eager.trace, stream_trace):
        _require(expected == got, name, f"record diverges at seq {expected.seq}: {expected} != {got}")
    _require(eager.state.state_equal(sim.state), name, "final architectural register state diverges")
    _require(eager.memory == sim.memory, name, "final memory diverges")
    last = sim.last_result
    _require(last is not None and last.halted == eager.halted, name, "halt status diverges")
    _require(last.instructions == eager.instructions, name, "instruction counts diverge")

    # Third leg: the decoded execution core against the retained reference
    # interpreter — identical records, state, memory and commit counts.
    reference = _reference_run(case.program, case.memory())
    _require(
        len(eager.trace) == len(reference.trace),
        name,
        f"decoded committed {len(eager.trace)} records, reference {len(reference.trace)}",
    )
    for expected, got in zip(reference.trace, eager.trace):
        _require(
            expected == got,
            name,
            f"decoded record diverges from reference at seq {expected.seq}: {expected} != {got}",
        )
    _require(
        eager.state.state_equal(reference.state), name, "decoded final state diverges from reference"
    )
    _require(eager.memory == reference.memory, name, "decoded final memory diverges from reference")
    _require(
        (reference.halted, reference.instructions) == (eager.halted, eager.instructions),
        name,
        "decoded halt/commit-count diverges from reference",
    )

    # Fourth leg: fault fidelity.  The case re-runs on a perturbed memory
    # image (one flipped input word), where it takes a different path, and
    # as a program whose first memory access is misaligned, where it faults;
    # the decoded engine must still match the reference exactly.
    _perturbed_leg(name, "perturbed memory", case.program, lambda: _perturbed_memory(case, reference))
    misaligned = _misaligned_program(case.program, reference)
    if misaligned is not None:
        _perturbed_leg(name, "a misaligned access", misaligned, case.memory)


def _perturbed_leg(name: str, label: str, program: Program, make_memory: Callable) -> None:
    """Decoded vs reference on one perturbed run: fault type, message,
    pc, commit count, final state and memory must all agree."""
    dec_sim, dec_res, dec_err = _engine_run(program, make_memory(), "decoded", MAX_INSTRUCTIONS)
    ref_sim, ref_res, ref_err = _engine_run(program, make_memory(), "reference", MAX_INSTRUCTIONS)
    _require(
        type(dec_err) is type(ref_err) and str(dec_err) == str(ref_err),
        name,
        f"decoded fault diverges from reference on {label}: {dec_err!r} vs {ref_err!r}",
    )
    _require(
        (dec_res.halted, dec_res.instructions) == (ref_res.halted, ref_res.instructions),
        name,
        f"decoded halt/commit-count diverges from reference on {label}: "
        f"{(dec_res.halted, dec_res.instructions)} != {(ref_res.halted, ref_res.instructions)}",
    )
    _require(
        dec_sim.state.pc == ref_sim.state.pc,
        name,
        f"decoded stopped at pc {dec_sim.state.pc} on {label}, reference at {ref_sim.state.pc}",
    )
    _require(
        dec_sim.state.state_equal(ref_sim.state),
        name,
        f"decoded state diverges from reference on {label}",
    )
    _require(dec_sim.memory == ref_sim.memory, name, f"decoded memory diverges from reference on {label}")


# ----------------------------------------------------------------------
# Oracle family 2: compiler-pass semantic preservation
# ----------------------------------------------------------------------
def _same_shape_equivalent(name: str, label: str, base: RunResult, transformed: Program, case: GeneratedCase) -> RunResult:
    """For 1:1 rewrites (marking, realloc): identical projected trace + memory."""
    try:
        after = _eager_run(transformed, case.memory())
    except SimulationError as exc:
        raise OracleViolation(name, f"{label}: transformed program crashed: {exc!r}")
    _require(after.halted, name, f"{label}: transformed program did not halt")
    _require(
        after.instructions == base.instructions,
        name,
        f"{label}: committed {after.instructions} vs base {base.instructions}",
    )
    for expected, got in zip(base.trace, after.trace):
        _require(
            _projection(expected) == _projection(got),
            name,
            f"{label}: observable divergence at seq {expected.seq}: "
            f"{_projection(expected)} != {_projection(got)}",
        )
    _require(after.memory == base.memory, name, f"{label}: final memory diverges")
    return after


def _insertion_diff(name: str, label: str, old: Program, new: Program) -> Tuple[Dict[int, int], List[int]]:
    """Recover (pc_map, insertion sites) from an insertion-only rewrite.

    Returns ``old pc -> new pc`` plus the list of old pcs each inserted
    instruction was placed after.  Relies on inserted instructions being
    distinguishable from the originals (self-moves / shadow-register adds,
    which the generator never emits).
    """

    def key(inst: Instruction) -> Tuple:
        return (inst.op.name, inst.dst, inst.src1, inst.src2, inst.imm, inst.target)

    pc_map: Dict[int, int] = {}
    sites: List[int] = []
    i = 0
    for j in range(len(new)):
        if i < len(old) and key(new[j]) == key(old[i]):
            pc_map[i] = j
            i += 1
        else:
            _require(i > 0, name, f"{label}: instruction inserted before program start")
            sites.append(i - 1)
    _require(i == len(old), name, f"{label}: rewrite dropped {len(old) - i} original instruction(s)")
    return pc_map, sites


def _inserted_equivalent(
    name: str,
    label: str,
    base: RunResult,
    old: Program,
    new: Program,
    case: GeneratedCase,
    dyn_counts: Counter,
    expected_sites: Optional[Sequence[int]] = None,
    expected_count: Optional[int] = None,
) -> RunResult:
    """For insertion passes: accounted committed count + projected equality.

    ``expected_sites`` (exact) or ``expected_count`` (at least) pin the diff
    against what the pass was *asked* to insert — a pass that silently drops
    an insertion produces a self-consistent smaller program, so the recovered
    diff alone cannot catch it.
    """
    pc_map, sites = _insertion_diff(name, label, old, new)
    if expected_sites is not None:
        _require(
            sorted(sites) == sorted(expected_sites),
            name,
            f"{label}: inserted after pcs {sorted(sites)}, requested {sorted(expected_sites)}",
        )
    if expected_count is not None:
        _require(
            len(sites) == expected_count,
            name,
            f"{label}: {len(sites)} insertion(s) found, pass reported {expected_count}",
        )
    expected_extra = sum(dyn_counts[site] for site in sites)
    try:
        after = _eager_run(new, case.memory())
    except SimulationError as exc:
        raise OracleViolation(name, f"{label}: transformed program crashed: {exc!r}")
    _require(after.halted, name, f"{label}: transformed program did not halt")
    _require(
        after.instructions == base.instructions + expected_extra,
        name,
        f"{label}: committed {after.instructions}, expected "
        f"{base.instructions} + {expected_extra} inserted executions",
    )
    _require(after.memory == base.memory, name, f"{label}: final memory diverges")
    inverse = {new_pc: old_pc for old_pc, new_pc in pc_map.items()}
    originals = [r for r in after.trace if r.pc in inverse]
    _require(
        len(originals) == len(base.trace),
        name,
        f"{label}: {len(originals)} original-instruction commits vs base {len(base.trace)}",
    )
    for expected, got in zip(base.trace, originals):
        _require(
            (inverse[got.pc], got.result, got.addr, got.store_value, got.taken)
            == (expected.pc, expected.result, expected.addr, expected.store_value, expected.taken),
            name,
            f"{label}: observable divergence at base seq {expected.seq}",
        )
    return after


def _explicit_regs(program: Program):
    touched = set()
    for inst in program:
        touched |= set(explicit_defs(inst)) | set(explicit_uses(inst))
    return touched


def check_pass_preservation(case: GeneratedCase) -> None:
    name = "pass-preservation"
    base = _base_run(case)
    program = case.program
    dyn_counts = Counter(record.pc for record in base.trace)
    profile = ReuseProfile.from_trace(base.trace)
    lists_loads = profile.profile_lists(PROFILE_THRESHOLD, loads_only=True, min_count=PROFILE_MIN_COUNT)
    lists_all = profile.profile_lists(PROFILE_THRESHOLD, loads_only=False, min_count=PROFILE_MIN_COUNT)
    critical = CriticalPathBuilder()
    for record in base.trace:
        critical.feed(record)

    # -- static RVP marking: pure opcode swap at every level ------------
    for level in MARKING_LEVELS:
        try:
            marked = mark_static_rvp(program, lists_loads, level)
        except VerificationError as exc:
            raise OracleViolation(name, f"marking[{level}]: verifier rejected output: {exc}")
        _same_shape_equivalent(name, f"marking[{level}]", base, marked, case)

    # -- raw insertion: benign self-moves after deterministic ALU sites --
    # Each site self-moves its own destination register: that register is
    # defined at the insertion point by construction, so the check holds
    # whatever registers the program defines first.
    alu_sites = [
        inst.pc
        for inst in program
        if inst.op.kind is OpKind.ALU and inst.writes is not None and inst.writes.is_int and not inst.writes.is_zero
    ]
    if alu_sites:
        step = max(1, len(alu_sites) // 3)
        chosen = alu_sites[::step][:3]
        moves = {
            pc: [Instruction(op=opcode("mov"), dst=program[pc].writes, src1=program[pc].writes)]
            for pc in chosen
        }
        try:
            inserted, _ = insert_after(program, moves)
        except VerificationError as exc:
            raise OracleViolation(name, f"insertion: verifier rejected output: {exc}")
        after = _inserted_equivalent(
            name, "insertion", base, program, inserted, case, dyn_counts, expected_sites=chosen
        )
        _require(
            after.state.state_equal(base.state),
            name,
            "insertion: self-moves changed final register state",
        )

    # -- stride pass: shadow adds must execute and stay shadow-only ------
    int_sites = [
        inst.pc
        for inst in program
        if inst.writes is not None and inst.writes.is_int and inst.op.kind in (OpKind.ALU, OpKind.LOAD)
    ]
    if int_sites:
        step = max(1, len(int_sites) // 3)
        strides = {pc: 1 + (case.seed + pc) % 7 for pc in int_sites[::step][:3]}
        try:
            strided, _, report = apply_stride_pass(program, strides, lists_all)
        except VerificationError as exc:
            raise OracleViolation(name, f"stride: verifier rejected output: {exc}")
        after = _inserted_equivalent(
            name, "stride", base, program, strided, case, dyn_counts, expected_count=report.applied
        )
        base_regs = _explicit_regs(program)
        for reg in sorted(base_regs, key=lambda r: (r.kind, r.index)):
            _require(
                after.state.read(reg) == base.state.read(reg),
                name,
                f"stride: base-program register {reg.name} diverges "
                f"({after.state.read(reg)} vs {base.state.read(reg)})",
            )

    # -- Section 7.3 reallocation: values move registers, nothing else ---
    try:
        realloc, _report = reallocate(program, lists_all, critical.finish())
    except VerificationError as exc:
        raise OracleViolation(name, f"realloc: verifier rejected output: {exc}")
    _same_shape_equivalent(name, "realloc", base, realloc, case)


# ----------------------------------------------------------------------
# Oracle family 3: cross-predictor sanity
# ----------------------------------------------------------------------
def _train_predictor(trace: Iterable[TraceRecord], predictor: ValuePredictor) -> Dict[int, Tuple[int, int]]:
    """Drive a predictor through a committed trace the way the pipeline does.

    An independent spec of :class:`repro.uarch.stream.PredictionOverlay`'s
    correctness logic (same-register, correlated-register and
    previous-instance sources): calls ``predictor.update`` for every
    candidate, whether or not a prediction would have been issued.  Returns
    ``pc -> (updates, correct)``.
    """
    reg_values = [0] * 64
    last_result_of_pc: Dict[int, int] = {}
    counts: Dict[int, Tuple[int, int]] = {}
    for record in trace:
        inst = record.inst
        source = predictor.source(inst)
        if source is not None and record.result is not None:
            if source.kind is SourceKind.DST:
                correct = record.result == record.old_dest
            elif source.kind is SourceKind.REG:
                correct = record.result == reg_values[reg_id(source.reg)]
            else:  # STORED: previous instance of this pc
                prev = last_result_of_pc.get(inst.pc)
                correct = prev is not None and record.result == prev
            predictor.update(inst.pc, correct, record.result)
            updates, hits = counts.get(inst.pc, (0, 0))
            counts[inst.pc] = (updates + 1, hits + (1 if correct else 0))
        if inst.writes is not None and record.result is not None:
            reg_values[reg_id(inst.writes)] = record.result
        if record.result is not None:
            last_result_of_pc[inst.pc] = record.result
    return counts


def _overlay_counts(trace: Sequence[TraceRecord], predictor: ValuePredictor) -> Dict[int, Tuple[int, int]]:
    """``pc -> (updates, correct)`` as the pipeline's overlay sees them."""
    stream = prepare_stream(trace)
    overlay = PredictionOverlay(stream, predictor)
    counts: Dict[int, Tuple[int, int]] = {}
    for entry in stream:
        if overlay.kind[entry.seq] is not None:
            updates, hits = counts.get(entry.pc, (0, 0))
            counts[entry.pc] = (updates + 1, hits + (1 if overlay.facts(entry)[1] else 0))
    return counts


def _counter_cells(predictor: ValuePredictor) -> List[int]:
    if isinstance(predictor, DynamicRVP):
        return list(predictor.counters._counters)
    if isinstance(predictor, (LastValuePredictor, GabbayRegisterPredictor)):
        return list(predictor._counters)
    return []


def check_predictor_sanity(case: GeneratedCase) -> None:
    name = "predictor-sanity"
    base = _base_run(case)
    trace = base.trace
    profile = ReuseProfile.from_trace(trace)
    hints = profile.profile_lists(PROFILE_THRESHOLD, loads_only=False, min_count=PROFILE_MIN_COUNT)

    predictors = [
        DynamicRVP(entries=64, threshold=4),
        DynamicRVP(entries=16, threshold=4, tagged=True),
        DynamicRVP(entries=64, threshold=4, lists=hints, use_dead=True, use_live=True, use_lv=True),
        LastValuePredictor(entries=64, loads_only=True),
        LastValuePredictor(entries=16, loads_only=False),
        GabbayRegisterPredictor(threshold=4),
    ]
    for predictor in predictors:
        overlay_counts = _overlay_counts(trace, predictor)
        counts = _train_predictor(trace, predictor)
        _require(
            overlay_counts == counts,
            name,
            f"{predictor.name}: overlay per-pc (updates, correct) differ from the trace walk at pcs "
            f"{sorted(pc for pc in set(counts) | set(overlay_counts) if counts.get(pc) != overlay_counts.get(pc))}",
        )
        cells = _counter_cells(predictor)
        _require(
            all(0 <= cell <= COUNTER_MAX for cell in cells),
            name,
            f"{predictor.name}: confidence counter escaped [0, {COUNTER_MAX}]: {cells}",
        )
        for pc, (updates, hits) in counts.items():
            _require(
                0 <= hits <= updates,
                name,
                f"{predictor.name}: pc {pc} has {hits} correct out of {updates} updates",
            )

    # Static vs dynamic RVP: identical per-pc correct counts on the same
    # value stream.  The marked program executes identically, so a marked
    # load's same-register outcome must be bit-identical either way.
    lists = profile.profile_lists(PROFILE_THRESHOLD, loads_only=True, min_count=PROFILE_MIN_COUNT)
    if lists.same:
        try:
            marked = mark_static_rvp(case.program, lists, "same")
        except VerificationError as exc:
            raise OracleViolation(name, f"marking for static RVP rejected: {exc}")
        marked_run = _eager_run(marked, case.memory())
        static_counts = _train_predictor(marked_run.trace, StaticRVP())
        dynamic_counts = _train_predictor(trace, DynamicRVP(loads_only=True))
        for pc in sorted(lists.same):
            if not case.program[pc].is_load:
                continue
            _require(
                static_counts.get(pc) == dynamic_counts.get(pc),
                name,
                f"static vs dynamic RVP disagree at pc {pc}: "
                f"static {static_counts.get(pc)} vs dynamic {dynamic_counts.get(pc)}",
            )


# ----------------------------------------------------------------------
# Oracle family 4: recovery invariants
# ----------------------------------------------------------------------
def check_recovery_invariant(case: GeneratedCase) -> None:
    name = "recovery-invariant"
    base = _base_run(case)
    trace = tuple(base.trace)

    stats = {
        scheme: _simulate(trace, DynamicRVP(threshold=2), scheme) for scheme in RecoveryScheme
    }
    for scheme, s in stats.items():
        _require(
            s.committed == len(trace),
            name,
            f"{scheme.value}: committed {s.committed} of {len(trace)} trace records",
        )
        _require(
            0 <= s.correct_predictions <= s.predictions,
            name,
            f"{scheme.value}: {s.correct_predictions} correct of {s.predictions} predictions",
        )

    reissue, selective = stats[RecoveryScheme.REISSUE], stats[RecoveryScheme.SELECTIVE]
    refetch = stats[RecoveryScheme.REFETCH]

    # Reissue and selective see the identical rename/commit sequence, so the
    # predictor makes the same decisions; selective replays a subset.
    _require(
        (reissue.predictions, reissue.correct_predictions)
        == (selective.predictions, selective.correct_predictions),
        name,
        f"reissue/selective prediction streams diverge: "
        f"{(reissue.predictions, reissue.correct_predictions)} vs "
        f"{(selective.predictions, selective.correct_predictions)}",
    )
    _require(
        reissue.reissued_instructions >= selective.reissued_instructions,
        name,
        f"selective replayed more than reissue "
        f"({selective.reissued_instructions} > {reissue.reissued_instructions})",
    )

    mispredicts = refetch.predictions - refetch.correct_predictions
    _require(
        refetch.value_squashes <= mispredicts,
        name,
        f"refetch squashed {refetch.value_squashes} times on {mispredicts} mispredictions",
    )
    refetch_replay = refetch.fetched - refetch.committed
    _require(
        refetch_replay >= refetch.value_squashes,
        name,
        f"refetch squashes ({refetch.value_squashes}) without refetched "
        f"instructions (fetched-committed = {refetch_replay})",
    )
    if mispredicts == reissue.predictions - reissue.correct_predictions:
        # Same misprediction stream: refetch squashes everything from the
        # first use onward (a superset of the selective cone) per event.
        _require(
            refetch_replay >= selective.reissued_instructions,
            name,
            f"refetch replayed less ({refetch_replay}) than the selective "
            f"cone ({selective.reissued_instructions})",
        )

    for scheme in RecoveryScheme:
        quiet = _simulate(trace, NoPredictor(), scheme)
        _require(
            quiet.value_squashes == 0 and quiet.reissued_instructions == 0,
            name,
            f"{scheme.value}: recovery activity with no predictor "
            f"(squashes={quiet.value_squashes}, reissued={quiet.reissued_instructions})",
        )
        _require(quiet.committed == len(trace), name, f"{scheme.value}: no-predict run lost commits")


# ----------------------------------------------------------------------
# Oracle family 5: fast-vs-reference pipeline stats equivalence
# ----------------------------------------------------------------------
def _engine_stats(
    trace: Sequence[TraceRecord],
    predictor: ValuePredictor,
    recovery: RecoveryScheme,
    engine: str,
    machine: Optional[MachineConfig] = None,
):
    """Seam: one timing-tier run on ``machine`` (default: the Table 1
    machine), monkeypatched by the mutation self-tests; the fast tier's
    own seam is ``repro.uarch.fast._TEST_SKIP_EVENT``."""
    return simulate(trace, predictor, machine or table1_config(), recovery, engine=engine)


def check_pipeline_equivalence(case: GeneratedCase) -> None:
    """The fast timing tier must reproduce the reference per-cycle loop's
    *complete* ``SimStats`` — cycles, stall attribution and IQ occupancy
    included, not just IPC — for every predictor × recovery combination.

    Predictors run with a low confidence threshold so small generated loops
    actually speculate; each engine gets a fresh predictor instance (the
    tiers train identical state, but sharing one instance would let the
    first run's training leak into the second).  The ``rvp/ports1`` leg
    runs register-based prediction on a Table 1 machine with a single
    prediction read port, so non-load predictions compete for it and
    port exhaustion is exercised."""
    name = "pipeline-equivalence"
    base = _base_run(case)
    trace = tuple(base.trace)
    one_port = replace(table1_config(), pred_ports=1)
    legs = (
        ("lvp", lambda: LastValuePredictor(threshold=2), None),
        ("rvp", lambda: DynamicRVP(threshold=2), None),
        ("stride", lambda: StridePredictor(threshold=2), None),
        ("rvp/ports1", lambda: DynamicRVP(threshold=2), one_port),
    )
    for label, make, machine in legs:
        for scheme in RecoveryScheme:
            reference = _engine_stats(trace, make(), scheme, "reference", machine).counters()
            fast = _engine_stats(trace, make(), scheme, "fast", machine).counters()
            if fast != reference:
                diff = {
                    key: (reference[key], fast[key])
                    for key in reference
                    if reference[key] != fast[key]
                }
                _require(
                    False,
                    name,
                    f"{label}/{scheme.value}: fast tier diverged from reference "
                    f"(counter: (reference, fast)) {diff}",
                )


#: The five oracle families, by CLI/report name.
ORACLES: Dict[str, Callable[[GeneratedCase], None]] = {
    "trace-equivalence": check_trace_equivalence,
    "pass-preservation": check_pass_preservation,
    "predictor-sanity": check_predictor_sanity,
    "recovery-invariant": check_recovery_invariant,
    "pipeline-equivalence": check_pipeline_equivalence,
}

ORACLE_FAMILIES: Tuple[str, ...] = tuple(ORACLES)
