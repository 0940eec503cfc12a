"""Program verifier: machine-checked legality of (transformed) programs.

:func:`verify_program` runs every registered rule over a program and returns
structured :class:`~repro.analysis.diagnostics.Diagnostic` records;
:func:`check_program` raises :class:`VerificationError` when any
error-severity diagnostic is produced.  Compiler passes use it as a
postcondition on every output, and :class:`~repro.core.session.SimSession`
verifies each program variant once at cache-fill time — an illegal program
is rejected *before* it can poison the shared trace cache.

Rule catalog
------------

=======  ========  ====================================================
RVP001   error     opcode/operand arity (required/forbidden fields)
RVP002   error     register-class legality (int/fp operand files)
RVP003   error     use-before-def (entry garbage; warning if partial)
RVP004   warning   unreachable basic block
RVP005   error     calling-convention violations (call/branch targets)
RVP006   error     illegal ``rvp_*`` marking destination
RVP007   error     allocation validity vs the interference graph
RVP008   error     loop-exclusive (LVR) register shared within its loop
RVP013   warning   unmarked load into a hardwired-zero register
=======  ========  ====================================================

RVP007 and RVP008 are *context* rules: they need artifacts only a compiler
pass holds (the pre-rewrite interference graph and assignment, the applied
LVR set), so they check nothing unless that context is supplied — the
interference graph of :mod:`repro.compiler.webs` is built on per-register
live ranges, deliberately conservative, and re-deriving it from the
rewritten program alone would flag legal programs.  The reallocator passes
its context in; ``verify_program`` on a bare program runs RVP001–RVP006
and RVP013.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..isa.instructions import Instruction
from ..isa.opcodes import OpKind
from ..isa.program import Procedure, Program
from ..isa.registers import ARG_REGS, FP_ARG_REGS, RETURN_ADDRESS, Reg, is_volatile
from .diagnostics import (
    Diagnostic,
    RuleInfo,
    Severity,
    VerificationError,
    has_errors,
    registered_rules,
    rule,
)
from .facts import ProgramFacts

@dataclass
class LintConfig:
    """Which rules run and how findings are graded."""

    disabled: Set[str] = field(default_factory=set)
    #: Treat warnings as errors (CI strict mode).
    strict: bool = False

    @classmethod
    def parse(cls, disabled: Iterable[str] = (), strict: bool = False) -> "LintConfig":
        return cls(disabled={r.upper() for r in disabled}, strict=strict)


@dataclass
class AllocationCheck:
    """A pass's allocation artifacts for one procedure (RVP007 context).

    ``webs``/``adjacency`` describe the *pre-rewrite* program (the graph the
    pass was obliged to respect); ``assignment`` maps web index to the
    register the pass chose.
    """

    proc_name: str
    webs: Sequence[object]  # compiler.webs.Web
    adjacency: Dict[int, Set[int]]
    assignment: Dict[int, Reg]


@dataclass
class VerifyContext:
    """Everything a rule may inspect."""

    program: Program
    facts: ProgramFacts
    #: Profile lists the marking was derived from, when known.
    lists: Optional[object] = None
    #: pcs whose destination register must be loop-exclusive (applied LVR).
    lvr_pcs: Set[int] = field(default_factory=set)
    #: per-procedure (webs, interference, assignment) from a realloc pass.
    allocations: Sequence[AllocationCheck] = ()

    def procedures(self) -> Sequence[Procedure]:
        return self.program.procedures

    def proc_name(self, pc: int) -> str:
        return self.program.procedure_of(pc).name


# ----------------------------------------------------------------------
# RVP001 — operand arity
# ----------------------------------------------------------------------
#: kind -> (required fields, forbidden fields); 'li'-family handled inline.
_ARITY: Dict[OpKind, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    OpKind.LOAD: (("dst", "src1"), ("src2", "target")),
    OpKind.STORE: (("src1", "src2"), ("dst", "target")),
    OpKind.BRANCH: (("src1", "target"), ("dst", "src2")),
    OpKind.JUMP: (("target",), ("dst", "src1", "src2")),
    OpKind.CALL: (("dst", "target"), ("src1", "src2")),
    OpKind.INDIRECT: (("src1",), ("dst", "src2", "target")),
    OpKind.HALT: ((), ("dst", "src1", "src2", "target")),
    OpKind.NOP: ((), ("dst", "src1", "src2", "target")),
}


@rule("RVP001", Severity.ERROR, "opcode/operand arity: required and forbidden operand fields")
def _check_arity(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for inst in ctx.program:
        kind = inst.op.kind
        if kind is OpKind.ALU:
            required: Tuple[str, ...]
            if inst.op.name in ("li", "fli"):
                required, forbidden = ("dst",), ("src1", "src2", "target")
                if inst.imm is None:
                    yield _diag(ctx, "RVP001", Severity.ERROR, inst.pc, f"{inst.op.name} requires an immediate")
            else:
                required, forbidden = ("dst", "src1"), ("target",)
                if inst.src2 is not None and inst.imm is not None:
                    yield _diag(
                        ctx, "RVP001", Severity.ERROR, inst.pc,
                        f"{inst.op.name} has both a register and an immediate second operand",
                    )
        else:
            required, forbidden = _ARITY[kind]
        for name in required:
            if getattr(inst, name) is None:
                yield _diag(ctx, "RVP001", Severity.ERROR, inst.pc, f"{inst.op.name} requires operand {name}")
        for name in forbidden:
            if getattr(inst, name) is not None:
                yield _diag(ctx, "RVP001", Severity.ERROR, inst.pc, f"{inst.op.name} forbids operand {name}")


# ----------------------------------------------------------------------
# RVP002 — register classes
# ----------------------------------------------------------------------
def _expected_src_kind(inst: Instruction, slot: str) -> Optional[str]:
    """'int' / 'fp' / None (don't care) for one source slot."""
    op = inst.op
    kind = op.kind
    if kind is OpKind.LOAD:
        return "int"  # base address
    if kind is OpKind.STORE:
        if slot == "src1":
            return "int"  # base address
        return "fp" if op.name == "fst" else "int"
    if kind is OpKind.BRANCH:
        return "fp" if op.name.startswith("fb") else "int"
    if kind is OpKind.INDIRECT:
        return "int"
    if kind is OpKind.ALU:
        if op.name == "itof":
            return "int"
        if op.name == "ftoi":
            return "fp"
        return "fp" if op.fu.value == "fp" else "int"
    return None


@rule("RVP002", Severity.ERROR, "register-class legality: operands in the right register file")
def _check_register_classes(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for inst in ctx.program:
        if inst.dst is not None and inst.op.writes_dest:
            expected = "fp" if inst.op.fp_dest else "int"
            if inst.dst.kind != expected:
                yield _diag(
                    ctx, "RVP002", Severity.ERROR, inst.pc,
                    f"{inst.op.name} destination {inst.dst.name} is {inst.dst.kind}, expected {expected}",
                )
        for slot in ("src1", "src2"):
            reg = getattr(inst, slot)
            if reg is None:
                continue
            expected = _expected_src_kind(inst, slot)
            if expected is not None and reg.kind != expected:
                yield _diag(
                    ctx, "RVP002", Severity.ERROR, inst.pc,
                    f"{inst.op.name} {slot} {reg.name} is {reg.kind}, expected {expected}",
                )


# ----------------------------------------------------------------------
# RVP003 — use-before-def
# ----------------------------------------------------------------------
_ENTRY_MEANINGFUL = frozenset(ARG_REGS) | frozenset(FP_ARG_REGS) | {RETURN_ADDRESS}


def _garbage_at_entry(reg: Reg) -> bool:
    """True if the calling convention leaves ``reg`` undefined at entry."""
    return is_volatile(reg) and reg not in _ENTRY_MEANINGFUL


@rule("RVP003", Severity.ERROR, "use-before-def: read of an entry-garbage register (warning when only some paths)")
def _check_use_before_def(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for facts in ctx.facts:
        reachable = facts.reachable_blocks
        blocks = {b.start: b for b in ctx.program.basic_blocks(facts.proc)}
        reachable_pcs = {pc for start in reachable for pc in blocks[start].pcs()}
        for pc in range(facts.proc.start, facts.proc.end):
            if pc not in reachable_pcs:
                continue  # RVP004 reports dead code; its uses are moot
            for use in facts.use_sites(pc):
                if not _garbage_at_entry(use.reg):
                    continue
                defs = facts.reaching_defs_of_use(use)
                if (None, use.reg) not in defs:
                    continue
                definitely = all(def_pc is None for def_pc, _ in defs)
                severity = Severity.ERROR if definitely else Severity.WARNING
                path = "every path" if definitely else "some path"
                yield _diag(
                    ctx, "RVP003", severity, pc,
                    f"{use.reg.name} read by {ctx.program[pc].op.name} ({use.slot}) is undefined on {path}",
                )


# ----------------------------------------------------------------------
# RVP004 — unreachable blocks
# ----------------------------------------------------------------------
@rule("RVP004", Severity.WARNING, "unreachable basic block (dead code)")
def _check_unreachable(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for facts in ctx.facts:
        for block in facts.unreachable_blocks():
            yield _diag(
                ctx, "RVP004", Severity.WARNING, block.start,
                f"block [{block.start},{block.end}) is unreachable from {facts.proc.name} entry",
            )


# ----------------------------------------------------------------------
# RVP005 — calling convention across call sites
# ----------------------------------------------------------------------
@rule("RVP005", Severity.ERROR, "calling-convention violations: call/branch targets and link register")
def _check_calling_convention(ctx: VerifyContext) -> Iterator[Diagnostic]:
    program = ctx.program
    entries = {proc.start: proc.name for proc in program.procedures}
    for inst in program:
        kind = inst.op.kind
        if kind is OpKind.CALL:
            if inst.target_pc is not None and inst.target_pc not in entries:
                yield _diag(
                    ctx, "RVP005", Severity.ERROR, inst.pc,
                    f"call target {inst.target!r} (pc {inst.target_pc}) is not a procedure entry",
                )
            if inst.dst is not None and inst.dst != RETURN_ADDRESS:
                yield _diag(
                    ctx, "RVP005", Severity.WARNING, inst.pc,
                    f"call links through {inst.dst.name}, convention expects {RETURN_ADDRESS.name}",
                )
        elif kind in (OpKind.BRANCH, OpKind.JUMP):
            if inst.target_pc is not None and inst.target_pc not in program.procedure_of(inst.pc):
                yield _diag(
                    ctx, "RVP005", Severity.ERROR, inst.pc,
                    f"{inst.op.name} target {inst.target!r} (pc {inst.target_pc}) crosses a procedure boundary",
                )


# ----------------------------------------------------------------------
# RVP006 — rvp_load-marking legality
# ----------------------------------------------------------------------
@rule("RVP006", Severity.ERROR, "illegal rvp_* marking: destination cannot hold the predicted-reuse class")
def _check_rvp_marking(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for inst in ctx.program:
        if not inst.op.rvp_marked:
            continue
        if not inst.op.is_load:
            yield _diag(ctx, "RVP006", Severity.ERROR, inst.pc, f"{inst.op.name} marking on a non-load")
            continue
        if inst.dst is not None and inst.dst.is_zero:
            yield _diag(
                ctx, "RVP006", Severity.ERROR, inst.pc,
                f"rvp-marked load writes hardwired zero {inst.dst.name}: the destination "
                "can never hold a reusable prior value",
            )
        elif ctx.lists is not None:
            hint = ctx.lists.hint_for(inst.pc, use_dead=True, use_live=True, use_lv=True)
            if hint is None:
                yield _diag(
                    ctx, "RVP006", Severity.WARNING, inst.pc,
                    "rvp-marked load has no supporting entry in any profile list",
                )


# ----------------------------------------------------------------------
# RVP007 — allocation validity vs the interference graph
# ----------------------------------------------------------------------
@rule("RVP007", Severity.ERROR, "allocation validity: interfering webs assigned the same register")
def _check_allocation(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for check in ctx.allocations:
        webs = check.webs
        reported: Set[Tuple[int, int]] = set()
        for web in webs:
            chosen = check.assignment.get(web.index, web.reg)
            if web.fixed and chosen != web.reg:
                pc = min(web.def_pcs, default=None)
                yield _diag(
                    ctx, "RVP007", Severity.ERROR, pc,
                    f"{check.proc_name}: fixed web {web.index} moved from "
                    f"{web.reg.name} to {chosen.name}",
                )
            for other_index in check.adjacency.get(web.index, ()):
                other = webs[other_index]
                pair = (min(web.index, other.index), max(web.index, other.index))
                if pair in reported or web.kind != other.kind:
                    continue
                other_chosen = check.assignment.get(other.index, other.reg)
                if chosen != other_chosen:
                    continue
                # The input program's own (conservative, per-register)
                # interference already shows same-register contact between
                # sibling webs; only an assignment the *pass* changed can be
                # a new illegality.
                if chosen == web.reg and other_chosen == other.reg:
                    continue
                reported.add(pair)
                pc = min(web.def_pcs | other.def_pcs, default=None)
                yield _diag(
                    ctx, "RVP007", Severity.ERROR, pc,
                    f"{check.proc_name}: interfering webs {web.index} and "
                    f"{other.index} were both assigned {chosen.name}",
                )


# ----------------------------------------------------------------------
# RVP008 — loop-exclusive (LVR) registers genuinely unshared
# ----------------------------------------------------------------------
@rule("RVP008", Severity.ERROR, "loop-exclusive register shared by another definition in its loop")
def _check_loop_exclusive(ctx: VerifyContext) -> Iterator[Diagnostic]:
    # Lazy import for the same acyclicity reason as RVP007.
    from .effects import defs_and_uses

    for pc in sorted(ctx.lvr_pcs):
        if not 0 <= pc < len(ctx.program):
            continue
        reg = ctx.program[pc].writes
        if reg is None:
            yield _diag(ctx, "RVP008", Severity.ERROR, pc, "LVR instruction defines no register")
            continue
        loop = ctx.program.innermost_loop(pc)
        if loop is None:
            yield _diag(
                ctx, "RVP008", Severity.ERROR, pc,
                f"LVR instruction (reg {reg.name}) is not inside any loop",
            )
            continue
        for other_pc in sorted(loop.body):
            if other_pc == pc:
                continue
            other_defs, _ = defs_and_uses(ctx.program[other_pc])
            if reg in other_defs:
                yield _diag(
                    ctx, "RVP008", Severity.ERROR, pc,
                    f"loop-exclusive {reg.name} is also defined at pc {other_pc} "
                    f"({ctx.program[other_pc].op.name}) in the same loop",
                )


# ----------------------------------------------------------------------
# RVP013 — load into a hardwired-zero register
# ----------------------------------------------------------------------
@rule("RVP013", Severity.WARNING, "unmarked load into a hardwired-zero register: the value is dropped")
def _check_zero_dest_loads(ctx: VerifyContext) -> Iterator[Diagnostic]:
    for inst in ctx.program:
        # Marked zero-dest loads are an RVP006 error; unmarked ones only waste
        # a memory access, so they warn here.
        if inst.op.is_load and inst.writes is None and not inst.op.rvp_marked:
            yield _diag(
                ctx, "RVP013", Severity.WARNING, inst.pc,
                f"{inst.op.name} writes hardwired zero {inst.dst.name}: the loaded "
                "value is dropped",
            )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _diag(ctx: VerifyContext, rule_id: str, severity: Severity, pc: Optional[int], message: str) -> Diagnostic:
    proc = ctx.proc_name(pc) if pc is not None and 0 <= pc < len(ctx.program) else "-"
    return Diagnostic(rule=rule_id, severity=severity, pc=pc, procedure=proc, message=message)


def verify_program(
    program: Program,
    lists: Optional[object] = None,
    lvr_pcs: Optional[Iterable[int]] = None,
    config: Optional[LintConfig] = None,
    allocations: Sequence[AllocationCheck] = (),
) -> List[Diagnostic]:
    """Run every enabled rule; returns diagnostics sorted worst-first."""
    config = config or LintConfig()
    ctx = VerifyContext(
        program=program,
        facts=ProgramFacts(program),
        lists=lists,
        lvr_pcs=set(lvr_pcs or ()),
        allocations=allocations,
    )
    diagnostics: List[Diagnostic] = []
    for info in registered_rules():
        if info.rule_id in config.disabled:
            continue
        diagnostics.extend(info.check(ctx))
    if config.strict:
        diagnostics = [
            Diagnostic(d.rule, Severity.ERROR, d.pc, d.procedure, d.message)
            if d.severity is Severity.WARNING
            else d
            for d in diagnostics
        ]
    diagnostics.sort(key=lambda d: (d.severity, d.pc if d.pc is not None else -1, d.rule))
    return diagnostics


def check_program(
    program: Program,
    source: str,
    lists: Optional[object] = None,
    lvr_pcs: Optional[Iterable[int]] = None,
    config: Optional[LintConfig] = None,
    allocations: Sequence[AllocationCheck] = (),
    baseline: Optional[Program] = None,
) -> List[Diagnostic]:
    """Verify and raise :class:`VerificationError` on any error diagnostic.

    With ``baseline`` (the pass's *input* program), only errors the pass
    *introduced* raise: an error whose ``(rule, pc)`` already occurs in the
    baseline — e.g. a synthetic test program that reads an undefined
    register — is the input's problem, not the pass's, and passes through as
    a finding.  The baseline is only verified when the output has errors at
    all, so the clean path costs one verification, not two.
    """
    config = config or LintConfig()
    diagnostics = verify_program(
        program, lists=lists, lvr_pcs=lvr_pcs, config=config, allocations=allocations,
    )
    if not has_errors(diagnostics):
        return diagnostics
    if baseline is not None:
        preexisting = {
            (d.rule, d.pc) for d in verify_program(baseline, config=config) if d.is_error
        }
        introduced = [
            d for d in diagnostics if d.is_error and (d.rule, d.pc) not in preexisting
        ]
        if not introduced:
            return diagnostics
    raise VerificationError(source, diagnostics)


def rule_catalog() -> Tuple[RuleInfo, ...]:
    """The registered rules (for docs/CLI), importing this module first."""
    return registered_rules()
