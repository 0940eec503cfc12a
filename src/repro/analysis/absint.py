"""Abstract interpretation over the SSA IR: intervals, induction, addresses.

A sparse conditional fixpoint engine (:class:`FunctionAbsint`) runs over one
SSA :class:`~repro.ir.nodes.IRFunction` and proves three families of facts,
each a pluggable domain over the same engine:

* **interval value-range** (:class:`Interval`) — signed 64-bit ranges with
  constant propagation through phis.  Transfer functions mirror the opcode
  table exactly: when both operands are constants the opcode's own
  ``alu_fn`` evaluates the result, so constant folding can never disagree
  with the simulator; range arithmetic falls back to ⊤ whenever 64-bit
  wraparound is possible.  Branch conditions over proved ranges prune
  infeasible CFG edges (classic SCCP), so only blocks reachable over the
  surviving edges are analysed.

* **induction recognition** (:class:`InductionFact`) — loop-header phis
  whose back-edge arguments are ``phi + c`` chains of recurrences.  For the
  canonical counted-loop shape (``sub c, c, #k; bne c, header`` with a
  constant, divisible initial value) the engine also proves the trip count
  and refines the phi's interval to the exact closed range; without the
  exit proof no bound is claimed (a wrapping recurrence is not monotone in
  the signed view, so one-sided bounds would be unsound).

* **symbolic addresses** (:class:`AffineExpr`) — every value is a linear
  form ``offset + Σ coeff·sym`` over opaque *atom* symbols (loads, entry
  values, unrecognised phis) and induction variables, with coefficients and
  offsets canonicalised mod 2**64 so expression equality is exactly runtime
  address equality.  :meth:`FunctionAbsint.alias` turns expression pairs
  into must/no/may verdicts.  Distinct base atoms are assumed to address
  distinct objects — an allocation-site object model applied per SSA value
  rather than per base *register*, which avoids the register-name-reuse
  unsoundness but is still an assumption:
  the ``absint-soundness`` fuzz oracle (:mod:`repro.testing.oracles`)
  checks every verdict family against decoded-engine traces.

:class:`ProgramAbsint` raises a flat :class:`~repro.isa.program.Program`
through :func:`repro.ir.ssa.raise_program` and exposes the facts keyed by
flat pc via the instructions' ``origin_pc`` provenance.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..ir.nodes import Block, IRError, IRFunction, IRInstr, Phi, Value, operand_is_zero
from ..ir.ssa import raise_program
from ..isa.opcodes import MASK64, OpKind, to_signed, to_unsigned
from ..isa.program import Program

#: Phi joins before the moving bounds are widened to ±∞.
WIDEN_AFTER = 3
#: Block-evaluation budget per function (runaway guard; see AbsintError).
MAX_BLOCK_EVALS = 100_000

SIGNED_MIN = -(1 << 63)
SIGNED_MAX = (1 << 63) - 1

#: Test seam: when True the engine *freezes* phi intervals at their first
#: joined value instead of widening — a classic unsound-widening bug.  The
#: absint-soundness oracle's mutation self-test flips this to prove the
#: oracle catches intervals that are too narrow.
_TEST_FREEZE_PHIS = False


class AbsintError(IRError):
    """The analysis could not be run (malformed IR or budget exceeded)."""


# ----------------------------------------------------------------------
# Interval domain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Interval:
    """A signed 64-bit range ``[lo, hi]``; ``None`` bounds are unbounded.

    Values are the :func:`~repro.isa.opcodes.to_signed` view of the stored
    64-bit patterns (the view branch conditions and signed compares use).
    """

    lo: Optional[int] = None
    hi: Optional[int] = None

    @classmethod
    def top(cls) -> "Interval":
        return cls(None, None)

    @classmethod
    def const(cls, value: int) -> "Interval":
        signed = to_signed(to_unsigned(value))
        return cls(signed, signed)

    @property
    def is_const(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if self.lo is not None and value < self.lo:
            return False
        if self.hi is not None and value > self.hi:
            return False
        return True

    def join(self, other: "Interval") -> "Interval":
        lo = None if self.lo is None or other.lo is None else min(self.lo, other.lo)
        hi = None if self.hi is None or other.hi is None else max(self.hi, other.hi)
        return Interval(lo, hi)

    def meet(self, other: "Interval") -> "Interval":
        lo = self.lo if other.lo is None else (other.lo if self.lo is None else max(self.lo, other.lo))
        hi = self.hi if other.hi is None else (other.hi if self.hi is None else min(self.hi, other.hi))
        if lo is not None and hi is not None and lo > hi:
            # An empty meet means one side is still converging; the other
            # side alone is a sound (possibly looser) answer.
            return other
        return Interval(lo, hi)

    def widen(self, grown: "Interval") -> "Interval":
        lo = self.lo if (self.lo is not None and grown.lo is not None and grown.lo >= self.lo) else None
        hi = self.hi if (self.hi is not None and grown.hi is not None and grown.hi <= self.hi) else None
        return Interval(lo, hi)

    def render(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"[{lo}, {hi}]"


def _fits(lo: Optional[int], hi: Optional[int]) -> Optional[Interval]:
    """An interval only if both bounds stay inside signed 64-bit (no wrap)."""
    if lo is None or hi is None or lo < SIGNED_MIN or hi > SIGNED_MAX:
        return None
    return Interval(lo, hi)


def _interval_add(a: Interval, b: Interval, sign: int) -> Interval:
    if a.lo is None or a.hi is None or b.lo is None or b.hi is None:
        return Interval.top()
    if sign > 0:
        fitted = _fits(a.lo + b.lo, a.hi + b.hi)
    else:
        fitted = _fits(a.lo - b.hi, a.hi - b.lo)
    return fitted if fitted is not None else Interval.top()


def _interval_mul(a: Interval, b: Interval) -> Interval:
    if a.lo is None or a.hi is None or b.lo is None or b.hi is None:
        return Interval.top()
    corners = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    fitted = _fits(min(corners), max(corners))
    return fitted if fitted is not None else Interval.top()


def _nonneg(iv: Interval) -> bool:
    return iv.lo is not None and iv.lo >= 0


def _compare_const(op_name: str, a: Interval, b: Interval) -> Optional[int]:
    """Decide a compare from disjoint ranges, or None when undecidable."""
    if op_name in ("cmpeq", "fcmpeq"):
        if a.is_const and b.is_const:
            return 1 if a.lo == b.lo else 0
        if a.hi is not None and b.lo is not None and a.hi < b.lo:
            return 0
        if b.hi is not None and a.lo is not None and b.hi < a.lo:
            return 0
        return None
    if op_name == "cmpne":
        eq = _compare_const("cmpeq", a, b)
        return None if eq is None else 1 - eq
    if op_name in ("cmplt", "fcmplt"):
        if a.hi is not None and b.lo is not None and a.hi < b.lo:
            return 1
        if a.lo is not None and b.hi is not None and a.lo >= b.hi:
            return 0
        return None
    if op_name in ("cmple", "fcmple"):
        if a.hi is not None and b.lo is not None and a.hi <= b.lo:
            return 1
        if a.lo is not None and b.hi is not None and a.lo > b.hi:
            return 0
        return None
    if op_name == "cmpult":  # unsigned: decidable when both ranges non-negative
        if _nonneg(a) and _nonneg(b):
            return _compare_const("cmplt", a, b)
        return None
    return None


def _transfer_interval(instr: IRInstr, a: Interval, b: Interval) -> Interval:
    """Interval transfer for one ALU instruction with operand ranges a, b."""
    name = instr.op.name
    if name in ("li", "fli"):
        return Interval.const(instr.imm or 0)
    # Exact constant folding through the opcode's own value function: this
    # path can never diverge from the simulator's arithmetic.
    if a.is_const and b.is_const and instr.op.alu_fn is not None:
        result = instr.op.alu_fn(to_unsigned(a.lo), to_unsigned(b.lo))
        return Interval.const(result)
    if name in ("mov", "fmov", "itof", "ftoi"):
        return a
    if name in ("add", "fadd"):
        return _interval_add(a, b, +1)
    if name in ("sub", "fsub"):
        return _interval_add(a, b, -1)
    if name in ("mul", "fmul"):
        return _interval_mul(a, b)
    if name.startswith("cmp") or name.startswith("fcmp"):
        decided = _compare_const(name, a, b)
        return Interval.const(decided) if decided is not None else Interval(0, 1)
    if name == "rem" and b.is_const and b.lo != 0:
        bound = abs(b.lo) - 1
        return Interval(-bound, bound)
    if name == "and" and _nonneg(a) and _nonneg(b) and a.hi is not None and b.hi is not None:
        return Interval(0, min(a.hi, b.hi))
    if name in ("or", "xor") and _nonneg(a) and _nonneg(b) and a.hi is not None and b.hi is not None:
        bound = (1 << max(a.hi.bit_length(), b.hi.bit_length())) - 1
        return Interval(0, bound)
    if name == "srl" and b.is_const and (b.lo & 63) >= 1:
        shift = b.lo & 63
        if _nonneg(a) and a.hi is not None:
            return Interval(a.lo >> shift, a.hi >> shift)
        return Interval(0, (1 << (64 - shift)) - 1)
    if name == "sra" and b.is_const:
        shift = b.lo & 63
        if a.lo is not None and a.hi is not None:
            return Interval(a.lo >> shift, a.hi >> shift)
        if shift >= 1:
            bound = 1 << (63 - shift)
            return Interval(-bound, bound - 1)
    if name == "sll" and b.is_const and a.lo is not None and a.hi is not None:
        shift = b.lo & 63
        fitted = _fits(a.lo << shift, a.hi << shift)
        if fitted is not None and a.lo >= 0:
            return fitted
    return Interval.top()


def _branch_feasible(op_name: str, cond: Interval) -> Tuple[bool, bool]:
    """(taken possible, fallthrough possible) for a branch on ``cond``."""
    zero_in = cond.contains(0)
    only_zero = cond.is_const and cond.lo == 0
    neg_in = cond.lo is None or cond.lo < 0
    pos_in = cond.hi is None or cond.hi > 0
    if op_name in ("beq", "fbeq"):
        return zero_in, not only_zero
    if op_name in ("bne", "fbne"):
        return not only_zero, zero_in
    if op_name == "blt":
        return neg_in, not neg_in or zero_in or pos_in
    if op_name == "ble":
        return neg_in or zero_in, pos_in
    if op_name == "bgt":
        return pos_in, neg_in or zero_in
    if op_name == "bge":
        return zero_in or pos_in, neg_in
    return True, True


# ----------------------------------------------------------------------
# Symbolic address domain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AffineExpr:
    """``offset + Σ coeff·sym`` over atom/induction symbols, mod 2**64.

    ``terms`` is a sorted tuple of ``(sym_vid, coeff)`` with nonzero coeffs.
    Because arithmetic is canonicalised mod 2**64, structural equality of
    two expressions is equality of the runtime (masked) values.
    """

    terms: Tuple[Tuple[int, int], ...] = ()
    offset: int = 0

    @classmethod
    def const(cls, value: int) -> "AffineExpr":
        return cls((), to_unsigned(value))

    @classmethod
    def atom(cls, vid: int) -> "AffineExpr":
        return cls(((vid, 1),), 0)

    @property
    def is_const(self) -> bool:
        return not self.terms

    @property
    def syms(self) -> Tuple[int, ...]:
        return tuple(sym for sym, _ in self.terms)

    def is_atom_of(self, vid: int) -> bool:
        return self.terms == ((vid, 1),) and self.offset == 0

    def _combine(self, other: "AffineExpr", sign: int) -> "AffineExpr":
        coeffs: Dict[int, int] = dict(self.terms)
        for sym, coeff in other.terms:
            coeffs[sym] = (coeffs.get(sym, 0) + sign * coeff) & MASK64
        terms = tuple(sorted((s, c) for s, c in coeffs.items() if c & MASK64))
        return AffineExpr(terms, (self.offset + sign * other.offset) & MASK64)

    def add(self, other: "AffineExpr") -> "AffineExpr":
        return self._combine(other, +1)

    def sub(self, other: "AffineExpr") -> "AffineExpr":
        return self._combine(other, -1)

    def scale(self, factor: int) -> "AffineExpr":
        factor &= MASK64
        terms = tuple(
            sorted((s, (c * factor) & MASK64) for s, c in self.terms if (c * factor) & MASK64)
        )
        return AffineExpr(terms, (self.offset * factor) & MASK64)

    def shift(self, imm: int) -> "AffineExpr":
        return AffineExpr(self.terms, (self.offset + imm) & MASK64)

    def render(self, names: Optional[Dict[int, str]] = None) -> str:
        parts = []
        for sym, coeff in self.terms:
            label = names.get(sym, f"v{sym}") if names else f"v{sym}"
            parts.append(label if coeff == 1 else f"{to_signed(coeff)}*{label}")
        parts.append(str(to_signed(self.offset)))
        return " + ".join(parts)


class Alias(enum.Enum):
    MUST = "must"
    NO = "no"
    MAY = "may"


# ----------------------------------------------------------------------
# Induction facts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class InductionFact:
    """An affine recurrence ``phi_{n+1} = phi_n + stride`` on a loop header."""

    vid: int
    header: str
    stride: int  # signed per-iteration delta
    init: Interval
    depth: int
    #: Proven iteration count (header entries per loop entry), when the
    #: bne-zero exit pattern with a constant divisible init is matched.
    trip: Optional[int] = None
    #: The symbolic expression the recurrence starts from (None when the
    #: entry edges disagree); lets the alias domain chase an induction
    #: pointer back to the object it walks.
    init_expr: Optional[AffineExpr] = None


@dataclass(frozen=True)
class Loop:
    """One SSA natural loop: header label, body labels, nesting depth."""

    header: str
    body: frozenset
    depth: int


# ----------------------------------------------------------------------
# The per-function engine
# ----------------------------------------------------------------------
class FunctionAbsint:
    """Interval + induction + address analysis of one SSA function."""

    def __init__(self, func: IRFunction) -> None:
        self.func = func
        self.blocks: Dict[str, Block] = {b.label: b for b in func.blocks}
        self.preds: Dict[str, List[str]] = func.predecessors()
        self.succs: Dict[str, Tuple[str, ...]] = {
            b.label: func.successors(b) for b in func.blocks
        }
        self.loops: List[Loop] = [
            Loop(header, frozenset(body), depth) for header, body, depth in func.loops()
        ]
        #: vid -> interval (missing = ⊥: no evidence the value is computed).
        self.intervals: Dict[int, Interval] = {}
        #: vid -> affine address expression.
        self.exprs: Dict[int, AffineExpr] = {}
        #: vid -> defining block label (None for entry values).
        self.def_block: Dict[int, Optional[str]] = {}
        self.induction: Dict[int, InductionFact] = {}
        #: labels proven reachable under interval-pruned edges.
        self.reachable: Set[str] = set()
        self.executable_edges: Set[Tuple[str, str]] = set()
        #: branch instr id() -> proven outcome (True = always taken).
        self._decisions: Dict[int, bool] = {}
        self._refinements: Dict[int, Interval] = {}
        self._index_def_sites()
        self._run_intervals()
        self._run_addresses()
        self._recognise_induction()
        if self._refinements:
            self._run_intervals()  # re-run with proven loop-phi ranges pinned

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _index_def_sites(self) -> None:
        for value in self.func.entry_values:
            self.def_block[value.vid] = None
        self._users: Dict[int, Set[str]] = {}
        for block in self.func.blocks:
            for phi in block.phis:
                self.def_block[phi.dst.vid] = block.label
                for value in phi.args.values():
                    self._users.setdefault(value.vid, set()).add(block.label)
            for instr in block.instrs:
                if isinstance(instr.defined, Value):
                    self.def_block[instr.defined.vid] = block.label
                for value in instr.implicit_defs:
                    self.def_block[value.vid] = block.label
                for op in instr.used:
                    if isinstance(op, Value):
                        self._users.setdefault(op.vid, set()).add(block.label)

    # ------------------------------------------------------------------
    # Interval fixpoint (sparse conditional)
    # ------------------------------------------------------------------
    def _operand_interval(self, op) -> Interval:
        if op is None:
            return Interval.const(0)
        if operand_is_zero(op):
            return Interval.const(0)
        if isinstance(op, Value):
            return self.intervals.get(op.vid, Interval.top())
        return Interval.top()

    def _run_intervals(self) -> None:
        self.intervals = {}
        self._decisions = {}
        self.executable_edges = set()
        entry = self.func.entry.label
        self.reachable = {entry}
        for value in self.func.entry_values:
            self.intervals[value.vid] = Interval.top()
        phi_updates: Dict[int, int] = {}
        worklist = deque([entry])
        queued = {entry}
        evals = 0
        while worklist:
            label = worklist.popleft()
            queued.discard(label)
            evals += 1
            if evals > MAX_BLOCK_EVALS:
                raise AbsintError(f"{self.func.name}: interval fixpoint budget exceeded")
            changed = self._eval_block(label, phi_updates)
            for succ in self._feasible_successors(label):
                edge = (label, succ)
                if edge not in self.executable_edges:
                    self.executable_edges.add(edge)
                    self.reachable.add(succ)
                    if succ not in queued:
                        worklist.append(succ)
                        queued.add(succ)
            for vid in changed:
                for user in self._users.get(vid, ()):
                    if user in self.reachable and user not in queued:
                        worklist.append(user)
                        queued.add(user)

    def _eval_block(self, label: str, phi_updates: Dict[int, int]) -> List[int]:
        changed: List[int] = []
        block = self.blocks[label]
        for phi in block.phis:
            vid = phi.dst.vid
            old = self.intervals.get(vid)
            if _TEST_FREEZE_PHIS and old is not None:
                continue  # seeded widening bug: phi ranges frozen too early
            joined: Optional[Interval] = None
            for pred, value in phi.args.items():
                if (pred, label) not in self.executable_edges:
                    continue
                if value.vid == vid:
                    continue  # self-loop argument contributes nothing new
                arg = self.intervals.get(value.vid)
                if arg is None:
                    continue  # ⊥: that path has produced no value yet
                joined = arg if joined is None else joined.join(arg)
            if joined is None:
                continue
            if old is not None:
                grown = old.join(joined)
                if grown != old:
                    phi_updates[vid] = phi_updates.get(vid, 0) + 1
                    if phi_updates[vid] > WIDEN_AFTER:
                        grown = old.widen(grown)
                joined = grown
            refinement = self._refinements.get(vid)
            if refinement is not None:
                joined = joined.meet(refinement)
            if joined != old:
                self.intervals[vid] = joined
                changed.append(vid)
        for instr in block.instrs:
            if instr.op.kind is OpKind.ALU and isinstance(instr.defined, Value):
                a = self._operand_interval(instr.src1)
                b = (
                    Interval.const(instr.imm)
                    if instr.src2 is None and instr.imm is not None
                    else self._operand_interval(instr.src2)
                )
                new = _transfer_interval(instr, a, b)
            elif isinstance(instr.defined, Value):
                new = Interval.top()  # loads and call link values
            else:
                new = None
            if new is not None:
                vid = instr.defined.vid
                old = self.intervals.get(vid)
                if old is not None:
                    new = old.join(new)
                if new != old:
                    self.intervals[vid] = new
                    changed.append(vid)
            for value in instr.implicit_defs:
                if value.vid not in self.intervals:
                    self.intervals[value.vid] = Interval.top()
                    changed.append(value.vid)
        return changed

    def _feasible_successors(self, label: str) -> Tuple[str, ...]:
        block = self.blocks[label]
        succs = self.succs[label]
        term = block.terminator
        if term is None or term.op.kind is not OpKind.BRANCH or len(succs) < 2:
            if term is not None and term.op.kind is OpKind.BRANCH and len(succs) == 1:
                return succs  # branch target == fallthrough
            return succs
        cond = self._operand_interval(term.src1)
        taken_ok, fall_ok = _branch_feasible(term.op.name, cond)
        out = []
        if taken_ok:
            out.append(term.target)
        if fall_ok and succs[-1] != term.target:
            out.append(succs[-1])
        if taken_ok != fall_ok:
            self._decisions[id(term)] = taken_ok
        else:
            self._decisions.pop(id(term), None)
        return tuple(out)

    # ------------------------------------------------------------------
    # Address fixpoint
    # ------------------------------------------------------------------
    def _operand_expr(self, op) -> AffineExpr:
        if op is None or operand_is_zero(op):
            return AffineExpr.const(0)
        if isinstance(op, Value):
            iv = self.intervals.get(op.vid)
            if iv is not None and iv.is_const:
                return AffineExpr.const(iv.lo)
            return self.exprs.get(op.vid, AffineExpr.atom(op.vid))
        return AffineExpr.const(0)

    def _transfer_expr(self, instr: IRInstr) -> AffineExpr:
        name = instr.op.name
        dst = instr.defined
        a = self._operand_expr(instr.src1)
        if instr.src2 is None and instr.imm is not None:
            b = AffineExpr.const(instr.imm)
        else:
            b = self._operand_expr(instr.src2)
        if name in ("li", "fli"):
            return AffineExpr.const(instr.imm or 0)
        if name in ("mov", "fmov", "itof", "ftoi"):
            return a
        if name in ("add", "fadd"):
            return a.add(b)
        if name in ("sub", "fsub"):
            return a.sub(b)
        if name in ("mul", "fmul"):
            if a.is_const:
                return b.scale(a.offset)
            if b.is_const:
                return a.scale(b.offset)
        if name == "sll" and b.is_const and (b.offset & 63) == b.offset:
            return a.scale(1 << b.offset)
        return AffineExpr.atom(dst.vid)

    def _run_addresses(self) -> None:
        self.exprs = {}
        for value in self.func.entry_values:
            self.exprs[value.vid] = AffineExpr.atom(value.vid)
        forced_atoms: Set[int] = set()
        changed = True
        passes = 0
        max_passes = 4 * len(self.func.blocks) + 16
        while changed:
            passes += 1
            if passes > max_passes:
                # Not converged: claiming any phi expression now would be
                # unsound (equality means runtime equality).  Pin every phi
                # to an opaque atom and let straight-line propagation finish.
                for block in self.func.blocks:
                    for phi in block.phis:
                        forced_atoms.add(phi.dst.vid)
                        self.exprs[phi.dst.vid] = AffineExpr.atom(phi.dst.vid)
            changed = False
            for block in self.func.blocks:
                if block.label not in self.reachable:
                    continue
                for phi in block.phis:
                    vid = phi.dst.vid
                    if vid in forced_atoms:
                        continue
                    merged: Optional[AffineExpr] = None
                    conflict = False
                    for pred, value in phi.args.items():
                        if (pred, block.label) not in self.executable_edges:
                            continue
                        if value.vid == vid:
                            continue
                        arg = self._operand_expr(value)
                        if arg.is_atom_of(vid):
                            continue  # still referring back to this phi
                        if merged is None:
                            merged = arg
                        elif arg != merged:
                            conflict = True
                    new = AffineExpr.atom(vid) if (conflict or merged is None) else merged
                    if conflict:
                        forced_atoms.add(vid)
                    if self.exprs.get(vid) != new:
                        self.exprs[vid] = new
                        changed = True
                for instr in block.instrs:
                    if isinstance(instr.defined, Value):
                        new = self._transfer_expr(instr)
                        vid = instr.defined.vid
                        if self.exprs.get(vid) != new:
                            self.exprs[vid] = new
                            changed = True
                    for value in instr.implicit_defs:
                        if value.vid not in self.exprs:
                            self.exprs[value.vid] = AffineExpr.atom(value.vid)
                            changed = True

    # ------------------------------------------------------------------
    # Induction recognition + trip proofs
    # ------------------------------------------------------------------
    def _recognise_induction(self) -> None:
        self.induction = {}
        self._refinements = {}
        for loop in self.loops:
            if loop.header not in self.reachable:
                continue
            header = self.blocks[loop.header]
            back_preds = [p for p in self.preds[loop.header] if p in loop.body]
            for phi in header.phis:
                vid = phi.dst.vid
                expr = self.exprs.get(vid)
                if expr is None or not expr.is_atom_of(vid):
                    continue
                stride: Optional[int] = None
                entry_init: Optional[Interval] = None
                init_expr: Optional[AffineExpr] = None
                init_exprs_agree = True
                recognised = True
                for pred, value in phi.args.items():
                    if (pred, loop.header) not in self.executable_edges:
                        continue
                    arg_interval = self.intervals.get(value.vid, Interval.top())
                    if pred in loop.body:
                        arg_expr = self.exprs.get(value.vid)
                        if (
                            arg_expr is None
                            or arg_expr.terms != ((vid, 1),)
                        ):
                            recognised = False
                            break
                        step = to_signed(arg_expr.offset)
                        if stride is None:
                            stride = step
                        elif stride != step:
                            recognised = False
                            break
                    else:
                        entry_init = (
                            arg_interval if entry_init is None else entry_init.join(arg_interval)
                        )
                        arg_expr = self._operand_expr(value)
                        if init_expr is None:
                            init_expr = arg_expr
                        elif arg_expr != init_expr:
                            init_exprs_agree = False
                if not recognised or stride is None or entry_init is None:
                    continue
                trip = self._prove_trip(loop, phi, back_preds, entry_init, stride)
                fact = InductionFact(
                    vid=vid,
                    header=loop.header,
                    stride=stride,
                    init=entry_init,
                    depth=loop.depth,
                    trip=trip,
                    init_expr=init_expr if init_exprs_agree else None,
                )
                self.induction[vid] = fact
                if trip is not None and entry_init.is_const:
                    # Header entries see c0, c0+s, ..., c0+(trip-1)*s; with the
                    # divisible countdown exit the last value is exactly -s
                    # (stride<0) or -s's mirror (stride>0), and nothing wraps.
                    c0 = entry_init.lo
                    last = c0 + (trip - 1) * stride
                    self._refinements[vid] = Interval(min(c0, last), max(c0, last))

    def _prove_trip(
        self,
        loop: Loop,
        phi: Phi,
        back_preds: List[str],
        init: Interval,
        stride: int,
    ) -> Optional[int]:
        """Trip count for the ``op v; bne v, header`` countdown exit shape."""
        if not init.is_const or stride == 0 or len(back_preds) != 1:
            return None
        latch = self.blocks[back_preds[0]]
        term = latch.terminator
        if term is None or term.op.name != "bne" or term.target != loop.header:
            return None
        next_value = phi.args.get(back_preds[0])
        if not isinstance(term.src1, Value) or next_value is None:
            return None
        if term.src1.vid != next_value.vid:
            return None
        c0 = init.lo
        if stride < 0 and c0 > 0 and c0 % (-stride) == 0:
            return c0 // (-stride)
        if stride > 0 and c0 < 0 and (-c0) % stride == 0:
            return (-c0) // stride
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def expr_of(self, value: Value) -> AffineExpr:
        iv = self.intervals.get(value.vid)
        if iv is not None and iv.is_const:
            return AffineExpr.const(iv.lo)
        return self.exprs.get(value.vid, AffineExpr.atom(value.vid))

    def addr_expr(self, instr: IRInstr) -> Optional[AffineExpr]:
        """The address expression of a memory instruction, or None."""
        if not instr.op.is_mem:
            return None
        return self._operand_expr(instr.src1).shift(instr.imm or 0)

    def invariant_in(self, expr: AffineExpr, body: Iterable[str]) -> bool:
        """True when no symbol of ``expr`` is (re)defined inside ``body``."""
        labels = set(body)
        return all(self.def_block.get(sym) not in labels for sym in expr.syms)

    def alias(self, a: Optional[AffineExpr], b: Optional[AffineExpr]) -> Alias:
        """Must/no/may verdict for two address expressions (same iteration).

        Distinct non-induction base atoms are assumed to address distinct
        objects (allocation-site model, see module docstring); everything
        else is decided arithmetically mod 2**64.
        """
        if a is None or b is None:
            return Alias.MAY
        if a.terms == b.terms:
            return Alias.MUST if a.offset == b.offset else Alias.NO
        diff = a.sub(b)
        facts = [self.induction.get(s) for s, _ in diff.terms]
        if (
            diff.terms
            and all(f is not None and f.init.is_const for f in facts)
            and len({f.header for f in facts}) == 1
        ):
            # Every residual term is an induction variable of the *same*
            # header, so they advance in lockstep on one iteration counter:
            # a - b ≡ Σ cᵢ·(c0ᵢ + n·strideᵢ) + delta (mod 2**64).  The
            # recurrences give exact orbits, so solve the linear congruence
            # for n ≥ 0 in exact modular arithmetic — wraparound is part of
            # the model, not a soundness hole.
            modulus = 1 << 64
            step = sum(c * f.stride for (_, c), f in zip(diff.terms, facts)) % modulus
            rhs = -(diff.offset + sum(c * f.init.lo for (_, c), f in zip(diff.terms, facts)))
            rhs %= modulus
            trips = [f.trip for f in facts if f.trip is not None]
            if step == 0:
                return Alias.MAY if rhs == 0 else Alias.NO
            g = math.gcd(step, modulus)
            if rhs % g != 0:
                return Alias.NO
            if trips:
                period = modulus // g
                n0 = (rhs // g) * pow(step // g, -1, period) % period
                if n0 >= min(trips):
                    return Alias.NO
        roots_a = self.object_roots(a)
        roots_b = self.object_roots(b)
        if roots_a and roots_b and not roots_a & roots_b:
            # Allocation-site object model: pointer chains seeded by
            # different opaque values (or different literal bases) address
            # different objects — per seed value instead of per register
            # name, and validated dynamically by the soundness oracle.
            return Alias.NO
        return Alias.MAY

    def object_roots(self, expr: Optional[AffineExpr], _depth: int = 0) -> Optional[Set[Tuple]]:
        """The allocation seeds an address expression can point into.

        Atoms root themselves; induction variables are chased through their
        initialisation expression (an induction pointer walks whatever
        object it started in); a pure-constant expression roots at its
        literal value.  Returns None when any component is unchaseable —
        callers must then assume aliasing.
        """
        if expr is None or _depth > 8:
            return None
        roots: Set[Tuple] = set()
        if not expr.terms:
            roots.add(("const", expr.offset))
            return roots
        for sym in expr.syms:
            fact = self.induction.get(sym)
            if fact is None:
                roots.add(("atom", sym))
                continue
            sub = self.object_roots(fact.init_expr, _depth + 1)
            if sub is None:
                return None
            roots |= sub
        return roots


# ----------------------------------------------------------------------
# Whole-program facade over flat pcs
# ----------------------------------------------------------------------
class ProgramAbsint:
    """Raise a flat program to SSA and index the absint facts by flat pc."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.module = raise_program(program)
        self.functions: Dict[str, FunctionAbsint] = {}
        #: flat pc -> (function analysis, SSA instruction, block label).
        self._by_pc: Dict[int, Tuple[FunctionAbsint, IRInstr, str]] = {}
        for func in self.module.functions:
            analysis = FunctionAbsint(func)
            self.functions[func.name] = analysis
            for block in func.blocks:
                for instr in block.instrs:
                    if instr.origin_pc is not None:
                        self._by_pc[instr.origin_pc] = (analysis, instr, block.label)

    # ------------------------------------------------------------------
    def lookup(self, pc: int) -> Optional[Tuple[FunctionAbsint, IRInstr, str]]:
        return self._by_pc.get(pc)

    def interval_at(self, pc: int) -> Optional[Interval]:
        """Interval of the value defined at flat ``pc`` (None: no value)."""
        entry = self._by_pc.get(pc)
        if entry is None:
            return None
        analysis, instr, _ = entry
        if not isinstance(instr.defined, Value):
            return None
        return analysis.intervals.get(instr.defined.vid, Interval.top())

    def branch_decision(self, pc: int) -> Optional[bool]:
        """True/False when the branch at ``pc`` is proven one-way."""
        entry = self._by_pc.get(pc)
        if entry is None:
            return None
        analysis, instr, _ = entry
        if instr.op.kind is not OpKind.BRANCH:
            return None
        return analysis._decisions.get(id(instr))

    def unreachable_pcs(self) -> Set[int]:
        """Flat pcs inside blocks proven unreachable by edge pruning."""
        out: Set[int] = set()
        for analysis in self.functions.values():
            for block in analysis.func.blocks:
                if block.label in analysis.reachable:
                    continue
                for instr in block.instrs:
                    if instr.origin_pc is not None:
                        out.add(instr.origin_pc)
        return out

    def addr_expr_at(self, pc: int) -> Optional[AffineExpr]:
        entry = self._by_pc.get(pc)
        if entry is None:
            return None
        analysis, instr, _ = entry
        return analysis.addr_expr(instr)

    def loop_depth_at(self, pc: int) -> int:
        entry = self._by_pc.get(pc)
        if entry is None:
            return 0
        analysis, _, label = entry
        depth = 0
        for loop in analysis.loops:
            if label in loop.body and loop.depth > depth:
                depth = loop.depth
        return depth

    def body_labels(self, pc: int, flat_body: Iterable[int]) -> Set[str]:
        """SSA block labels covering a flat loop body (1:1 raise)."""
        labels: Set[str] = set()
        for body_pc in flat_body:
            entry = self._by_pc.get(body_pc)
            if entry is not None:
                labels.add(entry[2])
        return labels

    def induction_facts(self) -> List[Tuple[str, InductionFact]]:
        out = []
        for name, analysis in sorted(self.functions.items()):
            for fact in analysis.induction.values():
                out.append((name, fact))
        return out

    # ------------------------------------------------------------------
    def live_values(self, analysis: FunctionAbsint) -> Set[int]:
        """Transitively observable values, restricted to reachable blocks.

        Roots are the operands of side-effecting instructions (stores,
        branches, calls, exits); liveness flows from a live definition to
        its operands and from a live phi to its arguments.  A load whose
        value is not in this set is provably dropped.
        """
        live: Set[int] = set()
        worklist: List[Value] = []

        def mark(value) -> None:
            if isinstance(value, Value) and value.vid not in live:
                live.add(value.vid)
                worklist.append(value)

        defs: Dict[int, object] = {}
        for block in analysis.func.blocks:
            if block.label not in analysis.reachable:
                continue
            for phi in block.phis:
                defs[phi.dst.vid] = phi
            for instr in block.instrs:
                if isinstance(instr.defined, Value):
                    defs[instr.defined.vid] = instr
                rooted = instr.op.kind in (
                    OpKind.STORE,
                    OpKind.BRANCH,
                    OpKind.JUMP,
                    OpKind.CALL,
                    OpKind.INDIRECT,
                    OpKind.HALT,
                )
                if rooted:
                    for op in instr.used:
                        mark(op)
                    for value in instr.implicit_uses:
                        mark(value)
        while worklist:
            value = worklist.pop()
            definer = defs.get(value.vid)
            if isinstance(definer, Phi):
                for arg in definer.args.values():
                    mark(arg)
            elif isinstance(definer, IRInstr):
                for op in definer.used:
                    mark(op)
                for arg in definer.implicit_uses:
                    mark(arg)
        return live
