"""Static analysis: dataflow engine, program verifier/linter, reuse estimation.

Layers (see DESIGN.md, "Static verification"):

* :mod:`repro.analysis.dataflow` — generic forward/backward fixpoint solver
  over basic blocks; liveness, reaching definitions and available copies are
  instances.
* :mod:`repro.analysis.facts` — per-procedure fact bundles (reaching defs,
  def-use/use-def chains, dominance, reachability, copies).
* :mod:`repro.analysis.verifier` — the rule registry and the ``RVP###``
  rule catalog; compiler passes run it as an on-by-default postcondition.
* :mod:`repro.analysis.absint` — abstract interpretation over the SSA IR:
  interval value ranges, induction-variable recognition, and a symbolic
  ``base + k*iv + offset`` address/alias domain.
* :mod:`repro.analysis.reuse_static` — profile-free estimation of the
  paper's reuse classes from dataflow and absint facts, and RVP candidate
  selection for the marking pass.

The engine (:mod:`.dataflow`) and the diagnostic types (:mod:`.diagnostics`)
are dependency-free and imported eagerly; everything that depends on
:mod:`repro.compiler` (facts, verifier, reuse estimation) is exported
lazily via PEP 562 so that ``compiler.liveness`` can itself import the
engine without a cycle.
"""

from .dataflow import (
    BACKWARD,
    FORWARD,
    INTERSECT,
    UNION,
    DataflowProblem,
    DataflowResult,
    NodeSolution,
    solve,
    solve_nodes,
)
from .effects import (
    ALL_REGS,
    CALL_USES,
    EXIT_USES,
    NONVOLATILES,
    VOLATILES,
    defs_and_uses,
    explicit_defs,
    explicit_uses,
    implicit_defs,
    implicit_uses,
)
from .diagnostics import (
    Diagnostic,
    RuleInfo,
    Severity,
    VerificationError,
    has_errors,
    registered_rules,
    rule,
    summarize,
)

#: Lazily resolved name -> defining submodule (all depend on repro.compiler).
_LAZY = {
    "AvailableCopiesProblem": "facts",
    "ProcedureFacts": "facts",
    "ProgramFacts": "facts",
    "ReachingDefsProblem": "facts",
    "UseSite": "facts",
    "VERIFY_ENV": "verifier",
    "AllocationCheck": "verifier",
    "LintConfig": "verifier",
    "check_program": "verifier",
    "rule_catalog": "verifier",
    "verification_enabled": "verifier",
    "verify_program": "verifier",
    "ReuseClass": "reuse_static",
    "StaticReuseEstimate": "reuse_static",
    "StaticReuseEstimator": "reuse_static",
    "compare_with_profile": "reuse_static",
    "candidate_overlap": "reuse_static",
    "select_rvp_candidates": "reuse_static",
    "symbolic_reuse_by_depth": "reuse_static",
    "AbsintError": "absint",
    "AffineExpr": "absint",
    "Alias": "absint",
    "FunctionAbsint": "absint",
    "InductionFact": "absint",
    "Interval": "absint",
    "ProgramAbsint": "absint",
}

__all__ = [
    "BACKWARD",
    "FORWARD",
    "INTERSECT",
    "UNION",
    "DataflowProblem",
    "DataflowResult",
    "NodeSolution",
    "solve",
    "solve_nodes",
    "ALL_REGS",
    "CALL_USES",
    "EXIT_USES",
    "NONVOLATILES",
    "VOLATILES",
    "defs_and_uses",
    "explicit_defs",
    "explicit_uses",
    "implicit_defs",
    "implicit_uses",
    "Diagnostic",
    "RuleInfo",
    "Severity",
    "VerificationError",
    "has_errors",
    "registered_rules",
    "rule",
    "summarize",
    *_LAZY,
]


def __getattr__(name: str):
    submodule = _LAZY.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{submodule}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
