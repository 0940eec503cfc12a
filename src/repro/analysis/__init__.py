"""Static analysis: dataflow engine, per-procedure facts, program verifier/linter.

Layers (see DESIGN.md, "Static verification"):

* :mod:`repro.analysis.dataflow` — generic forward/backward fixpoint solver
  over basic blocks; liveness and reaching definitions are instances.
* :mod:`repro.analysis.facts` — per-procedure fact bundles (reaching defs,
  use-def chains, reachability).
* :mod:`repro.analysis.verifier` — the rule registry and the ``RVP###``
  rule catalog; compiler passes run it as an on-by-default postcondition.

The engine (:mod:`.dataflow`) and the diagnostic types (:mod:`.diagnostics`)
are dependency-free and imported eagerly; everything that depends on
:mod:`repro.compiler` (facts, verifier) is exported lazily via PEP 562 so
that ``compiler.liveness`` can itself import the engine without a cycle.
"""

from .dataflow import (
    BACKWARD,
    FORWARD,
    DataflowProblem,
    DataflowResult,
    solve,
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
    "ProcedureFacts": "facts",
    "ProgramFacts": "facts",
    "ReachingDefsProblem": "facts",
    "UseSite": "facts",
    "AllocationCheck": "verifier",
    "LintConfig": "verifier",
    "check_program": "verifier",
    "rule_catalog": "verifier",
    "verify_program": "verifier",
}

__all__ = [
    "BACKWARD",
    "FORWARD",
    "DataflowProblem",
    "DataflowResult",
    "solve",
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
