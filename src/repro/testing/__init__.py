"""Property-based differential testing and fault injection.

Four layers, composed by :func:`run_fuzz` (the engine behind ``repro fuzz``):

- :mod:`~repro.testing.generator` — seeded random RVP programs that pass the
  verifier clean (RVP001–RVP008), parameterised by loop depth, load density,
  register pressure and branch mix.
- :mod:`~repro.testing.oracles` — the five differential oracle families:
  trace-equivalence, pass-preservation, predictor-sanity, recovery-invariant,
  pipeline-equivalence.
- :mod:`~repro.testing.shrinker` — greedy block/instruction deletion while an
  oracle still fails.
- :mod:`~repro.testing.faults` — the chaos harness that scripts worker
  kills, stalls and faults against
  :class:`~repro.runtime.service.CampaignSupervisor`, and
  :class:`~repro.core.session.SimSession` cache eviction.
"""

from .faults import (
    CHAOS_CRASH,
    CHAOS_INTERRUPT,
    CHAOS_KILL,
    CHAOS_OK,
    CHAOS_SIM_FAULT,
    CHAOS_SLOW,
    CHAOS_STALL,
    ChaosExecutor,
    ChaosHarness,
    ChaosPolicy,
    ManualClock,
    PoisonedCellError,
    evict_traces,
    verify_trace_refill,
)
from .generator import GeneratedCase, GeneratorConfig, generate_case
from .oracles import (
    ORACLE_FAMILIES,
    ORACLES,
    CaseInvalid,
    OracleViolation,
    check_pass_preservation,
    check_predictor_sanity,
    check_recovery_invariant,
    check_trace_equivalence,
)
from .runner import FuzzFailure, FuzzReport, run_fuzz
from .shrinker import delete_pcs, shrink_case

__all__ = [
    "CHAOS_CRASH",
    "CHAOS_INTERRUPT",
    "CHAOS_KILL",
    "CHAOS_OK",
    "CHAOS_SIM_FAULT",
    "CHAOS_SLOW",
    "CHAOS_STALL",
    "ChaosExecutor",
    "ChaosHarness",
    "ChaosPolicy",
    "CaseInvalid",
    "FuzzFailure",
    "FuzzReport",
    "GeneratedCase",
    "GeneratorConfig",
    "ManualClock",
    "ORACLES",
    "ORACLE_FAMILIES",
    "OracleViolation",
    "PoisonedCellError",
    "check_pass_preservation",
    "check_predictor_sanity",
    "check_recovery_invariant",
    "check_trace_equivalence",
    "delete_pcs",
    "evict_traces",
    "generate_case",
    "run_fuzz",
    "shrink_case",
    "verify_trace_refill",
]
