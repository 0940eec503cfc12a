"""High-level experiment runner: the paper's named configurations.

One :class:`ExperimentRunner` wraps one workload and provides every
configuration the paper evaluates, by name:

=====================  =====================================================
``no_predict``         baseline, no value prediction
``lvp`` / ``lvp_all``  1K-entry tagged last-value table (loads / all insts)
``grp`` / ``grp_all``  Gabbay & Mendelson register predictor
``srvp_same``          static RVP, loads with existing same-register reuse
``srvp_dead``          + dead-register correlation (profile-guided)
``srvp_live``          + live-register correlation
``srvp_live_lv``       + last-value reallocation
``drvp``               dynamic RVP, loads only, no compiler assistance
``drvp_dead``          loads, dead-register hints
``drvp_dead_lv``       loads, dead + last-value hints
``drvp_all``           dynamic RVP, all instructions
``drvp_all_dead``      all instructions, dead hints
``drvp_all_dead_lv``   all instructions, dead + last-value hints
``drvp_all_realloc``   Section 7.3: *realistic* reallocation — the program is
                       transformed by the graph-colouring reallocator, then
                       plain ``drvp_all`` runs with no hints at all
=====================  =====================================================

Profiles (the four lists and the critical-path profile) are always collected
on the **train** input and applied to runs on the **ref** input, like the
paper (Section 6).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional, Sequence, Tuple

from ..compiler.realloc import ReallocReport
from ..isa.program import Program
from ..profiling.lists import ProfileLists
from ..profiling.reuse import ReuseProfile
from ..sim.trace import TraceRecord
from ..uarch.config import MachineConfig, table1_config
from ..uarch.pipeline import simulate
from ..uarch.recovery import RecoveryScheme
from ..uarch.stats import SimStats
from ..vp.base import NoPredictor, ValuePredictor
from ..vp.context import ContextPredictor
from ..vp.gabbay import GabbayRegisterPredictor
from ..vp.lvp import LastValuePredictor
from ..vp.memory_renaming import MemoryRenamingPredictor
from ..vp.rvp import DynamicRVP
from ..vp.static_rvp import StaticRVP
from ..vp.stride import StridePredictor
from ..workloads.base import Workload
from .session import SimSession, get_session

CONFIG_NAMES = (
    "no_predict",
    "lvp",
    "lvp_all",
    "grp",
    "grp_all",
    "srvp_same",
    "srvp_dead",
    "srvp_live",
    "srvp_live_lv",
    "drvp",
    "drvp_dead",
    "drvp_dead_lv",
    "drvp_all",
    "drvp_all_dead",
    "drvp_all_dead_lv",
    "drvp_all_realloc",
    # Extended baselines the paper cites but excludes from its figures
    # (storage-heavier schemes; see repro.vp.stride / .memory_renaming).
    "stride",
    "stride_all",
    "memren",
    "context",
    "context_all",
)


@dataclass
class ExperimentResult:
    workload: str
    config: str
    recovery: str
    stats: SimStats

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    # Journal round-trip (``repro.runtime``): a committed cell is stored as
    # plain JSON so a resumed campaign restores it without re-simulating.
    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "config": self.config,
            "recovery": self.recovery,
            "stats": asdict(self.stats),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        return cls(
            workload=str(payload["workload"]),
            config=str(payload["config"]),
            recovery=str(payload["recovery"]),
            stats=SimStats(**payload["stats"]),
        )


class ExperimentRunner:
    """Profiles once, then runs any number of named configurations.

    All expensive artifacts (train profiles, program variants, ref traces)
    are memoized in a shared :class:`~repro.core.session.SimSession`, so any
    number of runners — across machine configurations, sweep points, and
    benchmark modules — run the functional simulator once per (workload,
    program variant).  Every variant/trace request goes through the session's
    canonical key function, so an explicit ``threshold=0.8`` and an implicit
    default hit the same cache entry.
    """

    def __init__(
        self,
        workload: str,
        scale: float = 1.0,
        machine: Optional[MachineConfig] = None,
        max_instructions: int = 60_000,
        threshold: float = 0.8,
        session: Optional[SimSession] = None,
    ) -> None:
        self.session = session if session is not None else get_session()
        self.workload: Workload = self.session.workload(workload, scale)
        self.scale = scale
        self.machine = machine or table1_config()
        self.max_instructions = max_instructions
        self.threshold = threshold

    # ------------------------------------------------------------------
    # Profiling on the train input
    # ------------------------------------------------------------------
    def train_profile(self) -> ReuseProfile:
        return self.session.train_artifacts(self.workload.name, self.scale, self.max_instructions).profile

    def profile_lists(self, threshold: Optional[float] = None, loads_only: bool = False) -> ProfileLists:
        threshold = threshold if threshold is not None else self.threshold
        return self.session.profile_lists(
            self.workload.name, self.scale, self.max_instructions, threshold, loads_only
        )

    # ------------------------------------------------------------------
    # Program variants and their ref traces
    # ------------------------------------------------------------------
    def program_variant(self, variant: str, threshold: Optional[float] = None) -> Program:
        """'base', 'srvp_<level>' (marked) or 'realloc' (transformed)."""
        return self.session.program_variant(
            self.workload.name, self.scale, self.max_instructions, variant, threshold, self.threshold
        )

    def ref_trace(self, variant: str = "base", threshold: Optional[float] = None) -> Sequence[TraceRecord]:
        return self.session.ref_trace(
            self.workload.name,
            self.scale,
            self.max_instructions,
            variant,
            threshold,
            default_threshold=self.threshold,
        )

    @property
    def realloc_report(self) -> Optional[ReallocReport]:
        """Report of the most recently keyed ``realloc`` variant (at this
        runner's default threshold)."""
        return self.session.realloc_report(
            self.workload.name, self.scale, self.max_instructions, None, self.threshold
        )

    # ------------------------------------------------------------------
    # Named configurations
    # ------------------------------------------------------------------
    def _build(self, config: str, threshold: Optional[float]) -> Tuple[str, ValuePredictor]:
        """(program variant, predictor) for a configuration name."""
        loads = self.profile_lists(threshold, loads_only=True)
        all_lists = self.profile_lists(threshold, loads_only=False)
        if config == "no_predict":
            return "base", NoPredictor()
        if config == "lvp":
            return "base", LastValuePredictor(loads_only=True)
        if config == "lvp_all":
            return "base", LastValuePredictor(loads_only=False)
        if config == "grp":
            return "base", GabbayRegisterPredictor(loads_only=True)
        if config == "grp_all":
            return "base", GabbayRegisterPredictor(loads_only=False)
        if config.startswith("srvp_"):
            level = config[len("srvp_") :]
            flags = {
                "same": {},
                "dead": {"use_dead": True},
                "live": {"use_dead": True, "use_live": True},
                "live_lv": {"use_dead": True, "use_live": True, "use_lv": True},
            }[level]
            return config, StaticRVP(lists=loads, name=config, **flags)
        if config == "drvp":
            return "base", DynamicRVP(loads_only=True)
        if config == "drvp_dead":
            return "base", DynamicRVP(loads_only=True, lists=loads, use_dead=True)
        if config == "drvp_dead_lv":
            return "base", DynamicRVP(loads_only=True, lists=loads, use_dead=True, use_lv=True)
        if config == "drvp_all":
            return "base", DynamicRVP(loads_only=False)
        if config == "drvp_all_dead":
            return "base", DynamicRVP(loads_only=False, lists=all_lists, use_dead=True)
        if config == "drvp_all_dead_lv":
            return "base", DynamicRVP(loads_only=False, lists=all_lists, use_dead=True, use_lv=True)
        if config == "drvp_all_realloc":
            return "realloc", DynamicRVP(loads_only=False, name="drvp_all_realloc")
        if config == "stride":
            return "base", StridePredictor(loads_only=True)
        if config == "stride_all":
            return "base", StridePredictor(loads_only=False)
        if config == "memren":
            return "base", MemoryRenamingPredictor()
        if config == "context":
            return "base", ContextPredictor(loads_only=True)
        if config == "context_all":
            return "base", ContextPredictor(loads_only=False)
        raise ValueError(f"unknown configuration {config!r}; choose from {CONFIG_NAMES}")

    def pipeline_stream(self, config: str, threshold: Optional[float] = None):
        """The cached pipeline stream for a configuration (see
        :meth:`SimSession.pipeline_stream`)."""
        variant, predictor = self._build(config, threshold)
        stream = self.session.pipeline_stream(
            self.workload.name,
            self.scale,
            self.max_instructions,
            variant,
            threshold,
            default_threshold=self.threshold,
        )
        return stream, predictor

    def run(
        self,
        config: str,
        recovery: RecoveryScheme = RecoveryScheme.SELECTIVE,
        threshold: Optional[float] = None,
    ) -> ExperimentResult:
        # The session canonicalizes (variant, threshold) — base variants drop
        # the threshold, others resolve None to this runner's default — so no
        # per-call-site key arithmetic is needed (or allowed) here.  All
        # pipeline construction routes through the session's stream cache:
        # every predictor × recovery cell of one trace shares its stream.
        stream, predictor = self.pipeline_stream(config, threshold)
        stats = simulate(None, predictor, self.machine, recovery, stream=stream)
        return ExperimentResult(self.workload.name, config, recovery.value, stats)
