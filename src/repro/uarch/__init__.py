"""Cycle-level out-of-order superscalar microarchitecture model."""

from .branch import BranchPredictor
from .cache import Cache, MemoryHierarchy
from .config import CacheConfig, MachineConfig, aggressive_config, table1_config
from .fast import FastDynInst, FastPipelineSimulator
from .pipeline import PIPELINE_ENGINES, DynInst, PipelineSimulator, simulate
from .recovery import RecoveryScheme
from .stats import SimStats
from .stream import PredictionOverlay, StreamEntry, predictor_routing, prepare_stream

__all__ = [
    "BranchPredictor",
    "Cache",
    "MemoryHierarchy",
    "CacheConfig",
    "MachineConfig",
    "aggressive_config",
    "table1_config",
    "DynInst",
    "FastDynInst",
    "FastPipelineSimulator",
    "PIPELINE_ENGINES",
    "PipelineSimulator",
    "simulate",
    "RecoveryScheme",
    "SimStats",
    "PredictionOverlay",
    "StreamEntry",
    "predictor_routing",
    "prepare_stream",
]
