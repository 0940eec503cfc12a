"""Soundness of the session's timing memo (``ExperimentRunner.run``).

A timing run is memoized under five parts (:class:`TimingKey`): the stream's
content key, the predictor's class and ``timing_key()``, the routing, the
machine and the recovery scheme.  For each part, a pair of real figure cells
differs in that part alone.  Dropping the part from the key makes the second
cell of its pair return the first cell's counters; the real key returns the
counters of a direct, unmemoized ``simulate()`` call.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import pytest

import repro.core.experiment as experiment
from repro.core import ExperimentRunner, SimSession, get_metrics
from repro.core.session import timing_key
from repro.uarch.config import aggressive_config
from repro.uarch.pipeline import simulate
from repro.uarch.recovery import RecoveryScheme
from repro.uarch.stream import predictor_routing
from repro.vp.base import NoPredictor, SourceKind
from repro.vp.gabbay import GabbayRegisterPredictor
from repro.vp.lvp import LastValuePredictor
from repro.vp.rvp import DynamicRVP

BUDGET = 1_500
SELECTIVE = RecoveryScheme.SELECTIVE

#: (workload, config, recovery, threshold, wide)
Cell = Tuple[str, str, RecoveryScheme, Optional[float], bool]

#: key part -> two cells that differ in that part alone
PAIRS: Dict[str, Tuple[Cell, Cell]] = {
    "stream": (
        ("m88ksim", "no_predict", SELECTIVE, None, False),
        ("li", "no_predict", SELECTIVE, None, False),
    ),
    "predictor": (
        ("m88ksim", "grp_all", SELECTIVE, None, False),
        ("m88ksim", "drvp_all", SELECTIVE, None, False),
    ),
    "routing": (
        ("m88ksim", "drvp", SELECTIVE, None, False),
        ("m88ksim", "drvp_all", SELECTIVE, None, False),
    ),
    "machine": (
        ("m88ksim", "drvp_all", SELECTIVE, None, False),
        ("m88ksim", "drvp_all", SELECTIVE, None, True),
    ),
    "recovery": (
        ("m88ksim", "srvp_dead", RecoveryScheme.REFETCH, 0.9, False),
        ("m88ksim", "srvp_dead", RecoveryScheme.REISSUE, 0.9, False),
    ),
}

#: Predictors whose state has not been audited for memoization.
UNMEMOIZED_CONFIGS = ("stride", "stride_all", "context", "context_all", "memren")


def _runner(session: SimSession, cell: Cell) -> ExperimentRunner:
    workload, _, _, _, wide = cell
    machine = aggressive_config() if wide else None
    return ExperimentRunner(workload, machine=machine, max_instructions=BUDGET, session=session)


def _memoized(session: SimSession, cell: Cell) -> Dict[str, int]:
    _, config, recovery, threshold, _ = cell
    return _runner(session, cell).run(config, recovery=recovery, threshold=threshold).stats.counters()


def _direct(cell: Cell) -> Dict[str, int]:
    _, config, recovery, threshold, _ = cell
    runner = _runner(SimSession(), cell)
    stream, predictor = runner.pipeline_stream(config, threshold)
    return simulate(None, predictor, runner.machine, recovery, stream=stream).counters()


@pytest.mark.parametrize("part", sorted(PAIRS))
def test_pair_differs_in_that_part_alone(part):
    """The pair's two real keys differ in ``part`` and in nothing else."""
    keys = []
    session = SimSession()
    for cell in PAIRS[part]:
        _, config, recovery, threshold, _ = cell
        runner = _runner(session, cell)
        variant, predictor = runner._build(config, threshold)
        where = runner._where(variant, threshold)
        routing = predictor_routing(session.program_variant(*where).instructions, predictor)
        keys.append(timing_key(session.content_key(*where), predictor, routing, runner.machine, recovery))
    first, second = keys
    assert [name for name in first._fields if getattr(first, name) != getattr(second, name)] == [part]


@pytest.mark.parametrize("part", sorted(PAIRS))
def test_dropping_a_key_part_returns_wrong_counters(part, monkeypatch):
    def weakened(*args):
        key = timing_key(*args)
        return None if key is None else key._replace(**{part: None})

    monkeypatch.setattr(experiment, "timing_key", weakened)
    first, second = PAIRS[part]
    wrong, expected = _direct(first), _direct(second)
    assert wrong != expected, "the pair must time differently"
    session = SimSession()
    _memoized(session, first)
    assert _memoized(session, second) == wrong


@pytest.mark.parametrize("part", sorted(PAIRS))
def test_real_key_returns_direct_simulate_counters(part):
    first, second = PAIRS[part]
    session = SimSession()
    metrics = get_metrics()
    hits = metrics.get("session.timing.hits")
    assert _memoized(session, first) == _direct(first)
    assert _memoized(session, second) == _direct(second)
    assert metrics.get("session.timing.hits") == hits
    assert session.cache_stats()["timing_runs"] == 2


def test_hit_copies_stats_and_replays_predictor_metrics():
    session = SimSession()
    metrics = get_metrics()
    runner = ExperimentRunner("go", max_instructions=BUDGET, session=session)
    first = runner.run("drvp_all").stats
    runs = metrics.get("pipeline.runs")
    predictions = metrics.get("predictor.drvp_all.predictions")
    hits = metrics.get("session.timing.hits")

    second = runner.run("drvp_all").stats
    assert second is not first and second.counters() == first.counters()
    assert metrics.get("session.timing.hits") == hits + 1
    assert metrics.get("pipeline.runs") == runs  # no engine ran
    assert metrics.get("predictor.drvp_all.predictions") == predictions + first.predictions > predictions

    second.cycles = -1  # a caller's edit must not leak into the memo
    assert runner.run("drvp_all").stats.counters() == first.counters()


def test_no_candidate_routing_uses_no_predict_key():
    args = (("go", 1.0, BUDGET, 0, "ref"), (), aggressive_config(), SELECTIVE)
    no_predict = timing_key(args[0], NoPredictor(), *args[1:])
    assert timing_key(args[0], LastValuePredictor(), *args[1:]) == no_predict
    routing = ((3, SourceKind.STORED, None),)
    assert timing_key(args[0], LastValuePredictor(), routing, *args[2:]) != no_predict


#: predictor class -> constructor arguments that each change its run-time state
STATE_ARGS = {
    DynamicRVP: ({"entries": 64}, {"threshold": 4}, {"tagged": True}),
    LastValuePredictor: ({"entries": 64}, {"threshold": 4}, {"tagged": False}),
    GabbayRegisterPredictor: ({"threshold": 4},),
}


@pytest.mark.parametrize("cls", sorted(STATE_ARGS, key=lambda cls: cls.__name__))
def test_state_shaping_arguments_split_the_key(cls):
    """The named configurations all build default-argument predictors, so the
    cell pairs above never vary ``timing_key()`` within one class: check
    here that every state-shaping argument reaches the memo key."""
    args = (("go", 1.0, BUDGET, 0, "ref"), ((3, SourceKind.DST, None),), aggressive_config(), SELECTIVE)
    default = timing_key(args[0], cls(), *args[1:])
    for kwargs in STATE_ARGS[cls]:
        assert timing_key(args[0], cls(**kwargs), *args[1:]) != default, kwargs


def test_confidence_threshold_changes_the_counters():
    """A real run shows the threshold split above is needed: on one stream
    and routing, ``DynamicRVP(threshold=...)`` times differently."""
    runner = _runner(SimSession(), ("m88ksim", "drvp_all", SELECTIVE, None, False))
    stream = runner.pipeline_stream("drvp_all")[0]
    default, strict = (
        simulate(None, DynamicRVP(**kwargs), runner.machine, SELECTIVE, stream=stream).counters()
        for kwargs in ({}, {"threshold": 2})
    )
    assert default != strict


@pytest.mark.parametrize("config", UNMEMOIZED_CONFIGS)
def test_unaudited_predictors_never_hit(config):
    session = SimSession()
    metrics = get_metrics()
    runner = ExperimentRunner("go", max_instructions=BUDGET, session=session)
    assert runner._build(config, None)[1].timing_key() is None
    hits, misses = metrics.get("session.timing.hits"), metrics.get("session.timing.misses")
    runs = metrics.get("pipeline.runs")
    first = runner.run(config).stats.counters()
    assert runner.run(config).stats.counters() == first
    assert metrics.get("pipeline.runs") == runs + 2
    assert (metrics.get("session.timing.hits"), metrics.get("session.timing.misses")) == (hits, misses)
    assert session.cache_stats()["timing_runs"] == 0
