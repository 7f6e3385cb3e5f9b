"""Every engine agrees on the serving scenario's stream, however it arrives.

F-IVM, the first-order and the naive baselines, and a sharded F-IVM
maintain the Retailer count query of ``build_serving_scenario`` under the
same seeded batches: applied as batches, one single-tuple delta at a
time, or as single-tuple events the engine's batcher coalesces again —
and under a sliding window. Decayed COVAR runs only on F-IVM, sharded
and unsharded. What the benchmarks time (``bench/run.py --trace 1``,
``benchmarks/``) is checked here for agreement and for the stage
counters a profiled run records.
"""

import pytest

from repro.config import EngineConfig
from repro.data import WindowedStream, single, tuple_events
from repro.datasets import toy_count_query, toy_database, toy_variable_order
from repro.engine import FIVMEngine, FirstOrderEngine, NaiveEngine, ShardedEngine
from repro.query import Query
from repro.rings import CovarSpec, result_drift
from repro.serving import build_serving_scenario

BATCH = 50
ENGINES = (FIVMEngine, FirstOrderEngine, NaiveEngine)


@pytest.fixture(scope="module")
def count_scenario():
    scenario = build_serving_scenario("retailer", "count", scale=1, seed=3)
    batches = list(scenario.stream(batch_size=BATCH, insert_ratio=0.7).batches(2))
    return scenario, batches


def ingest(engine, batches, mode):
    if mode == "batch":
        engine.apply_batch(batches)
    elif mode == "tuple":
        schemas = {name: delta.schema for name, delta in batches}
        engine.apply_batch(
            (name, single(schemas[name], row, step))
            for name, row, step in tuple_events(batches)
        )
    else:
        engine.apply_stream(tuple_events(batches), batch_size=BATCH)


def maintained(cls, scenario, batches, mode="batch"):
    engine = cls(scenario.query, order=scenario.order)
    engine.initialize(scenario.database)
    ingest(engine, batches, mode)
    return engine.result()


@pytest.mark.parametrize("mode", ["batch", "tuple", "stream"])
def test_engines_agree_in_every_ingest_mode(count_scenario, mode):
    scenario, batches = count_scenario
    reference = maintained(FIVMEngine, scenario, batches)
    for cls in ENGINES:
        assert maintained(cls, scenario, batches, mode) == reference, cls.strategy


def test_sharded_engine_agrees(count_scenario):
    scenario, batches = count_scenario
    config = EngineConfig(shards=2, backend="serial")
    with ShardedEngine(scenario.query, order=scenario.order, config=config) as engine:
        engine.initialize(scenario.database)
        engine.apply_batch(batches)
        assert engine.result() == maintained(FIVMEngine, scenario, batches)


def test_engines_agree_on_a_sliding_window(count_scenario):
    # Retractions are plain deltas: the baselines take the windowed
    # compilation without an EngineConfig.
    scenario, batches = count_scenario
    config = EngineConfig(window="sliding:40/20")
    results = []
    for cls in ENGINES:
        engine = cls(scenario.query, order=scenario.order)
        engine.initialize(scenario.database)
        events = WindowedStream(config.window_spec(), tuple_events(batches))
        engine.apply_stream(events, batch_size=BATCH)
        results.append(engine.result())
    assert results[0] == results[1] == results[2]
    assert results[0] != maintained(FIVMEngine, scenario, batches)


def test_profile_times_the_count_run_in_row_mode(count_scenario):
    scenario, batches = count_scenario
    engine = FIVMEngine(scenario.query, order=scenario.order)
    engine.profile_stages = True
    engine.initialize(scenario.database)
    engine.apply_batch(batches)
    assert engine.stats.fused_batches == 0
    assert {"lift", "probe", "group", "scatter"} <= set(engine.stats.stage_seconds)


@pytest.fixture(scope="module")
def decayed_covar():
    """The numeric COVAR ring over the scenario's continuous features:
    decay needs float-weighted payloads."""
    scenario = build_serving_scenario("retailer", "covar", scale=1, seed=3)
    features = tuple(f for f in scenario.query.spec.features if not f.is_categorical)
    query = Query(scenario.query.name, scenario.query.relations, spec=CovarSpec(features))
    batches = list(scenario.stream(batch_size=BATCH, insert_ratio=0.7).batches(2))
    return scenario, query, batches


def decayed(scenario, query, batches, config):
    engine = FIVMEngine(query, order=scenario.order, config=config)
    engine.profile_stages = True
    engine.initialize(scenario.database)
    engine.apply_stream(tuple_events(batches), batch_size=BATCH)
    return engine


def test_profile_times_the_fused_decayed_covar_run(decayed_covar):
    scenario, query, batches = decayed_covar
    engine = decayed(scenario, query, batches, EngineConfig(decay="0.98/50"))
    assert engine.stats.fused_batches == 2
    assert {"lift", "probe", "scatter"} <= set(engine.stats.stage_seconds)
    assert engine.stats.decay_ticks > 0
    undecayed = decayed(scenario, query, batches, EngineConfig())
    assert result_drift(engine.result(), undecayed.result()) > 0


def test_sharded_decay_matches_unsharded_to_rounding(decayed_covar):
    # Sharded decay settles per shard before merging; float multiply does
    # not distribute bit-exactly over add.
    scenario, query, batches = decayed_covar
    config = EngineConfig(decay="0.98/50")
    single_engine = decayed(scenario, query, batches, config)
    sharded_config = config.replace(shards=2, backend="serial")
    with ShardedEngine(query, order=scenario.order, config=sharded_config) as engine:
        engine.initialize(scenario.database)
        engine.apply_stream(tuple_events(batches), batch_size=BATCH)
        assert engine.result().close_to(single_engine.result(), 1e-9)


@pytest.mark.parametrize("cls", ENGINES, ids=lambda cls: cls.strategy)
def test_an_empty_bulk_changes_nothing(cls):
    engine = cls(toy_count_query(), order=toy_variable_order())
    engine.initialize(toy_database())
    engine.apply_batch([])
    assert engine.result().payload(()) == 3
    assert engine.stats.updates_applied == 0


@pytest.mark.parametrize("cls", ENGINES, ids=lambda cls: cls.strategy)
def test_maintenance_leaves_the_loaded_database_alone(cls, count_scenario):
    # The update stream keeps its own shadow copy, and no engine writes
    # into the database it was initialized from.
    scenario, _batches = count_scenario
    database = scenario.database
    before = {relation.name: dict(relation.data) for relation in database}
    batches = list(scenario.stream(batch_size=BATCH, insert_ratio=0.7, seed=9).batches(2))
    engine = cls(scenario.query, order=scenario.order)
    engine.initialize(database)
    engine.apply_batch(batches)
    after = {relation.name: dict(relation.data) for relation in database}
    assert after == before
