"""Engine-level decay: cross-path bit-equality, analytics, sharding, stats."""

import pytest

from repro.config import EngineConfig, create_engine
from repro.datasets import (
    UpdateStream,
    toy_count_query,
    toy_covar_continuous_query,
    toy_database,
    toy_row_factories,
    toy_variable_order,
)
from repro.engine import FIVMEngine
from repro.engine.sharded import available_backends
from repro.errors import EngineError
from repro.rings import payload_drift, result_drift
from tests.conftest import row_mode

needs_process = pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)

# Toy query joins two base relations, so every result summand carries
# exactly two decayed leaf factors.
TOY_LEAVES = 2


def toy_events(total=60, insert_ratio=0.7, seed=13):
    database = toy_database()
    stream = UpdateStream(
        database,
        toy_row_factories(),
        targets=("R", "S"),
        batch_size=6,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    return database, list(stream.tuples(total))


def decayed_engine(decay="0.9/10", config=None):
    config = config or EngineConfig(decay=decay)
    return create_engine(
        toy_covar_continuous_query(), config=config, order=toy_variable_order()
    )


class TestConstruction:
    def test_count_query_refuses_decay(self):
        # Z payloads cannot carry float weights: fail at build, loudly.
        with pytest.raises(EngineError, match="decay"):
            FIVMEngine(
                toy_count_query(),
                order=toy_variable_order(),
                config=EngineConfig(decay="0.9/10"),
            )

    def test_covar_numeric_query_accepts_decay(self):
        engine = decayed_engine()
        assert engine.decay_ring is not None
        assert engine.decay_ring.rate == 0.9

    def test_advance_on_undecayed_engine_refuses(self):
        engine = FIVMEngine(
            toy_covar_continuous_query(), order=toy_variable_order()
        )
        engine.initialize(toy_database())
        with pytest.raises(EngineError, match="decay"):
            engine.advance_decay(1)


class TestAnalyticDecay:
    def test_result_is_undecayed_scaled_by_rate_power(self):
        # Every event lands at tick 0; after d ticks the whole result is
        # the undecayed result times rate^(d * leaves) — the multilinear
        # settle factor, checked analytically.
        database, events = toy_events()
        undecayed = FIVMEngine(
            toy_covar_continuous_query(), order=toy_variable_order()
        )
        undecayed.initialize(database)
        undecayed.apply_stream(iter(events), batch_size=10)
        reference = undecayed.result()

        engine = decayed_engine(decay="0.9/1000000")
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=10)
        ticks = 3
        engine.advance_decay(ticks)
        decayed = engine.result()

        factor = 0.9 ** (ticks * TOY_LEAVES)
        assert set(decayed.data) == set(reference.data)
        for key, payload in reference.data.items():
            expected = reference.ring.scale_float(payload, factor)
            assert payload_drift(decayed.data[key], expected) < 1e-9

    def test_zero_ticks_equals_undecayed(self):
        database, events = toy_events()
        undecayed = FIVMEngine(
            toy_covar_continuous_query(), order=toy_variable_order()
        )
        undecayed.initialize(database)
        undecayed.apply_stream(iter(events), batch_size=10)
        engine = decayed_engine(decay="0.5/1000000")
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=10)
        assert result_drift(engine.result(), undecayed.result()) < 1e-12

    def test_result_settle_is_idempotent(self):
        database, events = toy_events()
        engine = decayed_engine(decay="0.9/1000000")
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=10)
        engine.advance_decay(2)
        first = engine.result().copy()
        # Settling folded the pending ticks in; reading again must not
        # decay the state a second time.
        assert engine.decay_ring.ticks == 0
        assert engine.result() == first


class TestPathEquality:
    def test_per_tuple_and_fused_agree(self):
        # The boost rides the shared multiplicity entry points of both
        # maintenance paths. Batches of 60 events over two relations:
        # every delta is large enough to fuse, and with a non-integer
        # boost the group sums associate differently — float tolerance,
        # not bits (observed drift ~2e-12).
        database, events = toy_events(total=240)
        fused = decayed_engine(decay="0.9/60")
        per_tuple = decayed_engine(decay="0.9/60")
        for engine in (fused, per_tuple):
            engine.initialize(database)
        fused.apply_stream(iter(events), batch_size=60)
        with row_mode():
            per_tuple.apply_stream(iter(events), batch_size=60)
        assert fused.stats.fused_batches > 0
        assert per_tuple.stats.fused_batches == 0
        assert fused.stats.decay_ticks == per_tuple.stats.decay_ticks == 4
        assert result_drift(fused.result(), per_tuple.result()) < 1e-9

    def test_forced_rescale_changes_nothing(self):
        database, events = toy_events()
        plain = decayed_engine(decay="0.9/10")
        plain.initialize(database)
        plain.apply_stream(iter(events), batch_size=10)

        rescaling = decayed_engine(decay="0.9/10")
        rescaling.decay_ring.boost_limit = 1.01  # settle on every tick
        rescaling.initialize(database)
        rescaling.apply_stream(iter(events), batch_size=10)
        assert rescaling.stats.decay_rescales > 0
        assert result_drift(rescaling.result(), plain.result()) < 1e-9


class TestAutoAdvance:
    def test_apply_stream_ticks_every_interval(self):
        database, events = toy_events(total=60)
        engine = decayed_engine(decay="0.9/20")
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=7)
        assert engine.stats.decay_ticks == len(events) // 20
        assert engine.stats.decay_ticks > 0

    def test_interval_crosses_batches(self):
        # Tick positions depend on the event count, not the batching: the
        # pending batch flushes before each tick. Batching still regroups
        # float additions, so the contract across batch sizes is
        # epsilon-closeness (bit-equality holds per batching, see
        # TestPathEquality).
        database, events = toy_events(total=60)
        results = {}
        ticks = set()
        for batch_size in (1, 7, 60):
            engine = decayed_engine(decay="0.9/20")
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=batch_size)
            results[batch_size] = engine.result()
            ticks.add(engine.stats.decay_ticks)
        assert ticks == {len(events) // 20}
        assert results[1].close_to(results[7], 1e-9)
        assert results[7].close_to(results[60], 1e-9)


class TestStateRoundTrip:
    def test_export_settles_and_import_restores(self):
        database, events = toy_events()
        engine = decayed_engine(decay="0.9/10")
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=10)
        expected = engine.result().copy()
        state = engine.export_state()
        assert engine.decay_ring.ticks == 0  # pending decay folded in

        restored = decayed_engine(decay="0.9/10")
        restored.import_state(state)
        assert restored.result() == expected


class TestSharded:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_serial_shards_close_to_unsharded(self, shards):
        # Shards settle locally then merge; the unsharded engine merges
        # then settles. Float multiplication is not distributive to the
        # last bit, so the contract is epsilon-closeness, not equality.
        database, events = toy_events()
        unsharded = decayed_engine(decay="0.9/10")
        unsharded.initialize(database)
        unsharded.apply_stream(iter(events), batch_size=10)
        engine = decayed_engine(
            config=EngineConfig(shards=shards, backend="serial", decay="0.9/10")
        )
        with engine:
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=10)
            assert engine.result().close_to(unsharded.result(), 1e-9)
            assert engine.stats.decay_ticks == unsharded.stats.decay_ticks

    @pytest.mark.slow
    @needs_process
    def test_backends_bit_identical(self):
        # Across backends the arithmetic order is identical, so the
        # stronger bit-equality contract holds shard-count for shard-count.
        database, events = toy_events()
        results = {}
        for backend in ("serial", "process"):
            engine = decayed_engine(
                config=EngineConfig(
                    shards=2, backend=backend, decay="0.9/10"
                )
            )
            with engine:
                engine.initialize(database)
                engine.apply_stream(iter(events), batch_size=10)
                results[backend] = engine.result()
        assert results["serial"] == results["process"]
