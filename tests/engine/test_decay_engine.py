"""Engine-level decay: the clock, analytics, cross-path equality,
sharding, stats.

Decay is the engine's: ``FIVMEngine`` keeps the rate, the pending ticks
and the boost ``rate ** -ticks`` its compiled leaf lifts multiply into
new payloads, and settles the views at read time. The ring stays the
query's, so a decayed sum keeps dict views and, at zero ticks, equals
the undecayed engine exactly.
"""

from unittest import mock

import pytest

from repro.config import EngineConfig, create_engine
from repro.data import Relation
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_covar_continuous_query,
    toy_database,
    toy_query,
    toy_row_factories,
    toy_variable_order,
)
from repro.engine import FIVMEngine
from repro.engine.sharded import available_backends
from repro.errors import EngineError
from repro.rings import (
    BoolRing,
    CountSpec,
    MinPlusRing,
    SumProductSpec,
    SumSpec,
    result_drift,
)
from tests.conftest import row_mode

needs_process = pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)

# Toy query joins two base relations, so every result summand carries
# exactly two decayed leaf factors.
TOY_LEAVES = 2
#: A decay interval no stream here reaches: no tick unless advanced.
NEVER = "1000000"
RETAILER = RetailerConfig(locations=4, dates=6, items=20, inventory_rows=300, seed=11)


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


def toy_scenario(total=60):
    database, events = toy_events(total)
    return toy_covar_continuous_query, toy_variable_order, database, events, TOY_LEAVES


def retailer_scenario(spec, total=2000):
    """A SUM-like query over the five retailer relations (five leaves)."""
    database = generate_retailer(RETAILER)
    stream = UpdateStream(
        database, retailer_row_factories(RETAILER, database),
        batch_size=100, insert_ratio=0.7, seed=3,
    )
    events = list(stream.tuples(total))
    return lambda: retailer_query(spec), retailer_variable_order, database, events, 5


#: ``name -> () -> (query factory, order factory, database, events,
#: leaves)``: numeric COVAR on slot stores, and a sum and a sum of
#: products on dict views.
SCENARIOS = {
    "toy-covar": toy_scenario,
    "retailer-sum": lambda: retailer_scenario(SumSpec("prize")),
    "retailer-sumproduct": lambda: retailer_scenario(
        SumProductSpec((("prize", 1), ("inventoryunits", 1)))
    ),
}


def fed(scenario, decay=None, batch_size=10):
    """An engine of ``scenario`` fed its whole stream."""
    make_query, make_order, database, events, _leaves = scenario
    config = EngineConfig(decay=decay) if decay else None
    engine = create_engine(make_query(), config=config, order=make_order())
    engine.initialize(database)
    engine.apply_stream(iter(events), batch_size=batch_size)
    return engine


def scaled(relation, factor):
    ring = relation.ring
    return Relation(
        relation.schema, ring,
        {key: ring.scale_float(payload, factor) for key, payload in relation.data.items()},
    )


class TestConstruction:
    @pytest.mark.parametrize(
        "spec", [CountSpec(), CountSpec(ring=BoolRing()), CountSpec(ring=MinPlusRing())],
        ids=["Z", "bool", "minplus"],
    )
    def test_exact_rings_refuse_decay(self, spec):
        # Exact payloads cannot carry float weights: fail at build, loudly.
        with pytest.raises(EngineError, match="decay.*cannot scale payloads by a float"):
            FIVMEngine(
                toy_query(spec),
                order=toy_variable_order(),
                config=EngineConfig(decay="0.9/10"),
            )

    def test_covar_numeric_query_accepts_decay(self):
        engine = decayed_engine()
        assert engine.decay_rate == 0.9
        assert engine.pending_ticks == 0 and engine.boost == 1.0

    def test_advance_on_undecayed_engine_refuses(self):
        engine = FIVMEngine(
            toy_covar_continuous_query(), order=toy_variable_order()
        )
        engine.initialize(toy_database())
        with pytest.raises(EngineError, match="decay"):
            engine.advance_decay(1)


class TestClock:
    def test_boost_is_inverse_rate_power(self):
        engine = decayed_engine(decay=f"0.5/{NEVER}")
        engine.initialize(toy_database())
        engine.advance_decay(2)
        assert engine.pending_ticks == 2 and engine.boost == 0.5 ** -2
        assert engine.stats.decay_ticks == 2

    def test_advance_rejects_negative(self):
        engine = decayed_engine()
        engine.initialize(toy_database())
        with pytest.raises(EngineError, match="backwards"):
            engine.advance_decay(-1)

    def test_boost_over_the_limit_settles(self):
        engine = decayed_engine(decay=f"0.5/{NEVER}")
        engine.initialize(toy_database())
        with mock.patch.object(FIVMEngine, "BOOST_LIMIT", 10.0):
            engine.advance_decay(3)  # boost 8 <= 10
            assert engine.pending_ticks == 3 and engine.stats.decay_rescales == 0
            engine.advance_decay(1)  # boost 16 > 10: settled
        assert engine.pending_ticks == 0 and engine.boost == 1.0
        assert engine.stats.decay_rescales == engine.stats.decay_settles == 1

    def test_event_weight_is_rate_to_the_ticks_since_it_arrived(self):
        """Tuples loaded at tick 0 and read at tick 5 weigh λ^5 per leaf
        factor; an insert at tick 2 weighs λ^3. Rate 1/2: every weight
        is a power of two, so the law holds exactly."""
        query = toy_query(SumSpec("D"))
        database, events = toy_events(total=12, insert_ratio=1.0)
        engine = FIVMEngine(
            query, order=toy_variable_order(), config=EngineConfig(decay=f"0.5/{NEVER}")
        )
        before = FIVMEngine(query, order=toy_variable_order())
        after = FIVMEngine(query, order=toy_variable_order())
        for each in (engine, before, after):
            each.initialize(database)
        delta = [event for event in events if event[0] == "R"]
        engine.advance_decay(2)
        engine.apply_stream(iter(delta), batch_size=len(delta))
        after.apply_stream(iter(delta), batch_size=len(delta))
        engine.advance_decay(3)
        old, new = before.result(), after.result()
        # Old joined tuples carry two tick-0 factors (λ^5 each); new ones
        # one tick-2 R factor (λ^3) and one tick-0 S factor (λ^5).
        expected = {
            key: old.data.get(key, 0.0) * 0.5 ** 10
            + (new.data.get(key, 0.0) - old.data.get(key, 0.0)) * 0.5 ** 8
            for key in set(old.data) | set(new.data)
        }
        assert engine.result().data == {k: v for k, v in expected.items() if v}


class TestAnalyticDecay:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_result_is_undecayed_scaled_by_rate_power(self, name):
        # Every event lands at tick 0; after d ticks the whole result is
        # the undecayed result times rate^(d * leaves) — the multilinear
        # settle factor, checked analytically.
        scenario = SCENARIOS[name]()
        reference = fed(scenario).result()
        engine = fed(scenario, decay=f"0.9/{NEVER}")
        ticks = 3
        engine.advance_decay(ticks)
        factor = 0.9 ** (ticks * scenario[4])
        decayed = engine.result()
        assert set(decayed.data) == set(reference.data)
        # Largest absolute component difference, on every scenario
        # (observed 0.0 on all three).
        assert result_drift(decayed, scaled(reference, factor)) < 1e-9

    @pytest.mark.parametrize("batch_size", [1, 100, 1000])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_zero_ticks_equals_undecayed(self, name, batch_size):
        """Before any tick the boost is 1.0 and the ring is the query's:
        every view — stored or re-derived — is the undecayed engine's,
        bit for bit, whatever the batch size."""
        scenario = SCENARIOS[name]()
        undecayed = fed(scenario, batch_size=batch_size)
        engine = fed(scenario, decay=f"0.5/{NEVER}", batch_size=batch_size)
        assert engine.stats.decay_ticks == 0
        assert engine._stored == undecayed._stored
        assert engine.export_state()["views"] == undecayed.export_state()["views"]

    def test_result_settle_is_idempotent(self):
        database, events = toy_events()
        engine = decayed_engine(decay=f"0.9/{NEVER}")
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=10)
        engine.advance_decay(2)
        first = engine.result().copy()
        # Settling folded the pending ticks in; reading again must not
        # decay the state a second time.
        assert engine.pending_ticks == 0
        assert engine.result() == first


class TestPathEquality:
    def test_per_tuple_and_fused_agree(self):
        # The boost rides the leaf lift of both modes of the compiled
        # program. Batches of 60 events over two relations: every delta
        # is large enough to fuse, and with a non-integer boost the
        # group sums associate differently — float tolerance, not bits
        # (observed drift ~2e-12).
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

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_forced_rescale_changes_nothing(self, name):
        """Settling on every tick — slot stores rescaled in one block,
        dict-view payloads replaced and their probed indexes rebuilt, with
        deltas probing them in between — ends where lazy settling does."""
        scenario = SCENARIOS[name]()
        every = max(1, len(scenario[3]) // 6)
        plain = fed(scenario, decay=f"0.9/{every}")
        with mock.patch.object(FIVMEngine, "BOOST_LIMIT", 1.01):
            rescaling = fed(scenario, decay=f"0.9/{every}")
        assert rescaling.stats.decay_rescales == rescaling.stats.decay_ticks > 0
        assert plain.stats.decay_rescales == 0
        # Largest absolute component difference, on every scenario
        # (observed ~2e-13 toy COVAR, ~1e-11 sum, ~4e-10 sum of products
        # whose result is ~6e6).
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
        assert engine.pending_ticks == 0  # pending decay folded in

        restored = decayed_engine(decay="0.9/10")
        restored.import_state(state)
        assert restored.result() == expected

    def test_import_restarts_the_clock(self):
        # A snapshot is settled state: restoring it into an engine with
        # pending ticks must not decay it by them.
        database, events = toy_events()
        engine = decayed_engine(decay=f"0.5/{NEVER}")
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=10)
        engine.advance_decay(1)
        state = engine.export_state()
        expected = engine.result().copy()
        engine.advance_decay(3)
        engine.import_state(state)
        assert engine.pending_ticks == 0 and engine.boost == 1.0
        assert engine.result() == expected

    def test_a_decayed_sum_restores_and_resumes(self):
        # A sum's payloads have no feature support to re-express: its
        # snapshot restores as written, and both engines go on alike.
        query = toy_query(SumSpec("D"))
        database, events = toy_events(total=120)
        config = EngineConfig(decay="0.9/10")
        engine = FIVMEngine(query, order=toy_variable_order(), config=config)
        engine.initialize(database)
        engine.apply_stream(iter(events[:60]), batch_size=10)
        restored = FIVMEngine(query, order=toy_variable_order(), config=config)
        restored.import_state(engine.export_state())
        for each in (engine, restored):
            each.apply_stream(iter(events[60:]), batch_size=10)
        assert restored.stats.decay_ticks == engine.stats.decay_ticks == 12
        assert restored.export_state()["views"] == engine.export_state()["views"]


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
