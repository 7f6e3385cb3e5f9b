"""The columnar maintenance path and the sharded columnar transport."""

import pickle

import pytest

from repro.data import inserts
from repro.data.delta import delta_of, deletes
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_covar_categorical_query,
    toy_covar_continuous_query,
    toy_database,
    toy_mi_query,
    toy_query,
    toy_row_factories,
    toy_variable_order,
)
from repro.engine import FIVMEngine, NaiveEngine, ShardedEngine
from repro.engine.base import EngineStatistics
from repro.engine.sharded import available_backends
from repro.rings import CountSpec, CovarSpec, Feature, SumSpec
from repro.config import EngineConfig
from tests.conftest import per_tuple_path

R_SCHEMA = ("A", "B")
S_SCHEMA = ("A", "C", "D")


def retailer_setup(seed=5, inventory_rows=250):
    config = RetailerConfig(
        locations=4, dates=6, items=20, inventory_rows=inventory_rows, seed=seed
    )
    database = generate_retailer(config)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory",),
        batch_size=50,
        insert_ratio=0.55,  # delete-heavy once warmed up
        seed=seed,
    )
    return database, stream


def covar_query(limit=2):
    return retailer_query(
        CovarSpec(continuous_covar_features(limit=limit), backend="numeric")
    )


def count_query():
    return retailer_query(CountSpec())


class TestColumnarPathSelection:
    def test_compound_bulk_rings_compile_fused_paths_scalar_rings_do_not(self):
        covar = FIVMEngine(covar_query(), order=retailer_variable_order())
        assert covar._fused_paths  # numeric cofactor: vectorizable
        # Scalar rings keep their dict fast paths at every batch size.
        count = FIVMEngine(count_query(), order=retailer_variable_order())
        assert not count._fused_paths
        # DecayRing declares is_scalar = False even over a sum ring (its
        # payloads carry a boost), so a decayed sum rides the fused path.
        decayed = FIVMEngine(
            retailer_query(SumSpec("inventoryunits")),
            order=retailer_variable_order(),
            config=EngineConfig(decay="0.99/100"),
        )
        assert decayed._fused_paths

    def test_every_cofactor_payload_compiles_but_the_loop_fallback(self):
        # Mixed COVAR and MI ride the sparse ring's kernels; only the
        # cross-validation backend (generic per-payload loops) does not.
        for query in (toy_covar_categorical_query(), toy_mi_query()):
            engine = FIVMEngine(query, order=toy_variable_order())
            assert set(engine._fused_paths) == set(query.relation_names)
        features = (Feature.continuous("B"), Feature.continuous("D"))
        fallback = toy_query(CovarSpec(features, backend="general-float"))
        assert not FIVMEngine(fallback, order=toy_variable_order())._fused_paths

    def test_scalar_rings_stay_on_dict_fast_path(self):
        database, stream = retailer_setup(inventory_rows=1200)
        engine = FIVMEngine(count_query(), order=retailer_variable_order())
        engine.initialize(database)
        engine.apply_stream(stream.tuples(3000), batch_size=1000)
        assert engine.stats.batches_applied >= 3
        assert engine.stats.tuples_applied > 1500
        assert engine.stats.fused_batches == 0
        assert engine.stats.columnar_batches == 0
        assert engine.stats.probe_steps + engine.stats.scan_steps > 0

    def test_size_threshold_is_the_only_dispatch(self):
        """Numeric COVAR: a delta takes the fused program iff it has at
        least COLUMNAR_MIN_DELTA keys, and both counters move together."""
        threshold = EngineStatistics.COLUMNAR_MIN_DELTA
        engine = FIVMEngine(covar_query(), order=retailer_variable_order())
        database, _stream = retailer_setup()
        engine.initialize(database)
        schema = engine.query.schema_of("Inventory").attributes
        expected = 0
        for n in (1, threshold - 1, threshold, threshold + 1, 4 * threshold):
            rows = [(1 + i % 4, 1 + i % 6, 1 + i % 20, float(i)) for i in range(n)]
            delta = inserts(schema, rows)
            assert len(delta.data) == n
            engine.apply("Inventory", delta)
            expected += n >= threshold
            assert engine.stats.fused_batches == expected, n
            assert engine.stats.columnar_batches == expected, n

    def test_small_batches_stay_on_per_tuple_path(self):
        engine = FIVMEngine(covar_query(), order=retailer_variable_order())
        database, _stream = retailer_setup()
        engine.initialize(database)
        row = next(iter(database.relation("Inventory").data))
        engine.apply("Inventory", inserts(engine.query.schema_of("Inventory").attributes, [row]))
        assert engine.stats.columnar_batches == 0
        assert engine.stats.batches_applied == 1


class TestColumnarEquivalence:
    @pytest.mark.parametrize("batch_size", (16, 100))
    def test_covar_stream_matches_per_tuple_and_views_agree(self, batch_size):
        database, stream = retailer_setup()
        events = list(stream.tuples(500))
        columnar = FIVMEngine(covar_query(), order=retailer_variable_order())
        per_tuple = FIVMEngine(covar_query(), order=retailer_variable_order())
        oracle = NaiveEngine(covar_query(), order=retailer_variable_order())
        for engine in (columnar, per_tuple, oracle):
            engine.initialize(database)
        columnar.apply_stream(iter(events), batch_size=batch_size)
        oracle.apply_stream(iter(events), batch_size=batch_size)
        with per_tuple_path():
            per_tuple.apply_stream(iter(events), batch_size=batch_size)
        assert columnar.stats.columnar_batches > 0
        assert columnar.stats.columnar_steps > 0
        assert per_tuple.stats.columnar_batches == 0
        assert columnar.result().close_to(per_tuple.result(), 1e-8)
        assert columnar.result().close_to(oracle.result(), 1e-8)
        for name in columnar.tree.views:
            assert columnar.view(name).close_to(per_tuple.view(name), 1e-8), name
        assert columnar.stats.view_sizes == per_tuple.stats.view_sizes

    def test_integer_valued_covar_matches_oracle_exactly(self):
        # The toy stream's B/C/D values are small integers, so every
        # float sum is exact whatever its association: the fused path,
        # the per-tuple path and re-evaluation agree bit for bit.
        stream = UpdateStream(
            toy_database(), toy_row_factories(), batch_size=64,
            insert_ratio=0.6, seed=8,
        )
        events = list(stream.tuples(400))
        columnar = FIVMEngine(toy_covar_continuous_query(), order=toy_variable_order())
        per_tuple = FIVMEngine(toy_covar_continuous_query(), order=toy_variable_order())
        oracle = NaiveEngine(toy_covar_continuous_query(), order=toy_variable_order())
        for engine in (columnar, per_tuple, oracle):
            engine.initialize(toy_database())
        columnar.apply_stream(iter(events), batch_size=64)
        oracle.apply_stream(iter(events), batch_size=64)
        with per_tuple_path():
            per_tuple.apply_stream(iter(events), batch_size=64)
        assert columnar.stats.columnar_batches > 0
        assert per_tuple.stats.columnar_batches == 0
        assert columnar.result() == oracle.result()
        assert per_tuple.result() == oracle.result()

    def test_cancelling_batch_returns_views_to_start(self):
        engine = FIVMEngine(covar_query(), order=retailer_variable_order())
        database, _stream = retailer_setup()
        engine.initialize(database)
        before = {
            name: {key: engine.plan.ring.copy(p) for key, p in view.data.items()}
            for name, view in engine.materialized.items()
        }
        schema = engine.query.schema_of("Inventory").attributes
        rows = [(100 + i, 1, 1, float(i)) for i in range(EngineStatistics.COLUMNAR_MIN_DELTA)]
        engine.apply("Inventory", inserts(schema, rows))
        assert engine.stats.columnar_batches == 1
        engine.apply("Inventory", deletes(schema, rows))
        assert engine.stats.columnar_batches == 2
        for name, data in before.items():
            after = engine.view(name).data
            assert set(after) == set(data), name
            for key, payload in data.items():
                assert engine.plan.ring.close(after[key], payload, 1e-9)

    def test_columnar_delta_annihilated_mid_join_stops_cleanly(self):
        """A block emptied by a sibling probe must stop before marginalize."""
        engine = FIVMEngine(covar_query(), order=retailer_variable_order())
        database, _stream = retailer_setup()
        engine.initialize(database)
        schema = engine.query.schema_of("Inventory").attributes
        # ksn=9999 exists in no sibling: the V_Item probe wipes the block.
        rows = [(1, 1, 9999, float(i)) for i in range(20)]
        before = engine.result().data
        engine.apply("Inventory", inserts(schema, rows))
        assert engine.stats.columnar_batches == 1
        assert engine.result().data.keys() == before.keys()

    def test_checkpoint_roundtrip_across_columnar_modes(self):
        database, stream = retailer_setup(seed=12)
        events = list(stream.tuples(300))
        source = FIVMEngine(covar_query(), order=retailer_variable_order())
        source.initialize(database)
        source.apply_stream(iter(events[:150]), batch_size=50)
        snapshot = pickle.loads(pickle.dumps(source.export_state()))
        source.apply_stream(iter(events[150:]), batch_size=50)
        # A snapshot written by the fused path resumes on either path.
        for force_per_tuple in (False, True):
            clone = FIVMEngine(covar_query(), order=retailer_variable_order())
            clone.import_state(pickle.loads(pickle.dumps(snapshot)))
            if force_per_tuple:
                with per_tuple_path():
                    clone.apply_stream(iter(events[150:]), batch_size=50)
                assert clone.stats.columnar_batches == snapshot["stats"]["columnar_batches"]
            else:
                clone.apply_stream(iter(events[150:]), batch_size=50)
            assert clone.result().close_to(source.result(), 1e-8)
        assert source.stats.columnar_batches > 0

    def test_columnar_counters_roundtrip_through_snapshot(self):
        database, stream = retailer_setup()
        events = list(stream.tuples(200))
        engine = FIVMEngine(covar_query(), order=retailer_variable_order())
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=100)
        assert engine.stats.columnar_batches > 0
        restored = FIVMEngine(covar_query(), order=retailer_variable_order())
        restored.import_state(engine.export_state())
        assert restored.stats.columnar_batches == engine.stats.columnar_batches
        assert restored.stats.columnar_steps == engine.stats.columnar_steps


class TestColumnarWithToyQueries:
    """Hand-built deltas straddling COLUMNAR_MIN_DELTA on the toy query."""

    def engines(self):
        # Integer-valued B/C/D: numeric COVAR sums are exact, so "==".
        columnar = FIVMEngine(
            toy_covar_continuous_query(), order=toy_variable_order()
        )
        oracle = NaiveEngine(
            toy_covar_continuous_query(), order=toy_variable_order()
        )
        for engine in (columnar, oracle):
            engine.initialize(toy_database())
        return columnar, oracle

    def big_delta(self, n=None, sign=1):
        n = n or EngineStatistics.COLUMNAR_MIN_DELTA + 4
        delta = inserts(R_SCHEMA, [(f"a{i % 7}", i) for i in range(n)])
        return delta if sign > 0 else delta.neg()

    def test_mixed_sizes_and_deletes_match_oracle(self):
        columnar, oracle = self.engines()
        steps = [
            ("R", self.big_delta()),
            ("S", inserts(S_SCHEMA, [("a1", 1, 2), ("a2", 3, 3)])),
            ("R", self.big_delta(sign=-1)),
            ("R", delta_of(R_SCHEMA, inserted=[("a1", 500)])),
        ]
        for name, delta in steps:
            columnar.apply(name, delta.copy())
            oracle.apply(name, delta.copy())
            assert columnar.result() == oracle.result()
        assert columnar.stats.columnar_batches == 2  # only the big R deltas

    def test_batch_with_internal_cancellation(self):
        columnar, oracle = self.engines()
        n = EngineStatistics.COLUMNAR_MIN_DELTA
        delta = inserts(R_SCHEMA, [(f"a{i}", i) for i in range(n)])
        delta.add_inplace(deletes(R_SCHEMA, [(f"a{i}", i) for i in range(0, n, 2)]))
        columnar.apply("R", delta.copy())
        oracle.apply("R", delta.copy())
        assert columnar.result() == oracle.result()


@pytest.mark.parametrize("backend", available_backends())
class TestColumnarTransport:
    def test_shard_counts_agree(self, backend):
        database, stream = retailer_setup(seed=21)
        events = list(stream.tuples(400))
        reference = None
        for shards in (1, 3):
            engine = ShardedEngine(
                covar_query(),
                order=retailer_variable_order(),
                config=EngineConfig(shards=shards, backend=backend),
            )
            try:
                engine.initialize(database)
                engine.apply_stream(iter(events), batch_size=50)
                result = engine.result()
            finally:
                engine.close()
            if reference is None:
                reference = result
            else:
                assert result.close_to(reference, 1e-8), (backend, shards)

    def test_fused_snapshot_restores_into_sharded_engine(self, backend):
        """A snapshot a fused COVAR engine wrote mid-stream resumes on a
        2-shard engine and lands where uninterrupted ingestion does."""
        database, stream = retailer_setup(seed=12)
        events = list(stream.tuples(300))
        source = FIVMEngine(covar_query(), order=retailer_variable_order())
        source.initialize(database)
        source.apply_stream(iter(events[:150]), batch_size=50)
        assert source.stats.fused_batches > 0
        snapshot = pickle.loads(pickle.dumps(source.export_state()))
        source.apply_stream(iter(events[150:]), batch_size=50)
        engine = ShardedEngine(
            covar_query(),
            order=retailer_variable_order(),
            config=EngineConfig(shards=2, backend=backend),
        )
        with engine:
            engine.import_state(snapshot)
            engine.apply_stream(iter(events[150:]), batch_size=50)
            assert engine.result().close_to(source.result(), 1e-8)

    def test_count_ring_transport_exact(self, backend):
        database, stream = retailer_setup(seed=23)
        events = list(stream.tuples(300))
        oracle = FIVMEngine(
            retailer_query(CountSpec()), order=retailer_variable_order()
        )
        oracle.initialize(database)
        oracle.apply_stream(iter(events), batch_size=64)
        engine = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=EngineConfig(shards=2, backend=backend),
        )
        try:
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=64)
            assert engine.result() == oracle.result()
        finally:
            engine.close()
