"""ShardRouter: stable hashing, delta splitting, database partitioning."""

import pytest

from repro.data import Relation, ShardRouter, shard_hash
from repro.datasets import (
    RetailerConfig,
    generate_retailer,
    retailer_query,
    retailer_variable_order,
    toy_count_query,
    toy_variable_order,
)
from repro.errors import DataError
from repro.rings import CountSpec
from repro.viewtree import build_shard_plan, build_view_tree

SCHEMAS = {
    "R": ("A", "B"),
    "S": ("A", "C", "D"),
    "T": ("C", "E"),
}


def make_router(shards=4, attrs=("A",)):
    return ShardRouter(SCHEMAS, attrs, shards)


class TestShardHash:
    def test_deterministic_across_calls(self):
        assert shard_hash(("a1", 3)) == shard_hash(("a1", 3))

    def test_value_types(self):
        # ints, floats and strings all hash without error, and by value.
        assert shard_hash((1,)) != shard_hash((2,))
        assert shard_hash((1.5,)) == shard_hash((1.5,))
        assert shard_hash(("x",)) == shard_hash(("x",))

    def test_equal_keys_hash_equal_across_types(self):
        # Relation dicts treat 1 and 1.0 as one key; routing must too,
        # or a delete carrying 1.0 misses the shard that holds 1.
        assert shard_hash((1,)) == shard_hash((1.0,))
        assert shard_hash((-3,)) == shard_hash((-3.0,))
        assert shard_hash((True,)) == shard_hash((1,))

    def test_sequential_ints_balance(self):
        shards = [shard_hash((i,)) % 4 for i in range(64)]
        counts = [shards.count(s) for s in range(4)]
        assert min(counts) > 0, f"unbalanced: {counts}"


class TestShardRouter:
    def test_routed_and_broadcast_sets(self):
        router = make_router()
        assert set(router.routed) == {"R", "S"}
        assert set(router.broadcast) == {"T"}

    def test_shard_of_is_row_content_only(self):
        router = make_router()
        # Same A value -> same shard regardless of the other attributes,
        # so a delete always follows its insert.
        assert router.shard_of("R", ("a1", 7)) == router.shard_of("R", ("a1", 99))
        assert router.shard_of("R", ("a1", 0)) == router.shard_of("S", ("a1", 1, 2))

    def test_broadcast_shard_is_none(self):
        router = make_router()
        assert router.shard_of("T", (3, 4)) is None
        assert not router.is_routed("T")

    def test_split_partitions_delta_exactly(self):
        router = make_router()
        delta = Relation(SCHEMAS["R"], name="R")
        delta.data = {(f"a{i}", i): (1 if i % 2 else -1) for i in range(20)}
        parts = router.split("R", delta)
        merged = {}
        for shard, sub in parts:
            assert 0 <= shard < router.shards
            for key, mult in sub.data.items():
                assert key not in merged, "key routed to two shards"
                assert router.shard_of("R", key) == shard
                merged[key] = mult
        assert merged == delta.data

    def test_split_broadcast_hits_every_shard(self):
        router = make_router()
        delta = Relation(SCHEMAS["T"], name="T")
        delta.data = {(1, 2): 1}
        parts = router.split("T", delta)
        assert [shard for shard, _ in parts] == [0, 1, 2, 3]
        assert all(sub.data == delta.data for _, sub in parts)

    def test_split_single_shard_short_circuit(self):
        router = make_router(shards=1)
        delta = Relation(SCHEMAS["R"], name="R")
        delta.data = {("a1", 1): 1}
        assert router.split("R", delta) == [(0, delta)]
        assert router.split("R", Relation(SCHEMAS["R"], name="R")) == []

    def test_partition_database_disjoint_union(self):
        config = RetailerConfig(
            locations=6, dates=8, items=20, inventory_rows=300, seed=3
        )
        database = generate_retailer(config)
        schemas = {rel.name: rel.schema for rel in database}
        router = ShardRouter(schemas, ("locn",), 3)
        partitions = router.partition_database(database)
        assert len(partitions) == 3
        for name in router.routed:
            merged = {}
            for part in partitions:
                slice_data = part.relation(name).data
                assert not (set(merged) & set(slice_data)), "overlapping slices"
                merged.update(slice_data)
            assert merged == database.relation(name).data
        for name in router.broadcast:
            original = database.relation(name)
            for part in partitions:
                replica = part.relation(name)
                assert replica.data == original.data
                assert replica.data is not original.data, "replica aliases original"

    def test_unknown_relation_raises(self):
        router = make_router()
        with pytest.raises(DataError):
            router.shard_of("Nope", (1,))

    def test_rejects_attrs_partitioning_nothing(self):
        with pytest.raises(DataError):
            ShardRouter(SCHEMAS, ("Z",), 2)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(DataError):
            make_router(shards=0)


class TestBuildShardPlan:
    def test_retailer_plan_picks_locn(self):
        tree = build_view_tree(
            retailer_query(CountSpec()), order=retailer_variable_order()
        )
        plan = build_shard_plan(tree)
        assert plan.attrs == ("locn",)
        assert set(plan.routed) == {"Inventory", "Location", "Weather"}
        assert set(plan.broadcast) == {"Census", "Item"}

    def test_toy_plan_routes_both_relations(self):
        tree = build_view_tree(toy_count_query(), order=toy_variable_order())
        plan = build_shard_plan(tree)
        assert plan.attrs == ("A",)
        assert set(plan.routed) == {"R", "S"}
        assert plan.broadcast == ()

    def test_shard_key_is_derived_not_chosen(self):
        tree = build_view_tree(toy_count_query(), order=toy_variable_order())
        with pytest.raises(TypeError, match="attrs"):
            build_shard_plan(tree, attrs=("A",))
