"""UpdateBatcher: coalescing semantics, flush policies, and the guarantee
that batched ingestion matches tuple-at-a-time ingestion on every engine."""

import pytest

from repro.data import Relation, UpdateBatcher, batch_events, single
from repro.datasets import (
    toy_covar_continuous_query,
    toy_database,
    toy_query,
    toy_variable_order,
)
from repro.engine import (
    FIVMEngine,
    FirstOrderEngine,
    NaiveEngine,
    PerAggregateEngine,
)
from repro.errors import DataError
from repro.rings import CountSpec, Feature

SCHEMAS = {"R": ("A", "B"), "S": ("A", "C", "D")}


@pytest.fixture
def batcher():
    return UpdateBatcher(SCHEMAS, batch_size=1000)


class TestCoalescing:
    def test_duplicate_keys_merge(self, batcher):
        for _ in range(3):
            batcher.add("R", ("a1", 1))
        batcher.add("R", ("a2", 2), -2)
        [(name, delta)] = batcher.flush()
        assert name == "R"
        assert delta.data == {("a1", 1): 3, ("a2", 2): -2}

    def test_insert_delete_pairs_cancel(self, batcher):
        batcher.add("R", ("a1", 1), +1)
        batcher.add("R", ("a1", 1), -1)
        assert batcher.pending_tuples == 0
        assert batcher.flush() == []
        assert batcher.batches_emitted == 0

    def test_cancelled_updates_still_count_toward_batch_size(self):
        batcher = UpdateBatcher(SCHEMAS, batch_size=2)
        assert batcher.add("R", ("a1", 1), +1) is None
        # The pair cancels, but two updates were absorbed: the flush fires
        # (and emits nothing), resetting the window.
        assert batcher.add("R", ("a1", 1), -1) is None
        assert batcher.pending_updates == 0

    def test_multiplicity_zero_is_a_noop(self, batcher):
        assert batcher.add("R", ("a1", 1), 0) is None
        assert batcher.pending_updates == 0

    def test_relations_flush_in_first_touched_order(self, batcher):
        batcher.add("S", ("a1", 1, 1))
        batcher.add("R", ("a1", 1))
        batcher.add("S", ("a2", 2, 2))
        names = [name for name, _delta in batcher.flush()]
        assert names == ["S", "R"]

    def test_add_delta_absorbs_whole_relations(self, batcher):
        delta = Relation(("A", "B"), data={("a1", 1): 2, ("a2", 2): -1})
        batcher.add_delta("R", delta)
        [(_, merged)] = batcher.flush()
        assert merged.data == delta.data
        assert batcher.updates_absorbed == 3


class TestFlushPolicies:
    def test_flush_on_size(self):
        batcher = UpdateBatcher(SCHEMAS, batch_size=3)
        assert batcher.add("R", ("a1", 1)) is None
        assert batcher.add("S", ("a1", 1, 1)) is None
        batch = batcher.add("R", ("a2", 2))
        assert batch is not None
        assert {name for name, _ in batch} == {"R", "S"}
        assert batcher.pending_updates == 0

    def test_manual_policy_never_autoflushes(self):
        batcher = UpdateBatcher(SCHEMAS, batch_size=1, flush_policy="manual")
        for i in range(5):
            assert batcher.add("R", ("a", i)) is None
        assert batcher.pending_tuples == 5

    def test_flush_on_close_via_context_manager(self):
        delivered = []
        with UpdateBatcher(
            SCHEMAS, batch_size=1000, on_flush=delivered.append
        ) as batcher:
            batcher.add("R", ("a1", 1))
        assert len(delivered) == 1
        [(name, delta)] = delivered[0]
        assert (name, delta.data) == ("R", {("a1", 1): 1})

    def test_on_flush_receives_size_triggered_batches(self):
        delivered = []
        batcher = UpdateBatcher(SCHEMAS, batch_size=2, on_flush=delivered.append)
        assert batcher.add("R", ("a1", 1)) is None
        assert batcher.add("R", ("a1", 1)) is None  # delivered, not returned
        assert len(delivered) == 1

    def test_close_returns_remainder_without_callback(self):
        batcher = UpdateBatcher(SCHEMAS, batch_size=1000)
        batcher.add("R", ("a1", 1))
        batch = batcher.close()
        assert batch is not None and batch[0][0] == "R"
        assert batcher.close() is None

    def test_exception_in_context_suppresses_final_flush(self):
        # A half-built batch must not reach the engine when the producing
        # block blew up: delivering it would apply an arbitrary prefix of
        # the failed iteration. The pending updates stay buffered so the
        # caller can recover (or drop the batcher) explicitly.
        delivered = []
        with pytest.raises(RuntimeError, match="mid-stream"):
            with UpdateBatcher(
                SCHEMAS, batch_size=1000, on_flush=delivered.append
            ) as batcher:
                batcher.add("R", ("a1", 1))
                raise RuntimeError("producer failed mid-stream")
        assert delivered == []
        assert batcher.pending_updates == 1
        # Recovery remains the caller's call: an explicit close still works.
        batcher.close()
        assert len(delivered) == 1

    def test_exception_before_any_add_flushes_nothing(self):
        delivered = []
        with pytest.raises(ValueError):
            with UpdateBatcher(
                SCHEMAS, batch_size=2, on_flush=delivered.append
            ) as batcher:
                raise ValueError("no events at all")
        assert delivered == []
        assert batcher.pending_updates == 0

    def test_batch_events_generator(self):
        events = [("R", ("a", i % 2), 1) for i in range(5)]
        batches = list(batch_events(events, SCHEMAS, batch_size=2))
        assert len(batches) == 3  # 2 + 2 + tail of 1
        total = sum(
            sum(delta.data.values()) for batch in batches for _n, delta in batch
        )
        assert total == 5


class TestValidation:
    def test_unknown_relation(self, batcher):
        with pytest.raises(DataError):
            batcher.add("T", ("x",))

    def test_arity_mismatch(self, batcher):
        with pytest.raises(DataError):
            batcher.add("R", ("a1", 1, 2))

    def test_a_rejected_event_is_rejected_at_the_call_and_absorbs_nothing(self):
        batcher = UpdateBatcher(SCHEMAS, batch_size=2)
        batcher.add("R", ("a1", 1))
        for relation, row, multiplicity in (
            ("T", ("x",), 1),
            ("R", ("a1",), 1),
            ("R", ("a1", 1, 2), 0),  # validated before the zero is dropped
        ):
            with pytest.raises(DataError):
                batcher.add(relation, row, multiplicity)
        assert batcher.pending_updates == batcher.updates_absorbed == 1
        assert batcher.pending_tuples == 1
        [(name, delta)] = batcher.add("R", ("a2", 2))  # the flush is still due
        assert delta.data == {("a1", 1): 1, ("a2", 2): 1}

    def test_updates_absorbed_counts_across_flushes(self):
        batcher = UpdateBatcher(SCHEMAS, batch_size=3)
        batcher.add("R", ("a1", 1), +2)
        assert batcher.add("R", ("a1", 1), -2) is None  # 4 absorbed: flushed empty
        batcher.add("S", ("a1", 1, 1), 0)
        batcher.add("S", ("a1", 1, 1), -1)
        assert (batcher.updates_absorbed, batcher.pending_updates) == (5, 1)
        batcher.flush()
        assert (batcher.updates_absorbed, batcher.pending_updates) == (5, 0)

    def test_bad_batch_size_and_policy(self):
        with pytest.raises(DataError):
            UpdateBatcher(SCHEMAS, batch_size=0)
        with pytest.raises(DataError):
            UpdateBatcher(SCHEMAS, flush_policy="sometimes")


# ----------------------------------------------------------------------
# Cross-engine equivalence: batched == tuple-at-a-time, all four engines.
# ----------------------------------------------------------------------

# Mixed stream over the toy database: duplicate inserts, deletes of live
# tuples, a cancelling +/- pair, and a delete/reinsert of the same row.
EVENTS = [
    ("R", ("a3", 3), +1),
    ("R", ("a3", 3), +1),
    ("S", ("a3", 1, 2), +1),
    ("R", ("a1", 1), -1),
    ("S", ("a1", 2, 3), -1),
    ("S", ("a2", 5, 5), +1),
    ("S", ("a2", 5, 5), -1),
    ("R", ("a2", 2), -1),
    ("R", ("a2", 2), +1),
    ("S", ("a3", 1, 2), +1),
    ("S", ("a3", 4, 4), +1),
]

TOY_FEATURES = (
    Feature.continuous("B"),
    Feature.continuous("C"),
    Feature.continuous("D"),
)


def engine_factories():
    count = toy_query(CountSpec())
    covar = toy_covar_continuous_query()
    order = toy_variable_order()
    return [
        ("naive", lambda: NaiveEngine(count, order=order)),
        ("first-order", lambda: FirstOrderEngine(count, order=order)),
        ("fivm", lambda: FIVMEngine(count, order=order)),
        (
            "per-aggregate",
            lambda: PerAggregateEngine(covar, TOY_FEATURES, order=order),
        ),
    ]


@pytest.mark.parametrize(
    "label,factory",
    engine_factories(),
    ids=[label for label, _ in engine_factories()],
)
@pytest.mark.parametrize("batch_size", [1, 4, 100])
def test_batched_matches_tuple_at_a_time(label, factory, batch_size):
    tuple_engine = factory()
    tuple_engine.initialize(toy_database())
    for name, row, multiplicity in EVENTS:
        tuple_engine.apply(name, single(SCHEMAS[name], row, multiplicity))

    batched_engine = factory()
    batched_engine.initialize(toy_database())
    batched_engine.apply_stream(iter(EVENTS), batch_size=batch_size)

    assert batched_engine.result().close_to(tuple_engine.result())


def test_apply_many_merges_same_relation_deltas():
    """apply_many coalesces per relation: one traversal per touched relation."""
    query = toy_query(CountSpec())
    reference = FIVMEngine(query, order=toy_variable_order())
    reference.initialize(toy_database())
    for name, row, multiplicity in EVENTS:
        reference.apply(name, single(SCHEMAS[name], row, multiplicity))

    engine = FIVMEngine(query, order=toy_variable_order())
    engine.initialize(toy_database())
    baseline_batches = engine.stats.batches_applied
    engine.apply_many(
        (name, single(SCHEMAS[name], row, multiplicity))
        for name, row, multiplicity in EVENTS
    )
    # 11 input deltas over 2 relations collapse into at most 2 applies.
    assert engine.stats.batches_applied - baseline_batches <= 2
    assert engine.result() == reference.result()


@pytest.mark.parametrize(
    "label,factory",
    engine_factories(),
    ids=[label for label, _ in engine_factories()],
)
def test_apply_many_never_writes_into_the_callers_deltas(label, factory):
    """One delta per relation is applied as it is, uncopied; a second one
    for the same relation is merged into a copy of the first."""
    rows = {"R": [("a3", 3), ("a9", 9)], "S": [("a3", 3, 3)]}

    def deltas():
        return [
            (name, single(SCHEMAS[name], row, +1))
            for name in ("R", "S")
            for row in rows[name]
        ]

    reference = factory()
    reference.initialize(toy_database())
    for name, delta in deltas():
        reference.apply(name, delta)
    for updates in (deltas()[1:], deltas()):  # one per relation, then two for R
        before = [dict(delta.data) for _name, delta in updates]
        engine = factory()
        engine.initialize(toy_database())
        engine.apply_many(updates)
        assert [delta.data for _name, delta in updates] == before
    assert engine.result().close_to(reference.result())


def test_long_stream_of_cancelling_updates_leaves_no_residue():
    """Insert/delete churn must not leak zero-payload entries into views."""
    query = toy_query(CountSpec())
    engine = FIVMEngine(query, order=toy_variable_order())
    engine.initialize(toy_database())
    baseline = engine.total_view_tuples()
    events = []
    for i in range(50):
        events.append(("R", (f"x{i}", i), +1))
        events.append(("S", (f"x{i}", i, i), +1))
    for i in range(50):
        events.append(("R", (f"x{i}", i), -1))
        events.append(("S", (f"x{i}", i, i), -1))
    engine.apply_stream(iter(events), batch_size=7)
    assert engine.total_view_tuples() == baseline
