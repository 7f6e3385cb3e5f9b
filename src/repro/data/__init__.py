"""Relations, schemas, databases, deltas and batching (the storage layer)."""

from repro.data.batcher import UpdateBatcher, batch_events
from repro.data.columnar import ColumnarDelta, bulk_liftable, lift_column
from repro.data.database import Database
from repro.data.delta import (
    delta_of,
    deletes,
    inserts,
    single,
    split_delta,
    tuple_events,
)
from repro.data.index import IndexedRelation, RelationIndex
from repro.data.relation import Relation
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.data.sharding import ShardRouter, shard_hash
from repro.data.store import SlotStore
from repro.data.windows import (
    RetractionScheduler,
    WindowedStream,
    WindowSpec,
    live_window_events,
    timed_events,
)

__all__ = [
    "ColumnarDelta",
    "bulk_liftable",
    "lift_column",
    "Database",
    "Relation",
    "RelationIndex",
    "IndexedRelation",
    "SlotStore",
    "DatabaseSchema",
    "RelationSchema",
    "UpdateBatcher",
    "batch_events",
    "ShardRouter",
    "shard_hash",
    "inserts",
    "deletes",
    "delta_of",
    "single",
    "split_delta",
    "tuple_events",
    "WindowSpec",
    "WindowedStream",
    "RetractionScheduler",
    "timed_events",
    "live_window_events",
]
