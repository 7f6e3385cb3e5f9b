"""Update streams: batched inserts and deletes against a database.

The demo "processes one bulk of 10K updates before pausing"; the engine
paper measures throughput over round-robin per-relation batches mixing
inserts and deletes. :class:`UpdateStream` reproduces both modes: it owns
a shadow copy of the database so deletes always target live tuples and
repeated runs with one seed yield identical streams.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.database import Database
from repro.data.delta import tuple_events
from repro.data.relation import Relation
from repro.errors import DataError

__all__ = ["UpdateStream"]

RowFactory = Callable[[np.random.Generator], Tuple]


class UpdateStream:
    """Deterministic generator of per-relation update batches.

    Parameters
    ----------
    database:
        The *initial* database; the stream keeps its own shadow copy and
        never mutates the argument.
    factories:
        ``relation -> rng -> row``; relations with a factory receive
        inserts. Relations without one can still be delete targets.
    targets:
        Relations to update, visited round-robin. Defaults to the
        factories' keys.
    batch_size:
        Updates per batch (single-tuple updates = ``batch_size=1``).
    insert_ratio:
        Fraction of updates that are inserts; the rest delete live tuples
        (falling back to inserts if the shadow relation is empty).
    seed:
        RNG seed for reproducible streams.
    """

    def __init__(
        self,
        database: Database,
        factories: Dict[str, RowFactory],
        targets: Optional[Sequence[str]] = None,
        batch_size: int = 1000,
        insert_ratio: float = 0.8,
        seed: int = 0,
    ):
        if batch_size < 1:
            raise DataError("batch_size must be at least 1")
        if not 0.0 <= insert_ratio <= 1.0:
            raise DataError("insert_ratio must be in [0, 1]")
        self.shadow = database.copy()
        self.factories = dict(factories)
        self.targets: Tuple[str, ...] = tuple(targets or self.factories)
        if not self.targets:
            raise DataError("update stream needs at least one target relation")
        for name in self.targets:
            self.shadow.relation(name)  # validates existence
        self.batch_size = batch_size
        self.insert_ratio = insert_ratio
        self.rng = np.random.default_rng(seed)
        self._cursor = 0

    # ------------------------------------------------------------------

    def next_batch(self) -> Tuple[str, Relation]:
        """Produce one batch for the next round-robin target and apply it
        to the shadow database."""
        name = self.targets[self._cursor % len(self.targets)]
        self._cursor += 1
        relation = self.shadow.relation(name)
        factory = self.factories.get(name)
        delta = Relation(relation.schema, name=name)
        data = delta.data
        # Working multiset of deletable keys: live multiplicity minus
        # deletions already queued in this batch.
        deletable: List[Tuple] = list(relation.data)
        for _ in range(self.batch_size):
            do_insert = factory is not None and (
                float(self.rng.random()) < self.insert_ratio or not deletable
            )
            if do_insert:
                row = tuple(factory(self.rng))
                if len(row) != len(relation.schema):
                    raise DataError(
                        f"factory for {name!r} produced arity {len(row)}, "
                        f"expected {len(relation.schema)}"
                    )
                data[row] = data.get(row, 0) + 1
            else:
                if not deletable:
                    break
                index = int(self.rng.integers(0, len(deletable)))
                key = deletable[index]
                live = relation.data.get(key, 0) + data.get(key, 0)
                data[key] = data.get(key, 0) - 1
                if data[key] == 0:
                    del data[key]
                if live - 1 <= 0:
                    deletable[index] = deletable[-1]
                    deletable.pop()
        self.shadow.apply(name, delta)
        return name, delta

    def batches(self, count: int) -> Iterator[Tuple[str, Relation]]:
        """Yield ``count`` batches."""
        for _ in range(count):
            yield self.next_batch()

    def bulk(self, total_updates: int) -> Iterator[Tuple[str, Relation]]:
        """Yield batches until ~``total_updates`` single updates are out
        (the demo's 10K-update bulks)."""
        emitted = 0
        while emitted < total_updates:
            name, delta = self.next_batch()
            emitted += sum(abs(m) for m in delta.data.values())
            yield name, delta

    def tuples(self, total_updates: int) -> Iterator[Tuple[str, Tuple, int]]:
        """Yield ~``total_updates`` single-tuple events ``(name, row, ±1)``.

        The events decompose the same batches :meth:`bulk` would produce
        (same seed → same cumulative effect), so one stream instance can
        feed the tuple-at-a-time baseline and a fresh instance with the
        same seed the batched pipeline, and the results must agree.
        """
        yield from tuple_events(self.bulk(total_updates))
