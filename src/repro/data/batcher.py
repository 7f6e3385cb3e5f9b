"""Coalescing single-tuple updates into batched per-relation deltas.

High update rates arrive one tuple at a time, but every engine pays a
per-delta cost (a leaf-to-root traversal for F-IVM, a delta query for
first-order IVM, a re-evaluation for the naive baseline) that is far
cheaper per tuple when amortized over a batch. :class:`UpdateBatcher`
sits between a tuple stream and an engine: it absorbs ``(relation, row,
multiplicity)`` events, sum-merges duplicate keys, cancels +/− pairs to
nothing, and emits per-relation Z-:class:`Relation` deltas according to a
flush policy.

Because maintenance is exact — the final result depends only on the
accumulated deltas, not on how they were sliced — feeding the coalesced
batches to an engine yields the same final views as applying the events
one at a time (the tests check this for all four engines).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.data.relation import Relation
from repro.errors import DataError

__all__ = ["UpdateBatcher", "batch_events"]

Event = Tuple[str, Tuple, int]
Batch = List[Tuple[str, Relation]]

#: Flush policies: ``"size"`` flushes as soon as ``batch_size`` updates
#: have been absorbed since the last flush; ``"manual"`` only flushes on
#: an explicit :meth:`UpdateBatcher.flush` / :meth:`UpdateBatcher.close`.
FLUSH_POLICIES = ("size", "manual")


class UpdateBatcher:
    """Coalesce a stream of single-tuple deltas into batched deltas.

    Parameters
    ----------
    schemas:
        ``relation name -> attribute tuple``; only these relations are
        accepted (unknown names raise :class:`DataError` immediately
        instead of surfacing as a schema error at apply time).
    batch_size:
        Number of absorbed updates (|multiplicity| weighted) that triggers
        a flush under the ``"size"`` policy.
    flush_policy:
        ``"size"`` (default) or ``"manual"``; see :data:`FLUSH_POLICIES`.
    on_flush:
        Optional callback receiving each flushed batch (a list of
        ``(relation, delta)`` pairs). When set, :meth:`add` delivers
        batches to the callback; otherwise it returns them.

    Notes
    -----
    Cancelled pairs still count toward ``batch_size`` — the trigger is
    "updates absorbed", not "tuples pending", so flush timing does not
    depend on payload values. Used as a context manager, the remainder is
    flushed on exit (flush-on-close).
    """

    def __init__(
        self,
        schemas: Mapping[str, Sequence[str]],
        batch_size: int = 1000,
        flush_policy: str = "size",
        on_flush: Optional[Callable[[Batch], None]] = None,
    ):
        if batch_size < 1:
            raise DataError("batch_size must be at least 1")
        if flush_policy not in FLUSH_POLICIES:
            raise DataError(
                f"unknown flush policy {flush_policy!r}; expected one of {FLUSH_POLICIES}"
            )
        self.schemas: Dict[str, Tuple[str, ...]] = {
            name: tuple(attrs) for name, attrs in schemas.items()
        }
        self.batch_size = batch_size
        self.flush_policy = flush_policy
        self.on_flush = on_flush
        #: relation -> pending key -> accumulated multiplicity (zeros pruned).
        self._pending: Dict[str, Dict[Tuple, int]] = {}
        #: relations in first-touched order (flush emission order).
        self._order: List[str] = []
        self._absorbed_since_flush = 0
        self._absorbed_before_flush = 0
        self.batches_emitted = 0

    # ------------------------------------------------------------------

    @property
    def updates_absorbed(self) -> int:
        """Updates absorbed since construction (|multiplicity| weighted)."""
        return self._absorbed_before_flush + self._absorbed_since_flush

    @property
    def pending_updates(self) -> int:
        """Updates absorbed since the last flush (cancelled pairs included)."""
        return self._absorbed_since_flush

    @property
    def pending_tuples(self) -> int:
        """Distinct keys currently pending (after merging and cancellation)."""
        return sum(len(data) for data in self._pending.values())

    def add(self, relation: str, row: Sequence, multiplicity: int = 1) -> Optional[Batch]:
        """Absorb one single-tuple update.

        Returns the flushed batch when this event triggered a size flush
        (or ``None``: nothing flushed, or the batch went to ``on_flush``).
        """
        schema = self.schemas.get(relation)
        if schema is None:
            raise DataError(
                f"unknown relation {relation!r}; batcher knows {tuple(self.schemas)}"
            )
        row = tuple(row)
        if len(row) != len(schema):
            raise DataError(
                f"row {row!r} does not match {relation!r} schema {schema!r}"
            )
        if multiplicity == 0:
            return None
        pending = self._pending.get(relation)
        if pending is None:
            pending = self._pending[relation] = {}
            self._order.append(relation)
        total = pending.get(row, 0) + multiplicity
        if total:
            pending[row] = total
        else:
            del pending[row]
        absorbed = self._absorbed_since_flush = (
            self._absorbed_since_flush + abs(multiplicity)
        )
        if absorbed < self.batch_size or self.flush_policy != "size":
            return None
        return self.close()

    def add_delta(self, relation: str, delta: Relation) -> Optional[Batch]:
        """Absorb a pre-built Z-delta (all its entries, key by key)."""
        flushed: Batch = []
        for row, multiplicity in delta.data.items():
            batch = self.add(relation, row, multiplicity)
            if batch:
                flushed.extend(batch)
        return flushed or None

    def flush(self) -> Batch:
        """Emit all pending deltas (first-touched relation order) and reset.

        Each emitted delta's columnar (struct-of-arrays) form is
        available through :meth:`Relation.columnar`, built at most once
        on first use — columnar consumers (the vectorized maintenance
        path, the sharded wire form) share one build, and purely
        per-tuple consumers never pay for it.
        """
        batch: Batch = []
        for name in self._order:
            data = self._pending[name]
            if not data:
                continue
            delta = Relation(self.schemas[name], name=name)
            delta.data = data
            batch.append((name, delta))
        self._pending = {}
        self._order = []
        self._absorbed_before_flush += self._absorbed_since_flush
        self._absorbed_since_flush = 0
        if batch:
            self.batches_emitted += 1
        return batch

    def close(self) -> Optional[Batch]:
        """Flush the remainder; delivers to ``on_flush`` when configured."""
        batch = self.flush()
        if not batch:
            return None
        if self.on_flush is not None:
            self.on_flush(batch)
            return None
        return batch

    # ------------------------------------------------------------------

    def __enter__(self) -> "UpdateBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Flush the remainder on clean exit *only*.

        When the block raised, the pending half-batch is deliberately NOT
        delivered: it represents an arbitrary prefix of a failed
        iteration, and pushing it to ``on_flush`` (usually straight into
        an engine) would commit partial work the caller is about to
        unwind. The buffered updates stay on the batcher, so recovery —
        an explicit :meth:`close` or dropping the batcher — remains the
        caller's decision.
        """
        if exc_type is None:
            self.close()


def batch_events(
    events: Iterable[Event],
    schemas: Mapping[str, Sequence[str]],
    batch_size: int = 1000,
) -> Iterator[Batch]:
    """Generator form: yield coalesced batches from a tuple-event stream."""
    batcher = UpdateBatcher(schemas, batch_size=batch_size)
    for relation, row, multiplicity in events:
        batch = batcher.add(relation, row, multiplicity)
        if batch:
            yield batch
    tail = batcher.flush()
    if tail:
        yield tail
