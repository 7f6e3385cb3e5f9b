"""Sliding and tumbling windows compiled to delayed retractions.

F-IVM's update model makes deletions first-class: a delete is a delta
with negative multiplicity flowing through exactly the same maintenance
path as an insert. That makes windowed semantics *free* at the engine
layer — a window is nothing but a promise to retract every event once it
ages out. :class:`WindowedStream` keeps that promise: it wraps a stream
of timed events and interleaves, at every window boundary, the negated
deltas of the events that just expired. The output is a plain
``(relation, row, ±step)`` event stream, so every engine — per-tuple,
columnar, fused, sharded on either backend — maintains the windowed
view without knowing windows exist, and bit-identically to a fresh batch
evaluation over exactly the live window.

Semantics
---------

- Event times are non-decreasing integers (default: the event index).
- Window boundaries sit at multiples of the slide ``S``; the window at
  boundary ``b`` covers event times ``[b - W, b)`` for size ``W``.
  Tumbling windows are the ``S == W`` special case.
- An event at time ``t`` therefore expires at boundary
  ``((t + W) // S + 1) * S`` — the first boundary whose window no longer
  contains ``t``.
- Processing an event at time ``t`` first fires every boundary ``<= t``
  (emitting the due retractions), then emits the event itself.
- The *initial database* is permanent: only streamed events age out.
  A windowed delete is itself an event — when it expires, the deleted
  tuple comes back (the retraction of a ``-1`` is a ``+1``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DataError

__all__ = [
    "WindowSpec",
    "RetractionScheduler",
    "WindowedStream",
    "timed_events",
    "live_window_events",
]

#: A timed event: ``(relation, row, signed step, event time)``.
TimedEvent = Tuple[str, Tuple, int, int]
#: An engine-facing event: ``(relation, row, signed step)``.
Event = Tuple[str, Tuple, int]


@dataclass(frozen=True)
class WindowSpec:
    """A tumbling or sliding window over event time.

    ``size`` is the window width ``W``; ``slide`` is the boundary pitch
    ``S`` (``slide == size`` for tumbling windows). Both are positive
    integers in event-time units, with ``slide <= size`` so consecutive
    windows never leave gaps.
    """

    size: int
    slide: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 1:
            raise DataError(f"window size must be a positive int, got {self.size!r}")
        if not isinstance(self.slide, int) or self.slide < 1:
            raise DataError(f"window slide must be a positive int, got {self.slide!r}")
        if self.slide > self.size:
            raise DataError(
                f"window slide {self.slide} exceeds size {self.size} — "
                "consecutive windows would leave gaps"
            )

    @property
    def kind(self) -> str:
        return "tumbling" if self.slide == self.size else "sliding"

    @classmethod
    def parse(cls, spec: str) -> "WindowSpec":
        """Parse ``"tumbling:SIZE"`` or ``"sliding:SIZE/SLIDE"``.

        The same spec strings :class:`~repro.config.EngineConfig` accepts
        for its ``window`` field and ``--engine-window`` on the CLI.
        """
        if not isinstance(spec, str) or ":" not in spec:
            raise DataError(
                f"bad window spec {spec!r}: expected 'tumbling:SIZE' or "
                "'sliding:SIZE/SLIDE'"
            )
        kind, _, tail = spec.partition(":")
        try:
            if kind == "tumbling":
                size = int(tail)
                slide = size
            elif kind == "sliding":
                size_s, _, slide_s = tail.partition("/")
                size = int(size_s)
                slide = int(slide_s) if slide_s else size
            else:
                raise DataError(
                    f"bad window kind {kind!r} in {spec!r}: expected "
                    "'tumbling' or 'sliding'"
                )
        except ValueError:
            raise DataError(
                f"bad window spec {spec!r}: sizes must be integers "
                "('tumbling:SIZE' or 'sliding:SIZE/SLIDE')"
            ) from None
        return cls(size, slide)

    def describe(self) -> str:
        if self.kind == "tumbling":
            return f"tumbling:{self.size}"
        return f"sliding:{self.size}/{self.slide}"

    def expiry(self, time: int) -> int:
        """The boundary at which an event at ``time`` leaves the window."""
        return ((time + self.size) // self.slide + 1) * self.slide

    def boundary(self, time: int) -> int:
        """The latest boundary at or before ``time``."""
        return (time // self.slide) * self.slide

    def bounds_at(self, boundary: int) -> Tuple[int, int]:
        """The half-open event-time interval ``[low, high)`` live at a boundary."""
        return boundary - self.size, boundary


class RetractionScheduler:
    """FIFO queue of pending retractions ordered by expiry boundary.

    Event times are non-decreasing and :meth:`WindowSpec.expiry` is
    monotone in time, so appending in arrival order keeps the queue
    sorted by expiry — :meth:`due` is a plain prefix pop.
    """

    __slots__ = ("_queue",)

    def __init__(self):
        self._queue: deque = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def schedule(self, expiry: int, name: str, row: Tuple, step: int) -> None:
        """Queue the retraction of one event (``step`` already negated)."""
        queue = self._queue
        if queue and expiry < queue[-1][0]:
            raise DataError(
                f"retraction scheduled out of order: expiry {expiry} after "
                f"{queue[-1][0]} — event times must be non-decreasing"
            )
        queue.append((expiry, name, row, step))

    def due(self, boundary: int) -> Iterator[Event]:
        """Pop and yield every retraction with expiry ``<= boundary``."""
        queue = self._queue
        while queue and queue[0][0] <= boundary:
            _, name, row, step = queue.popleft()
            yield name, row, step

    def pending(self) -> List[TimedEvent]:
        """The queued retractions as ``(name, row, step, expiry)`` (a copy)."""
        return [(name, row, step, expiry) for expiry, name, row, step in self._queue]


class WindowedStream:
    """Compile a timed event stream into windowed engine deltas.

    Wraps an iterable of timed events ``(relation, row, ±step, time)``
    (or untimed triples — the event index then serves as the time) and
    yields plain ``(relation, row, ±step)`` events in which every
    window boundary crossing interleaves the retractions of the events
    that just expired. Feeding the output to any engine's
    ``apply_stream`` — directly or through an :class:`UpdateBatcher` —
    maintains the windowed view exactly.

    Iterate lazily (``for event in stream``); :attr:`current_boundary`
    and :meth:`current_bounds` always describe the window the events
    yielded *so far* belong to, which is how serving snapshots pick up
    their window provenance.
    """

    def __init__(self, spec: WindowSpec, events: Iterable):
        if isinstance(spec, str):
            spec = WindowSpec.parse(spec)
        self.spec = spec
        self._events = events
        self._scheduler = RetractionScheduler()
        self.current_boundary = 0
        self._last_time: Optional[int] = None

    # ------------------------------------------------------------------

    def current_bounds(self) -> Tuple[int, int]:
        """Event-time interval ``[low, high)`` of the current live window."""
        return self.spec.bounds_at(self.current_boundary)

    def pending_retractions(self) -> int:
        """Events currently inside the window awaiting expiry."""
        return len(self._scheduler)

    @property
    def last_time(self) -> Optional[int]:
        """Time of the last event consumed (``None`` before the first)."""
        return self._last_time

    def _timed(self) -> Iterator[TimedEvent]:
        for index, event in enumerate(self._events):
            if len(event) == 4:
                name, row, step, time = event
            elif len(event) == 3:
                name, row, step = event
                time = index
            else:
                raise DataError(
                    f"windowed event must be (name, row, step[, time]), "
                    f"got arity {len(event)}"
                )
            if not isinstance(time, int):
                raise DataError(f"event time must be an int, got {time!r}")
            if self._last_time is not None and time < self._last_time:
                raise DataError(
                    f"event time went backwards ({time} after {self._last_time}) "
                    "— windowed streams need non-decreasing times"
                )
            self._last_time = time
            yield name, row, step, time

    def advance_to(self, boundary: int) -> Iterator[Event]:
        """Fire every window boundary up to ``boundary``, yielding retractions.

        Used internally before each event, and by callers that want the
        engine state aligned to an exact boundary (e.g. the equivalence
        tests evaluating state at every window advance).
        """
        boundary = self.spec.boundary(boundary)
        if boundary > self.current_boundary:
            self.current_boundary = boundary
            yield from self._scheduler.due(boundary)

    def __iter__(self) -> Iterator[Event]:
        spec = self.spec
        scheduler = self._scheduler
        for name, row, step, time in self._timed():
            yield from self.advance_to(time)
            yield name, row, step
            scheduler.schedule(spec.expiry(time), name, row, -step)


def timed_events(events: Iterable, start: int = 0) -> Iterator[TimedEvent]:
    """Stamp untimed ``(name, row, step)`` events with their index as time."""
    for index, (name, row, step) in enumerate(events, start):
        yield name, row, step, index


def live_window_events(
    events: Iterable, spec: WindowSpec, boundary: int,
    upto: Optional[int] = None,
) -> List[Event]:
    """The events live at ``boundary`` — the batch-evaluation reference.

    Filters a *timed* event list down to times in ``[boundary - size,
    boundary)``: replaying exactly these (plus the initial database)
    through a fresh engine must reproduce the windowed engine's state at
    the instant boundary ``boundary`` fired, bit for bit.

    A stream checked *after* consuming events past the boundary also
    holds the not-yet-expired tail (times in ``[boundary, upto]`` — their
    expiry lies beyond every boundary fired so far); pass the last
    consumed event time as ``upto`` to include it.
    """
    low, high = spec.bounds_at(boundary)
    if upto is not None:
        high = max(high, upto + 1)
    live: List[Event] = []
    for event in events:
        if len(event) != 4:
            raise DataError("live_window_events needs timed (name, row, step, time)")
        name, row, step, time = event
        if low <= time < high:
            live.append((name, row, step))
    return live
