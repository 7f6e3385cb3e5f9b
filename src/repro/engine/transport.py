"""Shard data planes: how delta payloads and gathered results move.

The sharded process backend has two kinds of traffic. *Control* — op
names, buffer generations, block layouts, tiny stats dicts — is cheap
and stays on the duplex pipes. *Data* — columnar delta blocks on the way
down, merged result/state blobs on the way up — dominates the
coordinator's time, and this module makes it a pluggable
:class:`ShardTransport`:

- :class:`PipeTransport` is the historical wire: whole deltas pickled
  through the pipe in columnar form, every gather fanned in and
  merged serially on the coordinator.
- :class:`SharedMemoryTransport` moves payload bytes through
  ``multiprocessing.shared_memory`` instead:

  * **down (coordinator -> shard):** one double-buffered ring per shard.
    The coordinator writes a delta's typed blocks straight into slot
    ``generation % 2`` (one vectorized copy, nothing pickled) and sends
    only ``("applyd", relation, generation, layout)`` over the pipe. The
    worker copies the blocks out, then publishes the generation in the
    ring header; the coordinator never runs more than two generations
    ahead — the flow control that lets applies stay fire-and-forget.
    Oversized deltas trigger a drain + coordinator-side segment swap
    (a ``remap`` control message), so rings grow to the workload.
  * **up (shard -> coordinator):** one block per shard for tree-wise
    gathers. ``result()``/``export_state()`` merges run *pairwise
    across the workers* (shard 1 writes its part, shard 0 merges it,
    round by log-depth round) instead of coordinator-serially; the
    coordinator reads one final blob from shard 0. Every merge path —
    serial backend, pipe gather, shm tree — folds in the identical
    pairwise structure, so all three transports are bit-exact for any
    ring. Workers that fail or overflow publish poison headers
    (``flag=-2`` / ``-1``) so partners abort quickly; overflow grows
    the up blocks and retries.

Segments are created, unlinked and grown **only by the coordinator**:
workers attach by name and detach again, so a crashed worker can never
leak a segment, and a crashed coordinator leaves cleanup to Python's
``resource_tracker`` (which registered every created segment). All
segment names carry :data:`SEGMENT_PREFIX` — :func:`active_shm_segments`
scans ``/dev/shm`` for leaks in tests and CI.
"""

from __future__ import annotations

import os
import pickle
import time
import zlib
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.data.columnar import decode_blocks
from repro.errors import EngineError
from repro.testing import faults as _faults

try:  # stdlib everywhere we support; guarded for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - platform without shm
    _shared_memory = None

__all__ = [
    "SEGMENT_PREFIX",
    "TRANSPORTS",
    "ShardTransport",
    "PipeTransport",
    "SharedMemoryTransport",
    "ShmWorkerEndpoint",
    "available_transports",
    "resolve_transport",
    "active_shm_segments",
]

#: Every segment this module creates is named ``fivmshm_<pid>_<nonce>_<n>``.
SEGMENT_PREFIX = "fivmshm"

TRANSPORTS = ("pipe", "shm")

#: Bytes reserved at the start of every segment for the int64 header.
_HEADER_BYTES = 64
_HEADER_INTS = _HEADER_BYTES // 8

# Up-block header slots and flags.
_H_SEQ, _H_ROUND, _H_FLAG, _H_LENGTH = 0, 1, 2, 3
_FLAG_OK = 0
_FLAG_OVERFLOW = -1
_FLAG_FAILED = -2


def available_transports() -> Tuple[str, ...]:
    """Transports usable on this platform."""
    if _shared_memory is None:  # pragma: no cover - platform without shm
        return ("pipe",)
    return TRANSPORTS


def resolve_transport(transport: str, backend: str) -> str:
    """Resolve ``"auto"`` and validate an explicit choice.

    Only the process backend has a wire at all; for the serial backend
    every transport resolves to ``"none"`` (engines are called in
    process).
    """
    if backend != "process":
        return "none"
    if transport == "auto":
        return "shm" if "shm" in available_transports() else "pipe"
    if transport not in TRANSPORTS:
        raise EngineError(
            f"unknown shard transport {transport!r}; expected one of "
            f"{('auto',) + TRANSPORTS}"
        )
    if transport not in available_transports():  # pragma: no cover
        raise EngineError(
            "the shm transport needs multiprocessing.shared_memory "
            "(unavailable on this platform); use transport='pipe'"
        )
    return transport


def active_shm_segments(prefix: str = SEGMENT_PREFIX) -> List[str]:
    """Live shared-memory segments created by this module (leak scan)."""
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    try:
        names = os.listdir(root)
    except OSError:  # pragma: no cover - defensive
        return []
    return sorted(name for name in names if name.startswith(prefix))


class _ShmOverflow(Exception):
    """A blob did not fit its up block; carries the needed byte count."""

    def __init__(self, needed: int):
        super().__init__(needed)
        self.needed = int(needed)


def _attach(name: str):
    """Attach to an existing segment created by the coordinator.

    Workers are *forked*, so they share the coordinator's resource
    tracker process; the registration an attach performs (pre-3.13
    ``SharedMemory(name=...)`` always registers) lands in the same
    per-name set the coordinator's create already populated and dedups
    to a no-op. The coordinator's ``unlink()`` then unregisters the one
    entry — no spurious tracker unlinks, no leak warnings, and the
    tracker still cleans every segment up if the coordinator crashes.
    """
    return _shared_memory.SharedMemory(name=name)


class _Segment:
    """One mapped segment plus its cached int64 header view."""

    __slots__ = ("name", "shm", "buf", "header")

    def __init__(self, name: str, size: int = 0, create: bool = False):
        if create:
            self.shm = _shared_memory.SharedMemory(
                name=name, create=True, size=size
            )
        else:
            self.shm = _attach(name)
        self.name = name
        self.buf = self.shm.buf
        self.header = np.frombuffer(
            self.buf, dtype=np.int64, count=_HEADER_INTS
        )

    def close(self) -> None:
        # The numpy header view exports the segment's buffer; drop it
        # first or SharedMemory.close() raises BufferError.
        self.header = None
        self.buf = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - stray external view
            pass

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def _grown_size(needed: int, floor: int) -> int:
    """Next power of two above 1.5x the needed bytes (>= floor)."""
    target = max(int(needed * 1.5), floor, 1)
    return 1 << (target - 1).bit_length()


# ----------------------------------------------------------------------
# The transport protocol
# ----------------------------------------------------------------------


class ShardTransport:
    """What the process backend needs from a shard data plane.

    One instance per backend; :meth:`setup` runs before the workers
    fork, :meth:`worker_endpoint` hands each worker its (picklable,
    lazily attaching) end, :meth:`send_delta` ships one routed delta,
    and :meth:`close` releases every OS resource (idempotent —
    crash-path teardown calls it again). Transports with
    ``tree_gather = True`` additionally implement the tree-merge
    primitives (:meth:`new_sequence`, :meth:`read_final`,
    :meth:`grow_up`) the backend drives for ``result()`` /
    ``export_state()`` gathers.
    """

    name = "abstract"
    #: Do result/export gathers merge tree-wise across the workers?
    tree_gather = False

    def setup(self, shards: int) -> None:
        raise NotImplementedError

    def worker_endpoint(self, shard: int) -> Optional["ShmWorkerEndpoint"]:
        raise NotImplementedError

    def send_delta(
        self, conn, shard: int, relation_name: str, delta,
        alive: Optional[Callable[[], bool]] = None,
    ) -> None:
        raise NotImplementedError

    def reset_shard(self, shard: int) -> None:
        """Forget per-shard wire state before a respawned worker attaches
        (fresh segments/generations where the transport keeps any)."""

    def close(self) -> None:
        raise NotImplementedError


class PipeTransport(ShardTransport):
    """The historical data plane: whole deltas pickled through the pipe.

    Ships ``("applyc", name, columns, counts)`` — homogeneous lists that
    pickle without a tuple object per key. Gathers stay
    coordinator-serial (the backend fans in and merges).
    """

    name = "pipe"
    tree_gather = False

    def setup(self, shards: int) -> None:
        pass

    def worker_endpoint(self, shard: int) -> None:
        return None

    def send_delta(self, conn, shard, relation_name, delta, alive=None):
        _schema, columns, counts = delta.transport()
        conn.send(("applyc", relation_name, columns, counts))

    def close(self) -> None:
        pass


class SharedMemoryTransport(ShardTransport):
    """Zero-copy data plane over ``multiprocessing.shared_memory``.

    See the module docstring for the ring/flow-control design. All
    class-level constants are deliberately patchable: tests shrink the
    rings to force growth/overflow paths and shorten the timeouts.
    """

    name = "shm"
    tree_gather = True

    #: Default per-slot bytes of a down ring (two slots per shard).
    DOWN_SLOT_BYTES = 1 << 20
    #: Default body bytes of an up block (one per shard).
    UP_BYTES = 1 << 22
    #: How long the coordinator waits for a worker to free a slot.
    APPLY_TIMEOUT = 120.0
    #: How long a worker waits for its merge partner's blob.
    MERGE_TIMEOUT = 60.0
    #: Spin-sleep between header polls (seconds).
    POLL_INTERVAL = 0.0002

    def __init__(
        self,
        slot_bytes: Optional[int] = None,
        up_bytes: Optional[int] = None,
    ):
        if _shared_memory is None:  # pragma: no cover - platform without shm
            raise EngineError(
                "multiprocessing.shared_memory is unavailable; "
                "use the pipe transport"
            )
        self.slot_floor = int(slot_bytes or self.DOWN_SLOT_BYTES)
        self.up_bytes = int(up_bytes or self.UP_BYTES)
        self._base = (
            f"{SEGMENT_PREFIX}_{os.getpid()}_{os.urandom(3).hex()}"
        )
        self._serial = 0
        self._down: List[_Segment] = []
        self._down_slot: List[int] = []
        self._next_gen: List[int] = []
        self._ups: List[_Segment] = []
        self._seq = 0
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    def setup(self, shards: int) -> None:
        try:
            for _ in range(shards):
                self._down.append(
                    self._create(_HEADER_BYTES + 2 * self.slot_floor)
                )
                self._down_slot.append(self.slot_floor)
                self._next_gen.append(1)
                self._ups.append(self._create(_HEADER_BYTES + self.up_bytes))
        except Exception:
            self.close()
            raise

    def _create(self, size: int) -> _Segment:
        self._serial += 1
        return _Segment(f"{self._base}_{self._serial}", size=size, create=True)

    def worker_endpoint(self, shard: int) -> "ShmWorkerEndpoint":
        return ShmWorkerEndpoint(
            shard=shard,
            down_name=self._down[shard].name,
            up_names=tuple(segment.name for segment in self._ups),
            down_slot_bytes=self._down_slot[shard],
            up_bytes=self.up_bytes,
            merge_timeout=self.MERGE_TIMEOUT,
            poll_interval=self.POLL_INTERVAL,
        )

    def reset_shard(self, shard: int) -> None:
        """Fresh down ring for a respawned worker.

        The dead worker may have left any consumed-generation watermark
        in the old ring's header, so the coordinator swaps in a brand-new
        (zero-filled) segment and restarts the shard's generation clock;
        ``worker_endpoint`` then hands the respawned worker the new name.
        The old segment is unlinked — the dead worker's mapping (if the
        process is only now being reaped) cannot leak it.
        """
        replacement = self._create(
            _HEADER_BYTES + 2 * self._down_slot[shard]
        )
        old = self._down[shard]
        self._down[shard] = replacement
        self._next_gen[shard] = 1
        old.close()
        old.unlink()

    def close(self) -> None:
        """Unlink every segment (idempotent; safe mid-construction)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._down + self._ups:
            segment.close()
            segment.unlink()
        self._down = []
        self._ups = []

    # -- down: coordinator -> shard delta blocks ------------------------

    def send_delta(self, conn, shard, relation_name, delta, alive=None):
        blocks = delta.to_blocks()
        if blocks.nbytes > self._down_slot[shard]:
            self._grow_down(conn, shard, blocks.nbytes, alive)
        generation = self._next_gen[shard]
        # Double buffering: generation g may be written once g-2 is
        # consumed — the worker still reads g-1 from the other slot.
        self._wait_consumed(shard, generation - 2, alive, "delta slot")
        segment = self._down[shard]
        offset = _HEADER_BYTES + (generation % 2) * self._down_slot[shard]
        layout = blocks.write_into(segment.buf, offset)
        # Checksum over the staged region: the worker verifies before
        # decoding, so a torn write (a writer dying mid-copy, a stray
        # remote corruption) surfaces as a descriptive shard failure
        # instead of silently wrong view state.
        crc = (
            zlib.crc32(segment.buf[offset:offset + blocks.nbytes])
            if blocks.nbytes
            else 0
        )
        if _faults.current_injector() is not None:
            spec = _faults.fire("shm.write", shard=shard)
            if spec is not None and spec.kind == "torn" and blocks.nbytes:
                mid = offset + blocks.nbytes // 2
                segment.buf[mid] = (segment.buf[mid] + 1) & 0xFF
        conn.send(
            ("applyd", relation_name, generation, layout, blocks.nbytes, crc)
        )
        self._next_gen[shard] = generation + 1

    def _wait_consumed(self, shard, target, alive, what) -> None:
        if target < 1:
            return
        segment = self._down[shard]
        deadline = time.monotonic() + self.APPLY_TIMEOUT
        spins = 0
        while int(segment.header[0]) < target:
            spins += 1
            if alive is not None and spins % 64 == 0 and not alive():
                raise EngineError(
                    f"shard {shard} worker died while the coordinator "
                    f"waited for a shared-memory {what}"
                )
            if time.monotonic() > deadline:
                raise EngineError(
                    f"timed out after {self.APPLY_TIMEOUT:.0f}s waiting for "
                    f"shard {shard} to consume a shared-memory {what}"
                )
            time.sleep(self.POLL_INTERVAL)

    def _grow_down(self, conn, shard, needed, alive) -> None:
        """Swap in a larger down ring (drain, create, remap, unlink)."""
        self._wait_consumed(
            shard, self._next_gen[shard] - 1, alive, "ring drain"
        )
        slot = _grown_size(needed, self.slot_floor)
        replacement = self._create(_HEADER_BYTES + 2 * slot)
        # Carry the consumed watermark over: everything so far is done.
        replacement.header[0] = self._next_gen[shard] - 1
        old = self._down[shard]
        self._down[shard] = replacement
        self._down_slot[shard] = slot
        try:
            conn.send(("remap", replacement.name, slot))
        except (BrokenPipeError, OSError) as exc:
            raise EngineError(
                f"shard {shard} worker is gone: {exc!r}"
            ) from None
        # Unlinking while the worker is still attached is safe on every
        # platform shared_memory supports; the name just disappears.
        old.close()
        old.unlink()

    # -- up: tree-merge primitives --------------------------------------

    def new_sequence(self) -> int:
        self._seq += 1
        return self._seq

    def read_final(self, seq: int):
        """Load shard 0's final merged blob for gather ``seq``.

        Called only after every worker acknowledged the gather, so the
        header is final — a mismatch means the protocol broke.
        """
        segment = self._ups[0]
        header = segment.header
        if int(header[_H_SEQ]) != seq or int(header[_H_FLAG]) != _FLAG_OK:
            raise EngineError(
                "shared-memory gather out of sync: shard 0 block holds "
                f"seq {int(header[_H_SEQ])} flag {int(header[_H_FLAG])}, "
                f"expected seq {seq}"
            )
        length = int(header[_H_LENGTH])
        blob = bytes(segment.buf[_HEADER_BYTES:_HEADER_BYTES + length])
        return pickle.loads(blob)

    def grow_up(self, needed: int) -> Tuple[Tuple[str, ...], int]:
        """Replace every up block with a larger one after an overflow."""
        self.up_bytes = _grown_size(needed, self.up_bytes)
        old = self._ups
        self._ups = [
            self._create(_HEADER_BYTES + self.up_bytes) for _ in old
        ]
        for segment in old:
            segment.close()
            segment.unlink()
        return tuple(segment.name for segment in self._ups), self.up_bytes


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _merge_schedule(shard: int, shards: int):
    """The (role, partner, round) steps of one worker's tree merge.

    Standard binomial reduction: in round r (step ``2**r``) shard ``s``
    *sends* to ``s - step`` when ``s % (2 * step) == step``, *receives*
    from ``s + step`` when ``s % (2 * step) == 0`` and the partner
    exists. Shard 0 ends holding the full merge and writes the final
    blob at the round after its last receive. The coordinator-side
    pairwise fold (:func:`repro.engine.sharded.pairwise_fold`) combines
    in exactly this structure, which is what makes serial, pipe and shm
    results bit-identical.
    """
    step, rnd = 1, 0
    while step < shards:
        if shard % (2 * step) == step:
            yield ("send", shard - step, rnd)
            return
        if shard % (2 * step) == 0 and shard + step < shards:
            yield ("recv", shard + step, rnd)
        step *= 2
        rnd += 1
    yield ("final", -1, rnd)


class ShmWorkerEndpoint:
    """A worker's end of the shared-memory transport.

    Built on the coordinator *before* the fork (plain strings and ints,
    so it crosses the boundary trivially) and attached lazily on first
    use inside the worker. Attachments never register with the resource
    tracker — the coordinator owns every segment's lifetime.
    """

    def __init__(
        self,
        shard: int,
        down_name: str,
        up_names: Tuple[str, ...],
        down_slot_bytes: int,
        up_bytes: int,
        merge_timeout: float,
        poll_interval: float,
    ):
        self.shard = int(shard)
        self.down_name = down_name
        self.up_names = tuple(up_names)
        self.down_slot_bytes = int(down_slot_bytes)
        self.up_bytes = int(up_bytes)
        self.merge_timeout = float(merge_timeout)
        self.poll_interval = float(poll_interval)
        self._down: Optional[_Segment] = None
        self._ups = {}

    @property
    def shards(self) -> int:
        return len(self.up_names)

    # -- attachments ----------------------------------------------------

    def _down_segment(self) -> _Segment:
        if self._down is None:
            self._down = _Segment(self.down_name)
        return self._down

    def _up_segment(self, shard: int) -> _Segment:
        segment = self._ups.get(shard)
        if segment is None:
            segment = self._ups[shard] = _Segment(self.up_names[shard])
        return segment

    def close(self) -> None:
        if self._down is not None:
            self._down.close()
            self._down = None
        for segment in self._ups.values():
            segment.close()
        self._ups = {}

    # -- down: delta intake ---------------------------------------------

    def read_delta(
        self, schema, relation_name, generation, layout,
        nbytes: Optional[int] = None, crc: Optional[int] = None,
    ):
        """Decode one delta out of its slot, then release the slot.

        When the coordinator sent a checksum, the staged region is
        verified *before* decoding — a torn write raises a descriptive
        :class:`EngineError` (parked like any apply failure) instead of
        feeding corrupt blocks into maintenance. The decode copies every
        block (the returned relation owns its data), so marking the
        generation consumed — which licenses the coordinator to
        overwrite the slot — is safe in ``finally`` even when decoding
        raises.
        """
        segment = self._down_segment()
        try:
            if crc is not None and nbytes:
                _length, entries = layout
                start = entries[0][2] if entries else 0
                actual = zlib.crc32(segment.buf[start:start + nbytes])
                if actual != crc:
                    raise EngineError(
                        f"torn shared-memory delta for {relation_name!r} "
                        f"(shard {self.shard}, generation {generation}: "
                        f"checksum mismatch)"
                    )
            delta = decode_blocks(
                schema, segment.buf, layout, name=relation_name
            )
            return delta.to_relation()
        finally:
            self.mark_consumed(generation)

    def mark_consumed(self, generation: int) -> None:
        self._down_segment().header[0] = generation

    def remap_down(self, name: str, slot_bytes: int) -> None:
        """Switch to a replacement (grown) down ring."""
        if self._down is not None:
            self._down.close()
        self.down_name = name
        self.down_slot_bytes = int(slot_bytes)
        self._down = None

    def remap_up(self, names: Tuple[str, ...], up_bytes: int) -> None:
        """Switch to replacement (grown) up blocks."""
        for segment in self._ups.values():
            segment.close()
        self._ups = {}
        self.up_names = tuple(names)
        self.up_bytes = int(up_bytes)

    # -- up: tree merge -------------------------------------------------

    def tree_merge(self, seq: int, payload, combine) -> None:
        """Run this worker's rounds of gather ``seq``.

        ``payload`` is this shard's local part; ``combine(mine, theirs)``
        merges a partner's part in (receivers always keep the
        lower-shard side on the left). Senders write their blob for the
        partner and return; shard 0 writes the final merged blob for the
        coordinator. Raises :class:`_ShmOverflow` when a blob does not
        fit (retryable after the coordinator grows the blocks) and
        :class:`EngineError` when a partner failed or timed out.
        """
        for role, partner, rnd in _merge_schedule(self.shard, self.shards):
            if role == "recv":
                payload = combine(payload, self._read_blob(partner, seq, rnd))
            else:  # "send" to partner, or shard 0's "final" write
                self._write_blob(seq, rnd, pickle.dumps(
                    payload, protocol=pickle.HIGHEST_PROTOCOL
                ))
        return None

    def poison(self, seq: int, needed: Optional[int] = None) -> None:
        """Publish a failure (or overflow) header at this worker's write
        round so waiting partners abort instead of timing out."""
        for role, _partner, rnd in _merge_schedule(self.shard, self.shards):
            if role in ("send", "final"):
                flag = _FLAG_OVERFLOW if needed else _FLAG_FAILED
                self._write_header(rnd, flag, needed or 0, seq)
        # Unreachable schedules always end in send/final, so the loop
        # body above runs exactly once for the terminal step.

    def _write_blob(self, seq: int, rnd: int, blob: bytes) -> None:
        segment = self._up_segment(self.shard)
        if len(blob) > self.up_bytes:
            self._write_header(rnd, _FLAG_OVERFLOW, len(blob), seq)
            raise _ShmOverflow(len(blob))
        segment.buf[_HEADER_BYTES:_HEADER_BYTES + len(blob)] = blob
        self._write_header(rnd, _FLAG_OK, len(blob), seq)

    def _write_header(self, rnd: int, flag: int, length: int, seq: int) -> None:
        header = self._up_segment(self.shard).header
        header[_H_ROUND] = rnd
        header[_H_FLAG] = flag
        header[_H_LENGTH] = length
        # seq last: readers poll seq/round, so everything else must be
        # in place when the sequence number appears.
        header[_H_SEQ] = seq

    def _read_blob(self, partner: int, seq: int, rnd: int):
        segment = self._up_segment(partner)
        header = segment.header
        deadline = time.monotonic() + self.merge_timeout
        while True:
            if int(header[_H_SEQ]) == seq and int(header[_H_ROUND]) == rnd:
                flag = int(header[_H_FLAG])
                length = int(header[_H_LENGTH])
                if flag == _FLAG_OK:
                    blob = bytes(
                        segment.buf[_HEADER_BYTES:_HEADER_BYTES + length]
                    )
                    return pickle.loads(blob)
                if flag == _FLAG_OVERFLOW:
                    raise _ShmOverflow(length)
                raise EngineError(f"merge partner shard {partner} failed")
            if time.monotonic() > deadline:
                raise EngineError(
                    f"timed out after {self.merge_timeout:.0f}s waiting for "
                    f"merge partner shard {partner} (gather seq {seq})"
                )
            time.sleep(self.poll_interval)
