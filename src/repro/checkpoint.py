"""Durable engine checkpoints: a versioned, compressed on-disk format.

A long-running ingestion must be able to stop and resume without
replaying the stream — in F-IVM the materialized ring views *are* the
entire system state, so a checkpoint is exactly an engine state snapshot
(:meth:`~repro.engine.base.MaintenanceEngine.export_state`) made durable.
This module owns the file envelope around those snapshots:

- ``magic || pickled header || (optionally zlib-compressed) pickled state``
- the header is readable without decompressing the state
  (:func:`read_checkpoint_info`), carries the file-format version,
  engine provenance (strategy, payload kind, query name), creation time,
  sizes and free-form metadata; it is parsed with a *restricted*
  unpickler that admits only primitive values, so inspecting a file
  cannot execute code smuggled into its header;
- writes are atomic (unique temp file + ``os.replace``), so a crash
  mid-write never corrupts the previous checkpoint — which is what
  makes :func:`checkpoint_sink` safe as a periodic
  ``apply_stream(checkpoint_every=...)`` hook.

Trust model: the *state* blob holds arbitrary ring payloads and is
therefore a regular pickle — :func:`read_checkpoint` /
:func:`restore_checkpoint` must only be pointed at checkpoints from a
trusted source, like any pickle-based snapshot format. Header-only
inspection (:func:`read_checkpoint_info`, ``repro checkpoint info``) is
safe on untrusted files.

Shard-count portability is a property of the *state* layer, not the file
layer: sharded snapshots are exported in the global normal form (see
:class:`~repro.engine.sharded.ShardedEngine`), so a checkpoint written by
a 4-shard engine restores into a 2-shard, 1-shard or unsharded engine
unchanged.

**Incremental chains.** Between two checkpoints a high-rate stream
usually touches a small fraction of the view entries, so rewriting every
payload is wasted bytes. ``write_checkpoint(..., base=(info, state))``
persists only the delta since ``base`` — per view, the entries that
changed (``set``) and the keys that vanished (``drop``) — under a chain
header: a ``chain_id`` shared by the whole chain, a ``chain_seq``
position and the ``base_file`` it applies on top of. An unchanged entry
is recognized by object identity (dict views replace payloads, never
mutate them) or, for the payload copies slot-stored views export, by
``==``, so the diff is cheap.
:func:`load_checkpoint_chain` (and :func:`restore_checkpoint`, which
uses it) follows ``base_file`` links back to the full snapshot,
validates every link's chain id and sequence, and replays the deltas in
order — the reconstructed state is byte-for-byte the state a full
checkpoint at the head would have held, so chains inherit shard-count
portability unchanged. :func:`checkpoint_sink` alternates full and
incremental writes (``full_every``) and :func:`resolve_chain_head` finds
the newest restorable file of a chain on disk.
"""

from __future__ import annotations

import os
import pickle
import re
import tempfile
import time
import uuid
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import CheckpointError
from repro.testing import faults as _faults

__all__ = [
    "CheckpointInfo",
    "write_checkpoint",
    "read_checkpoint",
    "read_checkpoint_info",
    "restore_checkpoint",
    "load_checkpoint_chain",
    "resolve_chain_head",
    "remove_stale_increments",
    "sweep_stale_tmp_files",
    "checkpoint_sink",
]

#: File magic: identifies a file as an F-IVM checkpoint before any
#: unpickling happens.
MAGIC = b"FIVMCKPT"

#: Version of the on-disk envelope (magic/header/blob layout). Distinct
#: from the *state* format version inside
#: (:attr:`~repro.engine.base.MaintenanceEngine.STATE_FORMAT_VERSION`),
#: which the restoring engine validates.
FILE_VERSION = 1

COMPRESSIONS = ("zlib", "none")


@dataclass(frozen=True)
class CheckpointInfo:
    """Header of one checkpoint file (everything but the state itself)."""

    path: str
    file_version: int
    format_version: int
    strategy: str
    query: str
    payload: str
    compression: str
    created_at: float
    state_bytes: int
    file_bytes: int
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: :meth:`EngineConfig.to_dict` provenance recorded by the exporting
    #: engine (empty for checkpoints written before configs existed).
    config: Dict[str, Any] = field(default_factory=dict)
    #: Incremental-chain header: whether this file holds a delta, the id
    #: shared by its chain, its position in the chain (0 = the full
    #: snapshot) and the file the delta applies on top of (basename,
    #: resolved against this file's directory).
    incremental: bool = False
    chain_id: str = ""
    chain_seq: int = 0
    base_file: str = ""

    def describe(self) -> str:
        """One-line summary for CLI output and logs."""
        ratio = self.state_bytes / self.file_bytes if self.file_bytes else 0.0
        chain = ""
        if self.incremental:
            chain = f" [incremental #{self.chain_seq} on {self.base_file}]"
        return (
            f"{self.path}: query={self.query!r} strategy={self.strategy} "
            f"payload={self.payload} v{self.format_version} "
            f"{self.file_bytes} bytes on disk ({self.state_bytes} raw, "
            f"{self.compression}, {ratio:.1f}x){chain}"
        )


def write_checkpoint(
    engine,
    path: str,
    compression: str = "zlib",
    level: int = 6,
    metadata: Optional[Mapping[str, Any]] = None,
    base: Optional[Tuple[CheckpointInfo, Mapping[str, Any]]] = None,
    state: Optional[Dict[str, Any]] = None,
) -> CheckpointInfo:
    """Export ``engine``'s state and write it to ``path`` atomically.

    ``metadata`` is stored verbatim in the header — callers use it to
    record how to rebuild the stream (dataset, seed, events applied).
    Stick to primitive values (numbers, strings, lists, dicts): the
    header is read back with a restricted unpickler that rejects
    arbitrary objects. Returns the written :class:`CheckpointInfo`.

    ``base=(info, state)`` — the info and *state dict* of the previously
    written checkpoint — switches to an **incremental** write: only the
    view entries that changed since ``base`` (plus the small header
    sections) are persisted, chained to the base file via the header's
    chain fields. Restore the result with :func:`restore_checkpoint`
    (which follows the chain) — ``read_checkpoint`` on it returns the
    raw delta. ``state`` passes a pre-exported state dict so callers
    that keep one for diffing (the sink) export once, not twice.
    """
    if compression not in COMPRESSIONS:
        raise CheckpointError(
            f"unknown compression {compression!r}; expected one of {COMPRESSIONS}"
        )
    if state is None:
        state = engine.export_state()
    chain_header: Dict[str, Any]
    if base is not None:
        base_info, base_state = base
        body_state = _diff_states(state, base_state, base_info, path)
        chain_header = {
            "incremental": True,
            "chain_id": base_info.chain_id or base_info.path,
            "chain_seq": base_info.chain_seq + 1,
            "base_file": os.path.basename(base_info.path),
        }
    else:
        body_state = state
        chain_header = {
            "incremental": False,
            # Fresh chain: every incremental stacked on this snapshot
            # (directly or transitively) inherits this id.
            "chain_id": uuid.uuid4().hex,
            "chain_seq": 0,
            "base_file": "",
        }
    blob = pickle.dumps(body_state, protocol=pickle.HIGHEST_PROTOCOL)
    body = zlib.compress(blob, level) if compression == "zlib" else blob
    header = {
        "file_version": FILE_VERSION,
        "format_version": state.get("format_version"),
        "strategy": str(state.get("strategy")),
        "query": str(state.get("query")),
        "payload": str(state.get("payload")),
        "compression": compression,
        "created_at": time.time(),
        "state_bytes": len(blob),
        "metadata": dict(metadata or {}),
        # EngineConfig provenance travels with the snapshot; primitives
        # only, so the restricted header unpickler admits it.
        "config": dict(state.get("config") or {}),
        **chain_header,
    }
    path = os.fspath(path)
    # Unique scratch name in the target directory: concurrent writers to
    # the same path each publish a complete file via os.replace (last one
    # wins) instead of truncating each other's in-progress temp file.
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    keep_tmp = False
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(MAGIC)
            pickle.dump(header, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.write(body)
        spec = _faults.fire("checkpoint.write")
        if spec is not None and spec.kind == "crash":
            # Simulate a process dying between write and rename: the
            # temp file is orphaned exactly as a SIGKILL here leaves it
            # (the finally below cannot run in a killed process either).
            keep_tmp = True
            raise _faults.InjectedFault(
                f"injected crash before publishing {path!r}"
            )
        os.replace(tmp_path, path)
        spec = _faults.fire("checkpoint.finish")
        if spec is not None and spec.kind == "truncate":
            with open(path, "r+b") as handle:
                handle.truncate(spec.bytes_kept)
    finally:
        if not keep_tmp and os.path.exists(tmp_path):  # pragma: no cover
            os.unlink(tmp_path)
    return _info(path, header, os.path.getsize(path))


def read_checkpoint_info(path: str) -> CheckpointInfo:
    """Read a checkpoint's header without loading (or decompressing) state."""
    with open(path, "rb") as handle:
        header = _read_header(handle, path)
    return _info(path, header, os.path.getsize(path))


def read_checkpoint(path: str) -> Tuple[CheckpointInfo, Dict[str, Any]]:
    """Read a checkpoint file; returns ``(info, engine state dict)``."""
    with open(path, "rb") as handle:
        header = _read_header(handle, path)
        body = handle.read()
    if header["compression"] == "zlib":
        try:
            blob = zlib.decompress(body)
        except zlib.error as exc:
            raise CheckpointError(
                f"corrupt or truncated checkpoint state in {path!r}: {exc}"
            ) from None
    else:
        blob = body
    if len(blob) != header["state_bytes"]:
        raise CheckpointError(
            f"truncated checkpoint {path!r}: state is {len(blob)} bytes, "
            f"header promises {header['state_bytes']}"
        )
    try:
        state = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(
            f"unreadable checkpoint state in {path!r}: {exc!r}"
        ) from None
    return _info(path, header, os.path.getsize(path)), state


def restore_checkpoint(engine, path: str) -> CheckpointInfo:
    """Read ``path`` and import its state into ``engine``.

    Incremental checkpoints are resolved transparently: the chain of
    ``base_file`` links is followed back to the full snapshot and the
    deltas replayed in order (:func:`load_checkpoint_chain`), so
    restoring from a chain head is indistinguishable from restoring a
    full checkpoint written at the same moment.

    The engine validates provenance (query name, state format version,
    payload kind) and raises :class:`~repro.errors.EngineError` on any
    mismatch; file-level corruption or a broken chain raises
    :class:`~repro.errors.CheckpointError`.
    """
    info, state = load_checkpoint_chain(path)
    engine.import_state(state)
    return info


def load_checkpoint_chain(path: str) -> Tuple[CheckpointInfo, Dict[str, Any]]:
    """Load ``path`` and reconstruct the full engine state it denotes.

    A full checkpoint loads directly. An incremental one walks its
    ``base_file`` links (resolved against the file's own directory) back
    to the chain's full snapshot — validating at every link that the
    base exists, shares the delta's ``chain_id`` and sits at exactly the
    preceding ``chain_seq`` — then replays the per-view ``set``/``drop``
    deltas oldest-first. Returns ``(head info, reconstructed state)``.
    """
    info, state = read_checkpoint(path)
    if not info.incremental:
        return info, state
    directory = os.path.dirname(os.fspath(path)) or "."
    deltas: List[Tuple[CheckpointInfo, Dict[str, Any]]] = [(info, state)]
    current = info
    seen = {os.path.abspath(os.fspath(path))}
    while current.incremental:
        if not current.base_file:
            raise CheckpointError(
                f"incremental checkpoint {current.path!r} names no base file"
            )
        base_path = os.path.join(directory, current.base_file)
        if os.path.abspath(base_path) in seen:
            raise CheckpointError(
                f"checkpoint chain at {path!r} is cyclic via {base_path!r}"
            )
        seen.add(os.path.abspath(base_path))
        if not os.path.exists(base_path):
            raise CheckpointError(
                f"incremental checkpoint {current.path!r} needs base "
                f"{base_path!r}, which does not exist — the chain cannot "
                f"be restored; newest restorable full checkpoint: "
                f"{_newest_restorable_full(path)}"
            )
        try:
            base_info, base_state = read_checkpoint(base_path)
        except CheckpointError as exc:
            # Name the broken link (not just the head the caller asked
            # for) and where recovery can still restart from.
            raise CheckpointError(
                f"checkpoint chain at {os.fspath(path)!r} is broken at "
                f"link {base_path!r}: {exc}; newest restorable full "
                f"checkpoint: {_newest_restorable_full(path)}"
            ) from None
        if (
            base_info.chain_id != current.chain_id
            or base_info.chain_seq != current.chain_seq - 1
        ):
            raise CheckpointError(
                f"checkpoint chain broken at {base_path!r}: expected chain "
                f"{current.chain_id!r} seq {current.chain_seq - 1}, found "
                f"chain {base_info.chain_id!r} seq {base_info.chain_seq} — "
                "the base was overwritten by a newer chain"
            )
        deltas.append((base_info, base_state))
        current = base_info
    full_info, full_state = deltas.pop()
    if "views" not in full_state:
        raise CheckpointError(
            f"chain base {full_info.path!r} holds no 'views' section"
        )
    views = {name: dict(data) for name, data in full_state["views"].items()}
    state_out = dict(full_state)
    for delta_info, delta_state in reversed(deltas):
        views_delta = delta_state.get("views_delta")
        if not isinstance(views_delta, dict):
            raise CheckpointError(
                f"incremental checkpoint {delta_info.path!r} holds no "
                "'views_delta' section"
            )
        if set(views_delta) != set(views):
            raise CheckpointError(
                f"incremental checkpoint {delta_info.path!r} covers views "
                f"{sorted(views_delta)} but the chain base holds "
                f"{sorted(views)}"
            )
        for name, change in views_delta.items():
            data = views[name]
            for key in change["drop"]:
                data.pop(key, None)
            data.update(change["set"])
        state_out = dict(delta_state)
        state_out.pop("views_delta", None)
    state_out["views"] = views
    return info, state_out


def _newest_restorable_full(path: str) -> str:
    """Where recovery can restart when a chain link is broken.

    Strips the ``.incN`` suffixes off ``path`` to find the chain's full
    snapshot and checks it is present and itself a full (non-incremental)
    checkpoint; ``'none found'`` otherwise.
    """
    root = re.sub(r"(\.inc\d+)+$", "", os.fspath(path))
    try:
        info = read_checkpoint_info(root)
    except (OSError, CheckpointError):
        return "none found"
    if info.incremental:
        return "none found"
    return repr(root)


def resolve_chain_head(path: str) -> str:
    """The newest restorable checkpoint of the chain rooted at ``path``.

    ``checkpoint_sink(full_every=K)`` writes the full snapshot at
    ``path`` and deltas at ``path.inc1``, ``path.inc2``, …; recovery
    wants the highest increment that still belongs to the *current*
    chain. Walks ``path.incN`` upward while each file exists, parses and
    matches the full snapshot's chain id at the expected sequence —
    stale leftovers from an older chain (or corrupt files) stop the walk
    — and returns the last good path (``path`` itself when no usable
    increment exists).
    """
    info = read_checkpoint_info(path)
    head = os.fspath(path)
    seq = 1
    while True:
        candidate = f"{path}.inc{seq}"
        if not os.path.exists(candidate):
            break
        try:
            candidate_info = read_checkpoint_info(candidate)
        except CheckpointError:
            break
        if (
            not candidate_info.incremental
            or candidate_info.chain_id != info.chain_id
            or candidate_info.chain_seq != seq
        ):
            break
        head = candidate
        seq += 1
    return head


def checkpoint_sink(
    path: str,
    compression: str = "zlib",
    level: int = 6,
    metadata: Optional[Mapping[str, Any]] = None,
    full_every: int = 1,
) -> Callable:
    """Periodic-snapshot callback for ``apply_stream(checkpoint_every=N)``.

    With the default ``full_every=1`` every invocation rewrites ``path``
    atomically in full (latest snapshot wins — recovery wants the most
    recent state, and atomic replace means a crash mid-write leaves the
    previous snapshot intact). ``full_every=K`` amortizes the write
    cost: every K-th checkpoint is a full snapshot at ``path`` and the
    K-1 in between are incremental deltas at ``path.inc1`` …
    ``path.inc(K-1)``, each chained on its predecessor; a new full
    snapshot removes the previous chain's increments. Recover with
    ``restore_checkpoint(engine, resolve_chain_head(path))``. The stream
    position is recorded as ``events_processed`` in the header metadata
    so recovery knows where to resume the stream.
    """
    if full_every < 1:
        raise CheckpointError(f"full_every must be >= 1, got {full_every}")
    #: (info, state) of the last written checkpoint and how many have
    #: been written — closure state; the held state dict freezes its key
    #: dicts at export time, so later maintenance cannot mutate it.
    last: List[Optional[Tuple[CheckpointInfo, Dict[str, Any]]]] = [None]
    written = [0]

    def on_checkpoint(engine, events_processed: int) -> None:
        # Orphans from a previous writer killed mid-write are swept
        # before this writer stages its own scratch file.
        sweep_stale_tmp_files(path)
        meta = dict(metadata or {})
        meta["events_processed"] = events_processed
        position = written[0]
        written[0] += 1
        state = engine.export_state() if full_every > 1 else None
        if last[0] is None or position % full_every == 0:
            info = write_checkpoint(
                engine, path, compression=compression, level=level,
                metadata=meta, state=state,
            )
            remove_stale_increments(path)
        else:
            target = f"{path}.inc{position % full_every}"
            info = write_checkpoint(
                engine, target, compression=compression, level=level,
                metadata=meta, base=last[0], state=state,
            )
        if full_every > 1:
            last[0] = (info, state)

    return on_checkpoint


def remove_stale_increments(path: str) -> None:
    """Drop ``path.incN`` leftovers after a fresh full snapshot lands."""
    seq = 1
    while True:
        candidate = f"{path}.inc{seq}"
        if not os.path.exists(candidate):
            break
        try:
            os.unlink(candidate)
        except OSError:  # pragma: no cover - concurrent cleanup
            break
        seq += 1


def sweep_stale_tmp_files(path: str) -> List[str]:
    """Remove orphaned write-scratch files next to checkpoint ``path``.

    :func:`write_checkpoint` stages into ``<basename>.<random>.tmp`` and
    publishes with an atomic rename; every exit path it controls unlinks
    the scratch file, but a process killed between write and rename
    leaves it behind. This sweeps scratch files matching ``path`` (and
    its ``path.incN`` increments) so a crash-looping writer cannot fill
    the directory with orphans. Only the exact mkstemp pattern is
    touched — never real checkpoints, whose names carry no ``.tmp``
    suffix (``resolve_chain_head`` likewise never looks at them).
    Returns the removed paths.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    pattern = re.compile(
        re.escape(os.path.basename(path)) + r"(\.inc\d+)?\..+\.tmp"
    )
    removed: List[str] = []
    try:
        names = os.listdir(directory)
    except OSError:  # pragma: no cover - directory vanished
        return removed
    for name in names:
        if pattern.fullmatch(name):
            target = os.path.join(directory, name)
            try:
                os.unlink(target)
            except OSError:  # pragma: no cover - concurrent cleanup
                continue
            removed.append(target)
    return removed


def _diff_states(
    state: Mapping[str, Any],
    base_state: Mapping[str, Any],
    base_info: CheckpointInfo,
    path: str,
) -> Dict[str, Any]:
    """The delta body persisted by an incremental write.

    Small header sections (stats, serving, config, shard provenance)
    are copied whole; the ``views`` section — the bulk of any snapshot —
    becomes per-view ``{"set": changed entries, "drop": vanished keys}``.
    Unchanged entries are recognized by object identity first (dict
    views replace payloads, never mutate them, so an untouched entry
    keeps its object across exports) with a guarded ``==`` fallback —
    which is what recognizes them in exports of slot-stored views, whose
    payloads are fresh copies each time; payloads whose equality is
    unknowable are re-included, which is always correct, just larger.
    """
    views = state.get("views")
    base_views = base_state.get("views")
    if not isinstance(views, dict) or not isinstance(base_views, dict):
        raise CheckpointError(
            f"incremental checkpoint {path!r} needs 'views' snapshots on "
            "both sides (naive/first-order engines checkpoint full state "
            "only)"
        )
    for field_name in ("query", "payload", "format_version"):
        if state.get(field_name) != base_state.get(field_name):
            raise CheckpointError(
                f"cannot chain {path!r} on {base_info.path!r}: "
                f"{field_name} changed from "
                f"{base_state.get(field_name)!r} to {state.get(field_name)!r}"
            )
    if set(views) != set(base_views):
        raise CheckpointError(
            f"cannot chain {path!r} on {base_info.path!r}: view set "
            f"changed from {sorted(base_views)} to {sorted(views)}"
        )
    views_delta: Dict[str, Dict[str, Any]] = {}
    for name, data in views.items():
        base_data = base_views[name]
        changed = {
            key: payload
            for key, payload in data.items()
            if not _payload_unchanged(base_data.get(key, _MISSING), payload)
        }
        dropped = [key for key in base_data if key not in data]
        views_delta[name] = {"set": changed, "drop": dropped}
    delta = {key: value for key, value in state.items() if key != "views"}
    delta["views_delta"] = views_delta
    return delta


#: Sentinel distinguishing "key absent" from any real payload.
_MISSING = object()


def _payload_unchanged(old: Any, new: Any) -> bool:
    if old is new:
        return True
    if old is _MISSING:
        return False
    try:
        equal = old == new
    except Exception:
        return False
    # Rich results (numpy arrays, payloads without a boolean ==) are
    # "unknown" — keep the entry rather than guess.
    return equal is True


# ----------------------------------------------------------------------


class _HeaderUnpickler(pickle.Unpickler):
    """Primitive-values-only unpickler for checkpoint headers.

    Headers hold nothing but dicts, strings and numbers, so any GLOBAL
    opcode is either corruption or a code-execution payload — refuse it.
    """

    def find_class(self, module, name):
        raise CheckpointError(
            f"checkpoint header references {module}.{name}; headers may "
            "only contain primitive values"
        )


def _read_header(handle, path: str) -> Dict[str, Any]:
    magic = handle.read(len(MAGIC))
    if len(magic) < len(MAGIC):
        what = "an empty file" if not magic else f"only {len(magic)} bytes"
        raise CheckpointError(
            f"truncated checkpoint {path!r}: {what}, shorter than the "
            f"{len(MAGIC)}-byte magic"
        )
    if magic != MAGIC:
        raise CheckpointError(
            f"{path!r} is not an F-IVM checkpoint (bad magic {magic!r})"
        )
    try:
        header = _HeaderUnpickler(handle).load()
    except CheckpointError:
        raise
    except EOFError:
        raise CheckpointError(
            f"truncated checkpoint {path!r}: file ends inside the header"
        ) from None
    except Exception as exc:
        raise CheckpointError(
            f"corrupt checkpoint header in {path!r}: {exc!r}"
        ) from None
    if not isinstance(header, dict):
        raise CheckpointError(
            f"corrupt checkpoint header in {path!r}: not a mapping"
        )
    version = header.get("file_version")
    if version != FILE_VERSION:
        raise CheckpointError(
            f"unknown checkpoint file version {version!r} in {path!r}; "
            f"this build reads version {FILE_VERSION}"
        )
    compression = header.get("compression")
    if compression not in COMPRESSIONS:
        raise CheckpointError(
            f"unknown compression {compression!r} in {path!r}"
        )
    missing = [
        key
        for key in (
            "format_version", "strategy", "query", "payload",
            "created_at", "state_bytes",
        )
        if key not in header
    ]
    if missing:
        raise CheckpointError(
            f"corrupt checkpoint header in {path!r}: missing {missing}"
        )
    return header


def _info(path: str, header: Mapping[str, Any], file_bytes: int) -> CheckpointInfo:
    return CheckpointInfo(
        path=os.fspath(path),
        file_version=int(header["file_version"]),
        format_version=int(header["format_version"]),
        strategy=header["strategy"],
        query=header["query"],
        payload=header["payload"],
        compression=header["compression"],
        created_at=float(header["created_at"]),
        state_bytes=int(header["state_bytes"]),
        file_bytes=int(file_bytes),
        metadata=dict(header.get("metadata") or {}),
        config=dict(header.get("config") or {}),
        # Chain fields absent from pre-incremental files read as a plain
        # full checkpoint with no chain identity.
        incremental=bool(header.get("incremental", False)),
        chain_id=str(header.get("chain_id", "")),
        chain_seq=int(header.get("chain_seq", 0)),
        base_file=str(header.get("base_file", "")),
    )
