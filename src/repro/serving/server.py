"""Asyncio HTTP front end over engine snapshots (many readers, one writer).

The demo paper's web UI reads models *while* updates stream in; this
module is that read path as a service. One writer thread ingests updates
and publishes epochs (:meth:`MaintenanceEngine.publish`); an asyncio
event loop serves any number of concurrent readers from
:meth:`MaintenanceEngine.latest_snapshot` — a lock-free pointer read —
so read latency is independent of ingest activity and readers never
observe a torn state.

Layers, separable on purpose:

- :class:`ServingApp` — transport-free request handling: maps
  ``(path, params)`` to ``(status, JSON body)`` against the engine's
  latest snapshot, with per-epoch caches for the derived read models
  (COVAR matrix, ridge fit, MI ranking). Tests can drive it directly.
- :class:`SnapshotServer` — a minimal HTTP/1.1 server (stdlib asyncio,
  keep-alive) around a :class:`ServingApp`.
- :class:`ServerThread` / :class:`IngestThread` — run the event loop and
  the writer in daemon threads, for ``repro serve``, the load generator
  and the concurrency tests.

Endpoints (all ``GET``, all JSON):

- ``/covar`` — the expanded COVAR matrix (COVAR payloads);
- ``/predict?attr=value&...`` — ridge prediction for one row;
- ``/model`` — the fitted ridge model's coefficients and fit stats;
- ``/topk?k=N`` — top-k features by mutual information (MI payloads);
- ``/result`` — the raw root view entries (any payload);
- ``/healthz`` — liveness + staleness (epoch, event offset, age);
- ``/stats`` — read counters, engine counters, stream provenance.

Data endpoints return 503 before the first publish, 409 when the
engine's payload ring does not carry the requested model, 400 on bad
arguments and 404 on unknown paths. Every data response carries the
serving ``epoch`` and ``event_offset`` so a reader can verify it against
a batch evaluation at exactly that stream position.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.engine.base import MaintenanceEngine
from repro.errors import EngineError, FIVMError
from repro.ml.covar import CovarMatrix, covar_from_payload
from repro.ml.mi import mutual_information_matrix
from repro.ml.model_selection import FeatureRanking, rank_features
from repro.ml.regression import RidgeModel, RidgeRegression
from repro.rings.specs import CovarSpec, MISpec
from repro.serving.snapshot import EngineSnapshot

__all__ = ["ServingApp", "SnapshotServer", "ServerThread", "IngestThread"]


def _coerce(text: str) -> Any:
    """Query-string value -> int, float or string (best effort)."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _json_scalar(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


class ServingApp:
    """Transport-free request handler over one engine's snapshots.

    The app never touches live engine state: every read goes through
    :meth:`MaintenanceEngine.latest_snapshot`, so it is safe to call
    from any thread while a single writer ingests and publishes.
    Derived read models are cached per epoch — one COVAR expansion /
    ridge fit / MI ranking per published version, shared by all readers
    of that epoch.

    Parameters
    ----------
    engine:
        The maintained engine; the writer publishes into it.
    regression_label:
        Label attribute for ``/predict`` and ``/model`` (COVAR payloads).
    mi_label:
        Label attribute for ``/topk`` rankings (MI payloads).
    position_source:
        Zero-argument callable returning the live stream position
        (consumed events); staleness in ``/healthz`` is computed against
        it. ``None`` leaves staleness unreported.
    metadata:
        Provenance dict echoed under ``/stats`` — ``repro serve`` puts
        the dataset/seed/batch-size recipe here so an external reader
        can rebuild the exact stream and verify served results.
    degraded_source:
        Zero-argument callable returning a human-readable reason when
        serving is *degraded* — the writer died or the engine is mid
        recovery — and ``None`` when healthy. Degraded serving stays up:
        data endpoints keep answering from the last published snapshot
        and ``/healthz``/``/stats`` report ``degraded: true`` with the
        reason and staleness instead of failing, so load balancers see a
        live-but-stale replica, not an outage.
    """

    def __init__(
        self,
        engine: MaintenanceEngine,
        regression_label: Optional[str] = None,
        mi_label: Optional[str] = None,
        position_source: Optional[Callable[[], int]] = None,
        metadata: Optional[Mapping[str, Any]] = None,
        degraded_source: Optional[Callable[[], Optional[str]]] = None,
    ):
        self.engine = engine
        self.regression_label = regression_label
        self.mi_label = mi_label
        self.position_source = position_source
        self.degraded_source = degraded_source
        self.metadata = dict(metadata or {})
        spec = engine.query.spec
        self._is_covar = isinstance(spec, CovarSpec)
        self._is_mi = isinstance(spec, MISpec)
        self._plan = getattr(engine, "plan", None)
        if self._plan is None:
            self._plan = engine.tree.plan
        # Per-epoch caches: (epoch, value). Single-writer-per-epoch is
        # not required — recomputation is idempotent — so a benign race
        # between reader threads at worst derives the model twice.
        self._covar_cache: Tuple[int, Optional[CovarMatrix]] = (0, None)
        self._model_cache: Tuple[int, Optional[RidgeModel]] = (0, None)
        self._ranking_cache: Tuple[int, Optional[FeatureRanking]] = (0, None)
        self.reads = 0
        self.errors = 0
        self.reads_by_endpoint: Dict[str, int] = {}
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Derived read models (cached per epoch)
    # ------------------------------------------------------------------

    def _root_payload(self, snapshot: EngineSnapshot):
        result = snapshot.result
        if result.schema != ():
            raise FIVMError(
                f"root view keyed by {result.schema!r}; model endpoints "
                "need a fully aggregated query"
            )
        return result.payload(())

    def _covar(self, snapshot: EngineSnapshot) -> CovarMatrix:
        epoch, cached = self._covar_cache
        if cached is not None and epoch == snapshot.epoch:
            return cached
        covar = covar_from_payload(self._root_payload(snapshot), self._plan)
        self._covar_cache = (snapshot.epoch, covar)
        return covar

    def _model(self, snapshot: EngineSnapshot) -> RidgeModel:
        epoch, cached = self._model_cache
        if cached is not None and epoch == snapshot.epoch:
            return cached
        covar = self._covar(snapshot)
        features = tuple(
            feature.name
            for feature in self._plan.features
            if feature.name != self.regression_label
        )
        solver = RidgeRegression(features, self.regression_label)
        # The Regression tab's own solve: one direct solve of the
        # standardized system per epoch, needing no previous model, so a read
        # that lands on any epoch gets that epoch's exact model.
        model = solver.fit_closed_form(covar)
        self._model_cache = (snapshot.epoch, model)
        return model

    def _ranking(self, snapshot: EngineSnapshot) -> FeatureRanking:
        epoch, cached = self._ranking_cache
        if cached is not None and epoch == snapshot.epoch:
            return cached
        mi = mutual_information_matrix(self._root_payload(snapshot), self._plan)
        ranking = rank_features(mi, self.mi_label)
        self._ranking_cache = (snapshot.epoch, ranking)
        return ranking

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    @staticmethod
    def _envelope(snapshot: EngineSnapshot) -> Dict[str, Any]:
        body = {
            "epoch": snapshot.epoch,
            "event_offset": snapshot.event_offset,
            "published_at": snapshot.published_at,
        }
        if snapshot.window is not None:
            # Windowed ingest: the live event-time interval this epoch
            # answers for.
            body["window"] = list(snapshot.window)
        return body

    def _position(self) -> Optional[int]:
        if self.position_source is None:
            return None
        return int(self.position_source())

    def _degraded_reason(self) -> Optional[str]:
        if self.degraded_source is None:
            return None
        try:
            reason = self.degraded_source()
        except Exception as exc:  # pragma: no cover - defensive
            return f"degraded-source probe failed: {exc!r}"
        return None if reason is None else str(reason)

    def handle(
        self, path: str, params: Optional[Mapping[str, str]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        """Serve one request; returns ``(http_status, body)``."""
        params = dict(params or {})
        self.reads += 1
        self.reads_by_endpoint[path] = self.reads_by_endpoint.get(path, 0) + 1
        try:
            status, body = self._dispatch(path, params)
        except (EngineError, FIVMError) as exc:
            status, body = 500, {"error": str(exc)}
        if status >= 400:
            self.errors += 1
        return status, body

    def _dispatch(
        self, path: str, params: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        if path == "/healthz":
            return self._healthz()
        if path == "/stats":
            return self._stats()
        if path not in ("/covar", "/predict", "/model", "/topk", "/result"):
            return 404, {"error": f"unknown endpoint {path!r}"}
        snapshot = self.engine.latest_snapshot()
        if snapshot is None:
            return 503, {"error": "no snapshot published yet", "epoch": 0}
        if path == "/result":
            return self._result(snapshot)
        if path == "/topk":
            if not self._is_mi or self.mi_label is None:
                return 409, {
                    "error": "payload carries no MI model (serve --payload mi)"
                }
            return self._topk(snapshot, params)
        if not self._is_covar:
            return 409, {
                "error": "payload carries no COVAR matrix (serve --payload covar)"
            }
        if path == "/covar":
            return self._covar_endpoint(snapshot)
        if self.regression_label is None:
            return 409, {"error": "no regression label configured"}
        if path == "/model":
            return self._model_endpoint(snapshot)
        return self._predict(snapshot, params)

    def _healthz(self) -> Tuple[int, Dict[str, Any]]:
        snapshot = self.engine.latest_snapshot()
        reason = self._degraded_reason()
        body: Dict[str, Any] = {
            # Degraded is still 200: the replica answers reads from its
            # last snapshot, which is exactly what it advertises here.
            "status": (
                "degraded" if reason is not None
                else "ok" if snapshot is not None else "warming"
            ),
            "degraded": reason is not None,
            "strategy": self.engine.strategy,
            "query": self.engine.query.name,
        }
        if reason is not None:
            body["degraded_reason"] = reason
        position = self._position()
        if position is not None:
            body["position"] = position
        if snapshot is not None:
            body.update(self._envelope(snapshot))
            body["age_s"] = round(snapshot.age(), 6)
            if position is not None:
                body["staleness"] = snapshot.staleness(position)
        return 200, body

    def _stats(self) -> Tuple[int, Dict[str, Any]]:
        snapshot = self.engine.latest_snapshot()
        reason = self._degraded_reason()
        body: Dict[str, Any] = {
            "serving": {
                "reads": self.reads,
                "errors": self.errors,
                "by_endpoint": dict(self.reads_by_endpoint),
                "uptime_s": round(time.time() - self._started_at, 3),
            },
            "degraded": reason is not None,
            "metadata": dict(self.metadata),
        }
        if reason is not None:
            body["degraded_reason"] = reason
        try:
            body["health"] = self.engine.health()
        except Exception:  # pragma: no cover - defensive
            pass
        position = self._position()
        if position is not None:
            body["position"] = position
        if snapshot is not None:
            body.update(self._envelope(snapshot))
            body["engine"] = dict(snapshot.stats)
        return 200, body

    def _result(self, snapshot: EngineSnapshot) -> Tuple[int, Dict[str, Any]]:
        entries = [
            {"key": [_json_scalar(part) for part in key], "payload": _json_scalar(payload)}
            for key, payload in sorted(
                snapshot.result.data.items(), key=lambda item: repr(item[0])
            )
        ]
        body = self._envelope(snapshot)
        body["schema"] = list(snapshot.result.schema)
        body["entries"] = entries
        return 200, body

    def _covar_endpoint(self, snapshot: EngineSnapshot) -> Tuple[int, Dict[str, Any]]:
        covar = self._covar(snapshot)
        body = self._envelope(snapshot)
        body.update(
            {
                "count": covar.count,
                "columns": [column.label for column in covar.columns],
                "sums": covar.sums.tolist(),
                "moments": covar.moments.tolist(),
            }
        )
        return 200, body

    def _model_endpoint(self, snapshot: EngineSnapshot) -> Tuple[int, Dict[str, Any]]:
        model = self._model(snapshot)
        body = self._envelope(snapshot)
        body.update(
            {
                "label": model.label,
                "intercept": model.intercept,
                "coefficients": model.coefficients(),
                "iterations": model.iterations,
                "converged": model.converged,
                "gradient_norm": model.gradient_norm,
                "training_rmse": model.training_rmse,
            }
        )
        return 200, body

    def _predict(
        self, snapshot: EngineSnapshot, params: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        model = self._model(snapshot)
        row = {name: _coerce(value) for name, value in params.items()}
        needed = {column.attribute for column in model.feature_columns}
        missing = sorted(needed - set(row))
        if missing:
            return 400, {
                "error": f"missing feature parameters {missing}",
                "features": sorted(needed),
            }
        body = self._envelope(snapshot)
        body["prediction"] = model.predict(row)
        body["label"] = model.label
        body["row"] = {name: _json_scalar(value) for name, value in row.items()}
        return 200, body

    def _topk(
        self, snapshot: EngineSnapshot, params: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        ranking = self._ranking(snapshot)
        k = len(ranking.ranked)
        if "k" in params:
            try:
                k = int(params["k"])
            except ValueError:
                return 400, {"error": f"k must be an integer, got {params['k']!r}"}
            if k < 1:
                return 400, {"error": "k must be at least 1"}
        body = self._envelope(snapshot)
        body["label"] = ranking.label
        body["k"] = min(k, len(ranking.ranked))
        body["ranking"] = [
            [attribute, score] for attribute, score in ranking.ranked[:k]
        ]
        return 200, body


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------


class SnapshotServer:
    """Minimal asyncio HTTP/1.1 server around a :class:`ServingApp`.

    GET-only, JSON-only, keep-alive by default (HTTP/1.1 semantics) —
    enough for the load generator's persistent reader connections
    without pulling in any dependency beyond the standard library.
    """

    def __init__(self, app: ServingApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                try:
                    method, target, version = (
                        request_line.decode("latin-1").strip().split(" ", 2)
                    )
                except ValueError:
                    await self._respond(
                        writer, 400, {"error": "malformed request line"}, close=True
                    )
                    break
                close = version.upper() == "HTTP/1.0"
                while True:  # drain headers; honor Connection: close
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    if name.strip().lower() == "connection":
                        token = value.strip().lower()
                        close = token == "close" or (
                            version.upper() == "HTTP/1.0" and token != "keep-alive"
                        )
                if method.upper() != "GET":
                    await self._respond(
                        writer,
                        405,
                        {"error": f"method {method} not allowed (GET only)"},
                        close=close,
                    )
                    if close:
                        break
                    continue
                split = urlsplit(target)
                params = dict(parse_qsl(split.query))
                status, body = self.app.handle(split.path, params)
                await self._respond(writer, status, body, close=close)
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels idle keep-alive handlers; finish the
            # task normally so shutdown stays quiet.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (
                ConnectionResetError, BrokenPipeError, asyncio.CancelledError
            ):
                # CancelledError: teardown landed while a just-closed
                # connection was still in wait_closed() — same quiet
                # finish as in the body above.
                pass

    _REASONS = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        409: "Conflict",
        500: "Internal Server Error",
        503: "Service Unavailable",
    }

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: Dict[str, Any],
        close: bool,
    ) -> None:
        payload = json.dumps(body).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self._REASONS.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + payload)
        await writer.drain()


class ServerThread:
    """A :class:`SnapshotServer` on its own event loop in a daemon thread.

    ``start()`` blocks until the listening socket is bound, so ``port``
    (0 = ephemeral) is always the real port after it returns. ``stop()``
    shuts the loop down and joins the thread.
    """

    def __init__(self, app: ServingApp, host: str = "127.0.0.1", port: int = 0):
        self.app = app
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self.error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise EngineError("serving thread failed to bind within timeout")
        if self.error is not None:
            raise EngineError(f"serving thread failed to start: {self.error}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc
            self._ready.set()

    async def _main(self) -> None:
        server = SnapshotServer(self.app, host=self.host, port=self.port)
        await server.start()
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await server.stop()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout)

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------


class IngestThread(threading.Thread):
    """The single writer: streams events into the engine, publishing
    every flushed batch.

    Exposes a monotonically increasing :attr:`consumed` counter for
    staleness reporting (readers may poll it from other threads) and the
    ingest wall-clock so the load generator can report writer throughput
    under concurrent readers.

    ``pace`` sleeps that many seconds after every ``batch_size`` consumed
    events. The default (0.0) still calls ``time.sleep(0)`` at batch
    boundaries: maintenance holds the GIL in long C-level stretches, and
    on small machines an unpaced writer starves the reader event loop —
    one explicit yield per batch keeps read tail latency bounded without
    measurably slowing ingest. Pass ``pace=None`` to never yield.

    ``checkpoint_every``/``on_checkpoint`` pass straight through to
    :meth:`~repro.engine.base.MaintenanceEngine.apply_stream` — the
    serving writer can persist periodic snapshots exactly as the batch
    CLI does. :meth:`stop` requests a graceful drain: the stream cuts
    off at the next event boundary (already-consumed events stay
    applied), so signal handlers can stop ingest, flush a final
    checkpoint and close the engine deterministically.
    """

    def __init__(
        self,
        engine: MaintenanceEngine,
        events: Iterable[Tuple[str, Tuple, int]],
        batch_size: int = 500,
        pace: Optional[float] = 0.0,
        name: str = "repro-ingest",
        checkpoint_every: int = 0,
        on_checkpoint: Optional[Callable[[MaintenanceEngine, int], None]] = None,
    ):
        super().__init__(name=name, daemon=True)
        self.engine = engine
        self.events = events
        self.batch_size = batch_size
        self.pace = pace
        self.checkpoint_every = checkpoint_every
        self.on_checkpoint = on_checkpoint
        self.consumed = 0
        self.seconds = 0.0
        self.error: Optional[BaseException] = None
        self._stop_requested = threading.Event()

    def stop(self) -> None:
        """Ask the writer to drain at the next event boundary."""
        self._stop_requested.set()

    @property
    def stopping(self) -> bool:
        return self._stop_requested.is_set()

    def _counted(self) -> Iterable[Tuple[str, Tuple, int]]:
        for event in self.events:
            if self._stop_requested.is_set():
                return
            yield event
            # After the yield: apply_stream has batched (and possibly
            # flushed + published) the event by the time we count it, so
            # `consumed` never runs ahead of the published offset and
            # reported staleness is never negative.
            self.consumed += 1
            if self.pace is not None and self.consumed % self.batch_size == 0:
                time.sleep(self.pace)

    def run(self) -> None:
        started = time.perf_counter()
        try:
            self.engine.apply_stream(
                self._counted(),
                batch_size=self.batch_size,
                checkpoint_every=self.checkpoint_every,
                on_checkpoint=self.on_checkpoint,
                publish_batches=True,
                # _counted() hides the stream object, so forward its
                # window-bounds hook (if any) for snapshot provenance.
                window_bounds=getattr(self.events, "current_bounds", None),
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced via .error
            self.error = exc
        finally:
            self.seconds = time.perf_counter() - started

    @property
    def throughput(self) -> float:
        """Consumed events per second of ingest wall-clock."""
        return self.consumed / self.seconds if self.seconds > 0 else 0.0
