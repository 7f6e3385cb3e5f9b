"""Serving front end: endpoints, HTTP transport, concurrency, restore."""

import http.client
import json
import logging
import threading

import pytest

from repro.datasets import UpdateStream, toy_database, toy_row_factories
from repro.engine import FIVMEngine
from repro.ml.covar import covar_from_payload
from repro.ml.mi import mutual_information_matrix
from repro.ml.model_selection import rank_features
from repro.ml.regression import RidgeRegression
from repro.serving import IngestThread, ServerThread, ServingApp, build_serving_scenario

VOLATILE = ("published_at",)


def strip_volatile(body):
    return {k: v for k, v in body.items() if k not in VOLATILE}


def scenario_app(payload, apply_events=0, publish=True):
    """An initialized toy engine + app, optionally warmed with updates."""
    scenario = build_serving_scenario("toy", payload)
    engine = scenario.engine()
    if apply_events:
        events = scenario.stream(batch_size=50).tuples(apply_events)
        engine.apply_stream(events, batch_size=50)
    if publish:
        engine.publish(event_offset=apply_events)
    app = ServingApp(
        engine,
        regression_label=scenario.regression_label,
        mi_label=scenario.mi_label,
        metadata=scenario.provenance(batch_size=50, insert_ratio=0.7),
    )
    return scenario, engine, app


class TestServingAppEndpoints:
    def test_data_endpoints_503_before_first_publish(self):
        _, _, app = scenario_app("covar", publish=False)
        for path in ("/covar", "/model", "/predict", "/result", "/topk"):
            status, body = app.handle(path)
            assert status == 503, path
            assert body["epoch"] == 0
        status, body = app.handle("/healthz")
        assert status == 200
        assert body["status"] == "warming"

    def test_unknown_endpoint_404(self):
        _, _, app = scenario_app("covar")
        status, body = app.handle("/nope")
        assert status == 404
        assert "unknown endpoint" in body["error"]

    def test_covar_payload_serves_matrix_model_prediction(self):
        _, engine, app = scenario_app("covar", apply_events=150)
        snapshot = engine.latest_snapshot()

        status, covar_body = app.handle("/covar")
        assert status == 200
        assert covar_body["epoch"] == snapshot.epoch
        assert covar_body["event_offset"] == 150
        expected = covar_from_payload(snapshot.result.payload(()), engine.plan)
        assert covar_body["count"] == expected.count
        assert covar_body["sums"] == expected.sums.tolist()
        assert covar_body["moments"] == expected.moments.tolist()

        status, model_body = app.handle("/model")
        assert status == 200
        solver = RidgeRegression(("B", "C"), "D")
        reference = solver.fit_closed_form(expected)
        assert model_body["label"] == "D"
        assert model_body["intercept"] == reference.intercept
        assert model_body["coefficients"] == reference.coefficients()
        assert model_body["converged"] == reference.converged
        assert model_body["gradient_norm"] == reference.gradient_norm

        status, prediction = app.handle("/predict", {"B": "2", "C": "3"})
        assert status == 200
        assert prediction["prediction"] == reference.predict({"B": 2, "C": 3})
        assert prediction["row"] == {"B": 2, "C": 3}

    def test_predict_missing_features_400(self):
        _, _, app = scenario_app("covar", apply_events=60)
        status, body = app.handle("/predict", {"B": "2"})
        assert status == 400
        assert "C" in body["error"]
        assert body["features"] == ["B", "C"]

    def test_topk_on_covar_payload_409(self):
        _, _, app = scenario_app("covar")
        status, body = app.handle("/topk")
        assert status == 409
        assert "MI" in body["error"]

    def test_model_endpoints_on_count_payload_409(self):
        _, _, app = scenario_app("count", apply_events=60)
        for path in ("/covar", "/model", "/predict"):
            status, body = app.handle(path)
            assert status == 409, path
            assert "COVAR" in body["error"]
        # /result works for any payload.
        status, body = app.handle("/result")
        assert status == 200
        assert body["schema"] == []

    def test_mi_payload_ranks_features(self):
        _, engine, app = scenario_app("mi", apply_events=120)
        snapshot = engine.latest_snapshot()
        mi = mutual_information_matrix(snapshot.result.payload(()), engine.plan)
        expected = rank_features(mi, "B")

        status, body = app.handle("/topk")
        assert status == 200
        assert body["label"] == "B"
        assert body["ranking"] == [list(pair) for pair in expected.ranked]

        status, top1 = app.handle("/topk", {"k": "1"})
        assert status == 200
        assert top1["k"] == 1
        assert top1["ranking"] == [list(expected.ranked[0])]

    @pytest.mark.parametrize("bad_k", ["0", "-3", "two"])
    def test_topk_rejects_bad_k(self, bad_k):
        _, _, app = scenario_app("mi", apply_events=60)
        status, body = app.handle("/topk", {"k": bad_k})
        assert status == 400
        assert "k must be" in body["error"]

    def test_stats_echoes_provenance_and_counts_reads(self):
        scenario, _, app = scenario_app("covar", apply_events=60)
        app.handle("/covar")
        app.handle("/covar")
        app.handle("/nope")
        status, body = app.handle("/stats")
        assert status == 200
        assert body["metadata"] == scenario.provenance(batch_size=50, insert_ratio=0.7)
        assert body["serving"]["reads"] == 4
        assert body["serving"]["errors"] == 1
        assert body["serving"]["by_endpoint"]["/covar"] == 2
        assert body["engine"] == dict(app.engine.latest_snapshot().stats)

    def test_healthz_reports_staleness_against_position(self):
        _, engine, app = scenario_app("covar", apply_events=100)
        app.position_source = lambda: 130
        status, body = app.handle("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["epoch"] == engine.latest_snapshot().epoch
        assert body["position"] == 130
        assert body["staleness"] == 30
        assert body["age_s"] >= 0


class TestHTTPTransport:
    def start(self, app):
        server = ServerThread(app, port=0)
        server.start()
        return server

    def get(self, server, path, method="GET"):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def test_http_responses_match_direct_dispatch(self):
        _, _, app = scenario_app("covar", apply_events=100)
        server = self.start(app)
        try:
            for path in ("/covar", "/model", "/result"):
                http_status, http_body = self.get(server, path)
                direct_status, direct_body = app.handle(path)
                assert (http_status, http_body) == (direct_status, direct_body)
            status, body = self.get(server, "/predict?B=2&C=3")
            assert status == 200
            assert body["row"] == {"B": 2, "C": 3}
            assert self.get(server, "/nope")[0] == 404
        finally:
            server.stop()

    def test_keep_alive_serves_many_requests_per_connection(self):
        _, _, app = scenario_app("covar", apply_events=60)
        server = self.start(app)
        try:
            conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
            try:
                epochs = []
                for _ in range(5):
                    conn.request("GET", "/covar")
                    response = conn.getresponse()
                    assert response.status == 200
                    epochs.append(json.loads(response.read())["epoch"])
                assert epochs == [1] * 5
            finally:
                conn.close()
        finally:
            server.stop()

    def test_non_get_methods_405(self):
        _, _, app = scenario_app("covar", apply_events=60)
        server = self.start(app)
        try:
            status, body = self.get(server, "/covar", method="POST")
            assert status == 405
            assert "GET only" in body["error"]
        finally:
            server.stop()

    def test_stop_while_a_closed_connection_drains_logs_nothing(self, caplog):
        # stop() can land while the handler of a connection the client
        # just closed is still in wait_closed(); being cancelled there
        # must not surface as a CancelledError traceback on the asyncio
        # logger. Several rounds: the window is a scheduling race.
        _, _, app = scenario_app("covar", apply_events=60)
        with caplog.at_level(logging.WARNING, logger="asyncio"):
            for _ in range(10):
                server = self.start(app)
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=10
                )
                conn.request("GET", "/healthz")  # HTTP/1.1: keep-alive
                assert conn.getresponse().read()
                conn.close()
                server.stop()
        assert [r for r in caplog.records if r.name == "asyncio"] == []


def count_engine():
    scenario = build_serving_scenario("toy", "count")
    return scenario, scenario.engine()


def expected_bodies_by_offset(events, batch_size):
    """offset -> /result body, replayed on a fresh engine post hoc."""
    _, engine = count_engine()
    app = ServingApp(engine)
    expected = {}
    original = engine.publish

    def recording(event_offset=None, window=None):
        snapshot = original(event_offset=event_offset, window=window)
        expected[event_offset] = strip_volatile(app.handle("/result")[1])
        return snapshot

    engine.publish = recording
    engine.publish(event_offset=0)
    engine.apply_stream(iter(events), batch_size=batch_size, publish_batches=True)
    return expected


class TestConcurrentReaders:
    def test_readers_observe_only_fully_published_epochs(self):
        """No torn reads: every concurrent /result body equals the batch
        evaluation replayed at exactly the served event offset."""
        scenario, engine = count_engine()
        batch_size = 50
        events = list(scenario.stream(batch_size=batch_size).tuples(2000))
        expected = expected_bodies_by_offset(events, batch_size)

        engine.publish(event_offset=0)
        ingest = IngestThread(engine, iter(events), batch_size=batch_size)
        app = ServingApp(engine, position_source=lambda: ingest.consumed)
        observations = [[] for _ in range(4)]
        stop = threading.Event()

        def reader(slot):
            while not stop.is_set():
                status, body = app.handle("/result")
                observations[slot].append((status, strip_volatile(body)))

        readers = [
            threading.Thread(target=reader, args=(slot,), daemon=True)
            for slot in range(len(observations))
        ]
        for thread in readers:
            thread.start()
        ingest.start()
        ingest.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=10)

        assert ingest.error is None
        assert ingest.consumed == len(events)
        assert engine.latest_snapshot().event_offset == len(events)
        for recorded in observations:
            assert recorded, "reader thread made no reads"
            offsets = []
            for status, body in recorded:
                assert status == 200
                offset = body["event_offset"]
                # Exactly a published boundary, never an intermediate state.
                assert body == expected[offset]
                offsets.append(offset)
            assert offsets == sorted(offsets), "epochs went backwards"

    def test_healthz_staleness_bounded_by_one_batch_after_ingest(self):
        scenario, engine = count_engine()
        events = list(scenario.stream(batch_size=40).tuples(500))
        engine.publish(event_offset=0)
        ingest = IngestThread(engine, iter(events), batch_size=40)
        app = ServingApp(engine, position_source=lambda: ingest.consumed)
        ingest.start()
        ingest.join(timeout=60)
        assert ingest.error is None
        status, body = app.handle("/healthz")
        assert status == 200
        # consumed counts behind apply_stream's batching, so the final
        # published offset covers every consumed event: staleness 0.
        assert body["staleness"] == 0
        assert body["event_offset"] == len(events)


class TestServeAfterRestore:
    def test_restored_engine_serves_identical_bodies(self):
        scenario = build_serving_scenario("toy", "covar")
        engine = scenario.engine()
        events = scenario.stream(batch_size=50).tuples(200)
        engine.apply_stream(events, batch_size=50, publish_batches=True)
        app = ServingApp(engine, regression_label=scenario.regression_label)
        before = {path: app.handle(path) for path in ("/covar", "/model", "/result")}

        restored = FIVMEngine(scenario.query, order=scenario.order)
        restored.import_state(engine.export_state())
        restored_app = ServingApp(
            restored, regression_label=scenario.regression_label
        )
        # No new publish needed: the restored engine serves immediately,
        # and published_at survives, so bodies match bit for bit.
        for path, (status, body) in before.items():
            assert restored_app.handle(path) == (status, body), path

    def test_restore_mid_stream_then_resume_publishing(self):
        scenario = build_serving_scenario("toy", "count")
        engine = scenario.engine()
        events = list(scenario.stream(batch_size=50).tuples(400))
        engine.apply_stream(iter(events[:200]), batch_size=50, publish_batches=True)

        restored = FIVMEngine(scenario.query, order=scenario.order)
        restored.import_state(engine.export_state())
        resumed_epoch = restored.latest_snapshot().epoch
        restored.apply_stream(iter(events[200:]), batch_size=50, publish_batches=True)

        # Continues the epoch sequence and converges to the full-stream state.
        assert restored.latest_snapshot().epoch > resumed_epoch
        reference = scenario.engine()
        reference.apply_stream(iter(events), batch_size=50)
        assert restored.result().data == reference.result().data


class TestTimeAwareServing:
    """The serve wiring end to end: --engine-* argv -> EngineConfig ->
    windowed/decayed ingest -> /stats round trip."""

    def _serve_config(self, *extra):
        from repro.cli import build_parser
        from repro.config import engine_config_from_args

        return engine_config_from_args(
            build_parser().parse_args(["serve", *extra])
        )

    def test_window_argv_reaches_stats_envelope(self):
        from repro.data import WindowedStream

        config = self._serve_config("--engine-window", "sliding:40/20")
        assert config.window == "sliding:40/20"
        scenario = build_serving_scenario("toy", "count")
        engine = scenario.engine(config=config)
        engine.publish(event_offset=0)
        events = WindowedStream(
            config.window_spec(), scenario.stream(batch_size=25).tuples(100)
        )
        ingest = IngestThread(engine, events, batch_size=25)
        ingest.start()
        ingest.join(timeout=30)
        assert ingest.error is None
        app = ServingApp(engine, position_source=lambda: ingest.consumed)
        for path in ("/stats", "/healthz", "/result"):
            status, body = app.handle(path)
            assert status == 200, path
            low, high = body["window"]
            assert high - low <= config.window_spec().size
            assert high >= 100 - 1  # bounds track the consumed stream
        # The engine's provenance records the argv-derived config.
        assert engine.export_state()["config"]["window"] == "sliding:40/20"

    def test_decay_argv_reaches_engine_stats(self):
        config = self._serve_config("--engine-decay", "0.95/25")
        assert config.decay == "0.95/25"
        scenario = build_serving_scenario("toy", "covar")
        engine = scenario.engine(config=config)
        engine.publish(event_offset=0)
        ingest = IngestThread(
            engine, scenario.stream(batch_size=25).tuples(100), batch_size=25
        )
        ingest.start()
        ingest.join(timeout=30)
        assert ingest.error is None
        app = ServingApp(engine, regression_label=scenario.regression_label)
        status, body = app.handle("/stats")
        assert status == 200
        assert body["engine"]["decay_ticks"] == 100 // 25
        assert "window" not in body  # decay is not a window
        assert engine.export_state()["config"]["decay"] == "0.95/25"

    def test_unwindowed_serving_carries_no_window_key(self):
        _, engine, app = scenario_app("count", apply_events=50)
        for path in ("/stats", "/result"):
            _status, body = app.handle(path)
            assert "window" not in body


def test_toy_stream_prefix_is_deterministic():
    """The replay contract: same (factories, seed, batch) -> same events,
    and a shorter prefix is a prefix of a longer one."""
    database = toy_database()

    def stream(total):
        return list(
            UpdateStream(
                database,
                toy_row_factories(),
                targets=("R", "S"),
                batch_size=50,
                insert_ratio=0.7,
                seed=9,
            ).tuples(total)
        )

    long = stream(300)
    assert stream(300) == long
    # tuples(N) rounds up to a batch boundary, but the event sequence is
    # independent of N: a shorter request is a prefix of a longer one.
    short = stream(120)
    assert len(short) >= 120
    assert short == long[: len(short)]
