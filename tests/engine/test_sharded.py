"""ShardedEngine: cross-shard determinism, backends, stats, adaptivity."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.checkpoint import restore_checkpoint, write_checkpoint
from repro.data import Relation, inserts
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    continuous_covar_features,
    generate_retailer,
    regression_features,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_count_query,
    toy_covar_continuous_query,
    toy_database,
    toy_variable_order,
)
from repro.engine import FIVMEngine, ShardedEngine, available_backends
from repro.engine.sharded import (
    ShardWorker,
    _Loopback,
    _ProcessBackend,
    _SerialBackend,
)
from repro.errors import EngineError
from repro.rings import CountSpec, CovarSpec
from repro.config import EngineConfig
from repro.testing import (
    FaultInjector,
    FaultSpec,
    clear_injector,
    install_injector,
)
from tests.conftest import child_pids, pid_alive
from tests.engine.test_slot_store_engine import relational_spec

needs_process = pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)
BACKENDS = ["serial", pytest.param("process", marks=needs_process)]


def retailer_setup(insert_ratio=0.7, seed=5, total_updates=1200):
    config = RetailerConfig(
        locations=6, dates=8, items=24, inventory_rows=300, seed=seed
    )
    database = generate_retailer(config)
    stream = UpdateStream(
        database,
        retailer_row_factories(config, database),
        targets=("Inventory", "Weather"),
        batch_size=40,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    return database, list(stream.tuples(total_updates))


def reference_result(database, events, batch_size):
    engine = FIVMEngine(retailer_query(CountSpec()), order=retailer_variable_order())
    engine.initialize(database)
    engine.apply_stream(iter(events), batch_size=batch_size)
    return engine.result(), engine.stats


def toy_engine(backend, shards=2):
    engine = ShardedEngine(
        toy_count_query(),
        order=toy_variable_order(),
        config=EngineConfig(shards=shards, backend=backend),
    )
    engine.initialize(toy_database())
    return engine


def spread_delta(rows=16, start=0):
    """A delta whose keys hash onto every shard."""
    return inserts(
        ("A", "B"), [(f"a{start + i}", i % 5 + 1) for i in range(rows)]
    )


class TestShardDeterminism:
    """Same stream, any shard count, any batch size: identical results."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("batch_size", [1, 100])
    def test_root_payloads_and_stats_match_unsharded(self, shards, batch_size):
        database, events = retailer_setup()
        expected, expected_stats = reference_result(database, events, batch_size)
        engine = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=EngineConfig(shards=shards, backend="serial"),
        )
        with engine:
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=batch_size)
            assert engine.result() == expected
            # Coordinator totals track exactly what the unsharded engine saw.
            assert engine.stats.updates_applied == expected_stats.updates_applied
            assert engine.stats.tuples_applied == expected_stats.tuples_applied
            assert engine.stats.batches_applied == expected_stats.batches_applied

    @pytest.mark.parametrize("batch_size", [1, 100])
    def test_delete_heavy_stream_with_cancellation(self, batch_size):
        # Mostly deletes: +/- pairs cancel inside batches and views shrink.
        database, events = retailer_setup(insert_ratio=0.3, seed=9)
        expected, _ = reference_result(database, events, batch_size)
        results = {}
        for shards in (1, 2, 4):
            engine = ShardedEngine(
                retailer_query(CountSpec()),
                order=retailer_variable_order(),
                config=EngineConfig(shards=shards, backend="serial"),
            )
            with engine:
                engine.initialize(database)
                engine.apply_stream(iter(events), batch_size=batch_size)
                results[shards] = engine.result()
        assert all(result == expected for result in results.values())

    def test_shard_counts_agree_on_aggregated_shard_stats(self):
        database, events = retailer_setup()
        totals = {}
        for shards in (1, 2, 4):
            engine = ShardedEngine(
                retailer_query(CountSpec()),
                order=retailer_variable_order(),
                config=EngineConfig(shards=shards, backend="serial"),
            )
            with engine:
                engine.initialize(database)
                engine.apply_stream(iter(events), batch_size=50)
                totals[shards] = engine.aggregate_stats()
        # Routed relations land exactly once, so summed shard updates are
        # shard-count independent (this stream targets only routed relations).
        assert (
            totals[1]["updates_applied"]
            == totals[2]["updates_applied"]
            == totals[4]["updates_applied"]
        )


@pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)
class TestProcessBackend:
    def test_process_equals_serial_and_unsharded(self):
        database, events = retailer_setup(total_updates=600)
        expected, _ = reference_result(database, events, 100)
        engine = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=EngineConfig(shards=2, backend="process"),
        )
        with engine:
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=100)
            assert engine.result() == expected
            aggregated = engine.aggregate_stats()
            assert aggregated["updates_applied"] > 0
            report = engine.memory_report()
            assert all(entry["entries"] >= 0 for entry in report.values())

    def test_covar_payloads_cross_process(self):
        # Non-scalar ring payloads must survive the pipe round-trip.
        query = toy_covar_continuous_query()
        reference = FIVMEngine(query, order=toy_variable_order())
        reference.initialize(toy_database())
        engine = ShardedEngine(
            query,
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="process"),
        )
        with engine:
            engine.initialize(toy_database())
            delta = Relation(("A", "B"), name="R")
            delta.data = {("a1", 5): 1, ("a3", 2): 1}
            reference.apply("R", delta)
            engine.apply("R", delta)
            assert engine.result().close_to(reference.result(), 1e-9)


#: One spec per payload representation a shard ships: ints (COUNT),
#: dense numeric cofactors, sparse categorical cofactors, and a decayed
#: ring (ticks broadcast between batches).
PAYLOADS = {
    "count": (CountSpec, None),
    "covar": (lambda: numeric_covar_spec(), None),
    "sparse-covar": (lambda: relational_spec("mixed"), None),
    "decayed-covar": (lambda: numeric_covar_spec(), "0.9/100"),
}


def numeric_covar_spec():
    return CovarSpec(continuous_covar_features(limit=3), backend="numeric")


class TestBackendEquivalence:
    """serial ≡ process, bit for bit, and both ≡ one unsharded engine:
    the same worker behind either channel, one fold order."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("payload", sorted(PAYLOADS))
    def test_roots_agree_across_backends_and_shard_counts(self, payload, shards):
        make_spec, decay = PAYLOADS[payload]
        database, events = retailer_setup(insert_ratio=0.6, seed=7, total_updates=400)
        roots = {}
        for backend in ("single", *available_backends()):
            config = (
                EngineConfig(decay=decay) if backend == "single"
                else EngineConfig(shards=shards, backend=backend, decay=decay)
            )
            engine = ShardedEngine if backend != "single" else FIVMEngine
            engine = engine(
                retailer_query(make_spec()),
                order=retailer_variable_order(),
                config=config,
            )
            try:
                engine.initialize(database)
                engine.apply_stream(iter(events), batch_size=50)
                roots[backend] = engine.result()
            finally:
                if backend != "single":
                    engine.close()
        for backend in available_backends():
            assert roots[backend] == roots["serial"], backend
        if payload == "count":
            assert roots["serial"] == roots["single"]
        else:
            # Float sums re-associate across shards: equal to the last
            # bits between backends, to 1e-9 against the single engine.
            assert roots["serial"].close_to(roots["single"], 1e-9)

    @needs_process
    def test_checkpoint_round_trips_into_an_unsharded_engine(self, tmp_path):
        database, events = retailer_setup(insert_ratio=0.6, seed=7, total_updates=200)
        query = retailer_query(CovarSpec(regression_features()[0]))
        path = str(tmp_path / "covar.fivm")
        engine = ShardedEngine(
            query,
            order=retailer_variable_order(),
            config=EngineConfig(shards=2, backend="process"),
        )
        with engine:
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=40)
            expected = engine.result()
            write_checkpoint(engine, path)
        restored = FIVMEngine(query, order=retailer_variable_order())
        restore_checkpoint(restored, path)
        assert restored.result() == expected

    def test_published_snapshots_agree(self):
        snapshots = {}
        for backend in available_backends():
            with toy_engine(backend) as engine:
                engine.apply("R", spread_delta())
                engine.publish(event_offset=16)
                snapshot = engine.latest_snapshot()
                snapshots[backend] = (snapshot.epoch, snapshot.result)
        assert all(value == snapshots["serial"] for value in snapshots.values())


#: One conversation with a worker: ``(message, replies?)``. The apply in
#: the middle names a relation the worker does not have.
R_COLUMNS = (["a1", "a3"], [5, 2])
SCRIPT = [
    (("ping",), True),
    (("apply", "R", R_COLUMNS, [1, 1]), False),
    (("stats",), True),
    (("result",), True),
    (("frobnicate",), True),
    (("apply", "NoSuchRelation", (), []), False),
    (("apply", "R", R_COLUMNS, [1, 1]), False),
    (("advance", 1), False),
    (("ping",), True),
    (("result",), True),
    (("export",), True),
    (("stop",), False),
]


class TestWorkerProtocol:
    """One message script, the same replies over either channel."""

    def converse(self, backend_class):
        def factory():
            return FIVMEngine(toy_count_query(), order=toy_variable_order())

        backend = backend_class(factory, databases=[toy_database()])
        conn = backend.connections[0]
        replies = []
        try:
            for message, _replies in SCRIPT:
                conn.send(message)
            while True:  # everything the worker said, until it hung up
                try:
                    replies.append(conn.recv())
                except EOFError:
                    break
        finally:
            backend.close()
        return replies

    def test_loopback_replies_match_the_script(self):
        replies = self.converse(_SerialBackend)
        # One reply per synchronous op, none for apply / advance / stop.
        assert len(replies) == sum(replies_ for _message, replies_ in SCRIPT)
        ping, stats, result, unknown, parked_ping, parked_result, parked_export = replies
        assert ping == ("ok", "pong")
        assert stats[0] == "ok" and stats[1]["batches_applied"] == 1
        assert result == ("ok", {(): 5})  # 3 + a1's two S partners
        # An unknown op is refused without parking anything ...
        assert unknown == ("error", "unknown op 'frobnicate'")
        # ... a failed apply is parked: every synchronous op after it
        # answers with that failure.
        assert parked_ping[0] == "error"
        assert "'apply'" in parked_ping[1] and "NoSuchRelation" in parked_ping[1]
        assert parked_ping == parked_result == parked_export

    @needs_process
    def test_a_real_pipe_carries_the_same_conversation(self):
        assert self.converse(_ProcessBackend) == self.converse(_SerialBackend)

    def test_applies_after_a_parked_failure_are_dropped(self):
        engine = FIVMEngine(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        worker = ShardWorker(engine)
        for message, replies in SCRIPT:
            assert (worker.handle(message) is not None) == replies
        # The apply and the tick behind the failed one never ran.
        assert engine.stats.batches_applied == 1
        assert engine.result().data == {(): 5}
        assert worker.stopped

    def test_a_stopped_or_dead_loopback_behaves_like_a_closed_pipe(self):
        engine = FIVMEngine(toy_count_query(), order=toy_variable_order())
        engine.initialize(toy_database())
        channel = _Loopback(ShardWorker(engine), ("ok", "ready"))
        assert channel.recv() == ("ok", "ready")
        channel.send(("stop",))
        with pytest.raises(BrokenPipeError):
            channel.send(("ping",))
        with pytest.raises(EOFError):
            channel.recv()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_reply_faults_fire_on_both_backends(self, backend):
        # The same spec, the same meaning: a raise at the reply site is
        # that shard's error at the gather, whichever way it is driven.
        install_injector(FaultInjector((
            FaultSpec("raise", site="worker.reply", op="result", shard=1),
        )))
        try:
            with toy_engine(backend) as engine:
                with pytest.raises(EngineError, match="shard 1.*injected fault"):
                    engine.result()
        finally:
            clear_injector()


@needs_process
class TestProcessBackendFailurePaths:
    def make_engine(self, shards=3):
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=shards, backend="process"),
        )
        engine.initialize(toy_database())
        return engine

    def test_one_shard_failure_drains_other_replies(self):
        # Regression for the pipe desync: when shard k replies with an
        # error mid-gather, the replies of shards k+1..N-1 must still be
        # drained, or the next gather reads stale replies and silently
        # returns results for the wrong op.
        engine = self.make_engine(shards=3)
        try:
            # Inject a failing apply into the middle shard only: the
            # worker parks the failure and reports it at the next
            # synchronous exchange.
            engine._backend.connections[1].send(
                ("apply", "NoSuchRelation", (), [])
            )
            with pytest.raises(EngineError, match="shard 1"):
                engine.result()
            # Pipes stayed request/reply aligned: no stale replies are
            # parked on the healthy shards' connections.
            assert not engine._backend.connections[0].poll(0.2)
            assert not engine._backend.connections[2].poll(0.2)
            # Subsequent ops keep raising the *original* shard-1 failure
            # cleanly instead of returning another op's stale payloads.
            with pytest.raises(EngineError, match="shard 1"):
                engine.shard_stats()
            with pytest.raises(EngineError, match="shard 1"):
                engine.result()
            # The healthy workers are still alive and in protocol.
            assert engine._backend.processes[0].is_alive()
            assert engine._backend.processes[2].is_alive()
        finally:
            engine.close()

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL])
    def test_dead_worker_tears_backend_down(self, signum):
        engine = self.make_engine(shards=2)
        try:
            os.kill(engine._backend.processes[0].pid, signum)
            engine._backend.processes[0].join(timeout=5.0)
            with pytest.raises(EngineError, match="shard 0"):
                engine.result()
            # A died-mid-gather pipe cannot be realigned: the backend
            # closed itself, and every later op reports that cleanly.
            with pytest.raises(EngineError, match="closed"):
                engine.result()
            with pytest.raises(EngineError, match="closed"):
                engine.shard_stats()
        finally:
            engine.close()

    def test_worker_killed_mid_batch_raises_naming_the_shard(self):
        engine = self.make_engine(shards=2)
        try:
            victim = engine._backend.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises(EngineError, match="shard 0"):
                # More traffic than a pipe buffers: the send path must
                # report the death, not block on the dead worker.
                for start in range(0, 800, 16):
                    engine.apply("R", spread_delta(start=start))
                engine.result()
        finally:
            engine.close()

    def test_double_close_is_idempotent_and_reaps_every_worker(self):
        engine = self.make_engine(shards=2)
        workers = list(engine._backend.processes.values())
        engine.apply("R", spread_delta())
        assert engine.result().data == {(): 6}
        engine.close()
        engine.close()
        assert not any(worker.is_alive() for worker in workers)
        assert not multiprocessing.active_children()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_crashed_coordinator_leaves_no_orphan_worker(self):
        """``os._exit`` with live workers: each reads EOF on its pipe
        (no sibling holds a copy of the coordinator's end) and exits."""
        code = """
import os, sys
from repro import EngineConfig, create_engine, inserts
from repro.datasets import toy_count_query, toy_database, toy_variable_order

engine = create_engine(
    toy_count_query(),
    config=EngineConfig(shards=3, backend="process"),
    order=toy_variable_order(),
)
engine.initialize(toy_database())
engine.apply("R", inserts(("A", "B"), [(f"a{i}", i % 5 + 1) for i in range(16)]))
assert engine.result().data == {(): 6}
print(*(worker.pid for worker in engine._backend.processes.values()), flush=True)
sys.stdin.read()
os._exit(1)
"""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-c", code], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            assert sorted(workers) == sorted(child_pids(proc.pid)), proc.stderr.read()
            proc.stdin.close()  # lets the coordinator crash
            assert proc.wait(timeout=60) == 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(map(pid_alive, workers)):
            time.sleep(0.1)
        assert not [pid for pid in workers if pid_alive(pid)], "orphaned workers"


class TestShardedEngineBasics:
    def test_toy_query_shards(self):
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        with engine:
            engine.initialize(toy_database())
            assert engine.result().payload(()) == 3
            delta = Relation(("A", "B"), name="R")
            delta.data = {("a1", 9): 1}
            engine.apply("R", delta)
            # a1 joins two S tuples: 3 + 2.
            assert engine.result().payload(()) == 5

    def test_requires_initialize(self):
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        with pytest.raises(EngineError):
            engine.apply("R", Relation(("A", "B"), name="R"))

    def test_close_then_reinitialize(self):
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        engine.initialize(toy_database())
        engine.close()
        with pytest.raises(EngineError):
            engine.result()
        engine.initialize(toy_database())
        assert engine.result().payload(()) == 3
        engine.close()

    def test_rejects_bad_configuration(self):
        with pytest.raises(EngineError):
            ShardedEngine(toy_count_query(), config=EngineConfig(shards=0))
        with pytest.raises(EngineError):
            ShardedEngine(
                toy_count_query(),
                config=EngineConfig(shards=2, backend="nope"),
            )

    def test_memory_report_sums_shards(self):
        database, _ = retailer_setup()
        unsharded = FIVMEngine(
            retailer_query(CountSpec()), order=retailer_variable_order()
        )
        unsharded.initialize(database)
        engine = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=EngineConfig(shards=3, backend="serial"),
        )
        with engine:
            engine.initialize(database)
            report = engine.memory_report()
            base = unsharded.memory_report()
            assert set(report) == set(base)
            # Leaf view of a routed relation: shard slices partition the
            # keys, so summed entries equal the unsharded count.
            assert report["V_Inventory"]["entries"] == base["V_Inventory"]["entries"]
            # Broadcast relations are replicated per shard.
            assert report["V_Item"]["entries"] == 3 * base["V_Item"]["entries"]

    def test_closed_engine_raises_descriptive_error(self):
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        engine.initialize(toy_database())
        engine.close()
        delta = Relation(("A", "B"), name="R")
        delta.data = {("a1", 1): 1}
        for op in (
            lambda: engine.apply("R", delta),
            engine.result,
            engine.shard_stats,
            engine.export_state,
        ):
            with pytest.raises(EngineError, match="closed"):
                op()

    def test_closed_backend_raises_engine_error_not_index_error(self):
        # Regression: ops on a closed backend used to die with a bare
        # IndexError from the emptied connection/engine list.
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        engine.initialize(toy_database())
        backend = engine._backend
        engine.close()
        delta = Relation(("A", "B"), name="R")
        delta.data = {("a1", 1): 1}
        _schema, columns, counts = delta.columnar().transport()
        with pytest.raises(EngineError, match="closed"):
            backend.post(0, ("apply", "R", columns, counts), "coordinator.send")
        for op in ("result", "stats", "export"):
            with pytest.raises(EngineError, match="closed"):
                backend.gather(op)

    def test_describe_mentions_plan(self):
        engine = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        text = engine.describe()
        assert "locn" in text and "x2" in text
