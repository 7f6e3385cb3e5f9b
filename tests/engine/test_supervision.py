"""Self-healing supervision: kill sweeps, replay recovery, budgets.

The acceptance contract for supervised maintenance: a worker killed at
*any* point — mid-batch, mid-gather, mid-publish, mid-checkpoint, mid
window advance, at a decay tick — is respawned from the baseline, healed
by replaying the coordinator's post-baseline log, and the engine's root
view ends **bit-identical** to an uninterrupted run. Fail-stop remains
the backstop: when recovery itself keeps dying the budget trips a
:class:`SupervisionError` and the engine closes (no leaked worker
processes).
"""

import multiprocessing
import time

import pytest

from repro.config import EngineConfig
from repro.data import WindowSpec, WindowedStream
from repro.datasets import (
    RetailerConfig,
    UpdateStream,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
    toy_count_query,
    toy_covar_continuous_query,
    toy_database,
    toy_row_factories,
    toy_variable_order,
)
from repro.engine import FIVMEngine, ShardedEngine
from repro.engine.sharded import available_backends
from repro.errors import EngineError, SupervisionError
from repro.rings import CountSpec
from repro.testing import (
    FaultInjector,
    FaultSpec,
    clear_injector,
    install_injector,
)

needs_process = pytest.mark.skipif(
    "process" not in available_backends(), reason="fork unavailable"
)

# Both ways of driving a shard worker must self-heal identically.
TOPOLOGIES = [
    pytest.param("serial", id="serial"),
    pytest.param("process", marks=needs_process, id="process"),
]


@pytest.fixture(autouse=True)
def _fault_free_afterwards():
    yield
    clear_injector()


def supervised_config(backend, shards, **kw):
    return EngineConfig(shards=shards, backend=backend, supervise=True, **kw)


def retailer_setup(insert_ratio=0.7, seed=5, total_updates=600):
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


def toy_events(total=96, insert_ratio=0.7, seed=11, batch_size=8):
    database = toy_database()
    stream = UpdateStream(
        database,
        toy_row_factories(),
        targets=("R", "S"),
        batch_size=batch_size,
        insert_ratio=insert_ratio,
        seed=seed,
    )
    return database, list(stream.tuples(total))


def reference_result(query, order, database, events, batch_size):
    engine = FIVMEngine(query, order=order)
    engine.initialize(database)
    engine.apply_stream(iter(events), batch_size=batch_size)
    return engine.result()


def run_supervised_retailer(backend, specs, shards=2, batch_size=50):
    """Initialize → stream → publish → export → result under faults."""
    database, events = retailer_setup()
    expected = reference_result(
        retailer_query(CountSpec()), retailer_variable_order(),
        database, events, batch_size,
    )
    install_injector(FaultInjector(tuple(specs)))
    engine = ShardedEngine(
        retailer_query(CountSpec()),
        order=retailer_variable_order(),
        config=supervised_config(backend, shards),
    )
    with engine:
        engine.initialize(database)
        engine.apply_stream(iter(events), batch_size=batch_size)
        engine.publish(event_offset=len(events))
        state = engine.export_state()
        result = engine.result()
        health = engine.health()
    return result, expected, state, health


class TestKillSweep:
    """Kills at five distinct pipeline points, on both backends.

    Gather-op hit order in the driver above: ``export`` fires once per
    shard at initialize (baseline capture) and again at export_state;
    ``result`` fires at publish and again at the final result().
    """

    KILL_POINTS = {
        "mid-batch": dict(site="worker.apply", shard=1, at=4),
        "mid-route": dict(site="coordinator.send", shard=0, at=3),
        "mid-publish": dict(
            site="coordinator.gather", op="result", shard=0, at=1
        ),
        "mid-checkpoint": dict(
            site="coordinator.gather", op="export", shard=1, at=2
        ),
        "mid-gather": dict(
            site="coordinator.gather", op="result", shard=1, at=2
        ),
    }

    @pytest.mark.parametrize("point", sorted(KILL_POINTS))
    @pytest.mark.parametrize("backend", TOPOLOGIES)
    def test_kill_recovers_bit_identical(self, backend, point):
        result, expected, state, health = run_supervised_retailer(
            backend, [FaultSpec("kill", **self.KILL_POINTS[point])]
        )
        assert result == expected
        assert health["supervised"] is True
        assert health["recoveries"] >= 1
        assert health["status"] == "ok"
        # The exported state is post-recovery and restores bit-identically.
        fresh = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=EngineConfig(shards=2, backend="serial"),
        )
        with fresh:
            fresh.import_state(state)
            assert fresh.result() == expected
        # Neither the killed worker nor its replacement outlives close().
        assert not multiprocessing.active_children(), "leaked a worker"

    @pytest.mark.parametrize("backend", TOPOLOGIES)
    def test_worker_reply_kill_recovers(self, backend):
        # The worker dies between finishing the op and replying — the
        # coordinator sees a dead channel mid-gather. The site fires in
        # the worker itself, so it means the same on both backends.
        result, expected, _state, health = run_supervised_retailer(
            backend,
            [FaultSpec("kill", site="worker.reply", op="result", shard=0)],
        )
        assert result == expected
        assert health["recoveries"] >= 1

    @pytest.mark.parametrize("backend", TOPOLOGIES)
    def test_two_shards_killed_in_one_batch(self, backend):
        result, expected, _state, health = run_supervised_retailer(
            backend,
            [
                FaultSpec("kill", site="worker.apply", shard=0, at=3),
                FaultSpec("kill", site="worker.apply", shard=1, at=5),
            ],
            shards=4,
        )
        assert result == expected
        assert health["failures"] >= 2

    def test_seeded_sweep_is_deterministic_and_recovers(self):
        # The harness the chaos-smoke CI job uses: seeded kill placement.
        a = FaultInjector.seeded_kills(3, "worker.apply", max_at=6, shards=2)
        b = FaultInjector.seeded_kills(3, "worker.apply", max_at=6, shards=2)
        assert [(s.site, s.shard, s.at) for s in a.specs] == [
            (s.site, s.shard, s.at) for s in b.specs
        ]
        result, expected, _state, health = run_supervised_retailer(
            "serial", a.specs
        )
        assert result == expected
        assert health["recoveries"] == 1


class TestTimeAwareRecovery:
    """Satellite: delete-heavy windows and decay rings keep the recovery
    equivalence — the replay log carries retraction deltas and ticks."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("backend", TOPOLOGIES)
    def test_windowed_delete_heavy_kill_mid_window(self, backend, shards):
        database, events = toy_events(total=96, insert_ratio=0.3, seed=7)
        # Compile the sliding window once: the same insert/retract event
        # sequence feeds the reference and the supervised engine.
        compiled = list(WindowedStream(WindowSpec(24, 8), iter(events)))
        expected = reference_result(
            toy_count_query(), toy_variable_order(), database, compiled, 8
        )
        install_injector(FaultInjector((
            # Lands inside a window pane, after retractions started.
            FaultSpec("kill", site="worker.apply", shard=shards - 1, at=6),
        )))
        engine = ShardedEngine(
            toy_count_query(),
            order=toy_variable_order(),
            config=supervised_config(backend, shards),
        )
        with engine:
            engine.initialize(database)
            engine.apply_stream(iter(compiled), batch_size=8)
            assert engine.result() == expected
            assert engine.health()["recoveries"] >= 1

    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize("backend", TOPOLOGIES)
    def test_decay_kill_at_tick_matches_fault_free_run(self, backend, shards):
        database, events = toy_events(total=60, insert_ratio=0.7, seed=13)
        config = supervised_config(backend, shards, decay="0.9/10")

        def run(specs):
            install_injector(FaultInjector(tuple(specs)))
            engine = ShardedEngine(
                toy_covar_continuous_query(),
                order=toy_variable_order(),
                config=config,
            )
            with engine:
                engine.initialize(database)
                engine.apply_stream(iter(events), batch_size=6)
                return engine.result(), engine.health()

        undisturbed, _ = run([])
        # Die exactly at the second decay tick; ("advance", n) log
        # entries replay the missed ticks in order.
        recovered, health = run([
            FaultSpec("kill", site="worker.advance", shard=0, at=2),
        ])
        assert recovered == undisturbed
        assert health["recoveries"] >= 1


class TestHeartbeat:
    @needs_process
    def test_unresponsive_worker_times_out_and_recovers(self):
        database, events = retailer_setup(total_updates=400)
        expected = reference_result(
            retailer_query(CountSpec()), retailer_variable_order(),
            database, events, 50,
        )
        # The worker stalls for far longer than the heartbeat; the
        # coordinator must give up on it and heal, not block.
        install_injector(FaultInjector((
            FaultSpec(
                "delay", site="worker.reply", op="result", shard=0,
                seconds=30.0,
            ),
        )))
        engine = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=supervised_config("process", 2, heartbeat_timeout=0.5),
        )
        started = time.monotonic()
        with engine:
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=50)
            assert engine.result() == expected
            health = engine.health()
        elapsed = time.monotonic() - started
        assert health["recoveries"] >= 1
        assert "unresponsive" in health["last_error"]
        assert elapsed < 15.0, "coordinator waited out the stall"


class TestRecoveryBudget:
    def test_crash_loop_exhausts_budget_and_fail_stops(self):
        database, events = retailer_setup(total_updates=200)
        # incarnation="*" + once=False: every incarnation dies on its
        # first apply — including the replayed ones. Recovery cannot
        # converge and must give up instead of looping forever.
        install_injector(FaultInjector((
            FaultSpec(
                "kill", site="worker.apply", shard=0, at=1,
                once=False, incarnation="*",
            ),
        )))
        engine = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=supervised_config("serial", 2),
        )
        engine.initialize(database)
        with pytest.raises(SupervisionError, match="giving up"):
            engine.apply_stream(iter(events), batch_size=50)
        # The backstop closed the engine on its way out.
        with pytest.raises(EngineError):
            engine.result()

    def test_respawned_incarnation_does_not_retrigger_default_specs(self):
        # Default incarnation filter (0) only matches original workers:
        # one kill, one recovery, then the respawned worker survives the
        # identical op sequence.
        result, expected, _state, health = run_supervised_retailer(
            "serial",
            [FaultSpec("kill", site="worker.apply", shard=1, at=2,
                       once=False)],
        )
        assert result == expected
        assert health["recoveries"] == 1
        assert health["failures"] == 1


class TestReplayLogRebase:
    def test_log_rebases_against_limit_and_still_recovers(self):
        database, events = retailer_setup(total_updates=600)
        expected = reference_result(
            retailer_query(CountSpec()), retailer_variable_order(),
            database, events, 50,
        )
        install_injector(FaultInjector((
            FaultSpec("kill", site="worker.apply", shard=1, at=9),
        )))
        engine = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=supervised_config("serial", 2, replay_log_limit=80),
        )
        with engine:
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=50)
            assert engine.result() == expected
            health = engine.health()
        assert health["recoveries"] == 1
        # Rebase kept the log bounded: far fewer logged updates remain
        # than the stream carried.
        assert health["replay_log_updates"] <= 80 + 50

    def test_checkpoint_refresh_truncates_log(self):
        database, events = retailer_setup(total_updates=300)
        engine = ShardedEngine(
            retailer_query(CountSpec()),
            order=retailer_variable_order(),
            config=supervised_config("serial", 2),
        )
        with engine:
            engine.initialize(database)
            engine.apply_stream(iter(events), batch_size=50)
            grown = engine.health()["replay_log_updates"]
            assert grown > 0
            engine.export_state()  # what checkpoint_sink calls
            assert engine.health()["replay_log_updates"] == 0
