"""EngineConfig: validation, factory, constructors, CLI derivation."""

import argparse
import contextlib
import dataclasses

import pytest

from repro import EngineConfig, create_engine
from repro.checkpoint import (
    read_checkpoint_info,
    restore_checkpoint,
    write_checkpoint,
)
from repro.cli import build_parser, main
from repro.config import add_engine_cli_args, engine_config_from_args
from repro.data import inserts
from repro.datasets import (
    toy_count_query,
    toy_covar_continuous_query,
    toy_database,
    toy_variable_order,
)
from repro.engine import FIVMEngine, ShardedEngine, available_backends
from repro.errors import CheckpointError, EngineError
from repro.rings import NumericCofactor
from repro.serving import build_serving_scenario


#: Fields the engine used to select a maintenance path, a shard data
#: plane or a shard key by, or to time its stages; a checkpoint written
#: before their removal still carries them in its header.
REMOVED_FIELDS = (
    "use_view_index", "adaptive_probe", "use_columnar", "use_fused",
    "columnar_transport", "transport", "shard_attrs", "profile_stages",
)
PARENT_FORMAT_CONFIG = {
    "shards": 1, "backend": "auto", "transport": "auto", "shard_attrs": None,
    "columnar_transport": True, "use_view_index": True, "adaptive_probe": True,
    "use_columnar": "auto", "use_fused": True, "profile_stages": False,
    "window": None, "decay": None, "supervise": False,
    "replay_log_limit": 20000, "heartbeat_timeout": 30.0,
}


class TestEngineConfigValidation:
    def test_defaults_build(self):
        config = EngineConfig()
        assert config.shards == 1
        assert config.backend == "auto"
        assert len(dataclasses.fields(EngineConfig)) == 7

    def test_shards_must_be_positive(self):
        with pytest.raises(EngineError, match="at least 1"):
            EngineConfig(shards=0)

    def test_shards_must_be_int(self):
        with pytest.raises(EngineError, match="shards must be an int"):
            EngineConfig(shards="many")

    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError, match="unknown shard backend"):
            EngineConfig(backend="threads")

    def test_transport_is_not_a_choice(self):
        # One wire form: the only word left is a label derived from the
        # backend, which reports key on.
        assert "transport" not in EngineConfig().to_dict()
        for backend, label in (("serial", "none"), ("process", "pipe")):
            if backend not in available_backends():
                continue
            engine = ShardedEngine(
                toy_count_query(),
                config=EngineConfig(shards=2, backend=backend),
            )
            assert engine.transport_name == label

    @pytest.mark.parametrize("removed", REMOVED_FIELDS)
    def test_config_rejects_removed_fields(self, removed):
        # The access-path knobs are gone, not ignored: setting one fails
        # the way any misspelt field does.
        with pytest.raises(TypeError, match=removed):
            EngineConfig(**{removed: False})
        with pytest.raises(EngineError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({"shards": 2, removed: False})

    def test_replace_revalidates(self):
        config = EngineConfig(shards=2)
        assert config.replace(shards=4).shards == 4
        with pytest.raises(EngineError):
            config.replace(backend="bogus")

    def test_dict_round_trip(self):
        config = EngineConfig(shards=3, backend="serial", supervise=True)
        data = config.to_dict()
        assert all(isinstance(v, (int, float, str, type(None))) for v in data.values())
        assert EngineConfig.from_dict(data) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(EngineError, match="unknown EngineConfig field"):
            EngineConfig.from_dict({"shards": 2, "turbo": True})

    def test_describe_mentions_topology(self):
        text = EngineConfig(shards=2, backend="serial").describe()
        assert "shards=2" in text and "backend=serial" in text
        assert "transport" not in text

    def test_window_normalized_and_parsed(self):
        config = EngineConfig(window="sliding:100/25")
        assert config.window == "sliding:100/25"
        spec = config.window_spec()
        assert (spec.size, spec.slide) == (100, 25)
        assert EngineConfig(window="tumbling:50").window_spec().slide == 50
        assert EngineConfig().window_spec() is None

    def test_decay_normalized_and_parsed(self):
        config = EngineConfig(decay="0.99/1000")
        assert config.decay == "0.99/1000"
        spec = config.decay_spec()
        assert (spec.rate, spec.every) == (0.99, 1000)
        assert EngineConfig().decay_spec() is None

    def test_bad_window_and_decay_rejected_at_build(self):
        with pytest.raises(EngineError, match="window"):
            EngineConfig(window="hopping:10")
        with pytest.raises(EngineError, match="decay"):
            EngineConfig(decay="2.0/10")

    def test_window_and_decay_mutually_exclusive(self):
        with pytest.raises(EngineError, match="mutually exclusive"):
            EngineConfig(window="tumbling:50", decay="0.99/10")

    def test_describe_mentions_time_semantics(self):
        assert "window=sliding:64/16" in EngineConfig(
            window="sliding:64/16"
        ).describe()
        assert "decay=0.99/100" in EngineConfig(decay="0.99/100").describe()

    def test_window_and_decay_dict_round_trip(self):
        for config in (
            EngineConfig(window="sliding:64/16"),
            EngineConfig(decay="0.99/100"),
        ):
            assert EngineConfig.from_dict(config.to_dict()) == config


class TestCreateEngine:
    def test_unsharded_builds_fivm(self):
        engine = create_engine(toy_count_query(), config=EngineConfig())
        assert isinstance(engine, FIVMEngine)
        assert engine.config == EngineConfig()

    def test_sharded_builds_coordinator(self):
        engine = create_engine(
            toy_count_query(),
            config=EngineConfig(shards=2, backend="serial"),
            order=toy_variable_order(),
        )
        assert isinstance(engine, ShardedEngine)
        assert engine.shards == 2

    def test_none_config_is_defaults(self):
        assert isinstance(create_engine(toy_count_query()), FIVMEngine)

    def test_config_type_checked(self):
        with pytest.raises(EngineError, match="must be an EngineConfig"):
            create_engine(toy_count_query(), config={"shards": 2})


class TestConstructors:
    """``(query, order=None, config=None)`` is the whole signature."""

    def test_sharded_without_config_keeps_two_shard_default(self):
        engine = ShardedEngine(toy_count_query())
        assert engine.shards == 2
        assert engine.config == EngineConfig(shards=2)

    @pytest.mark.parametrize("cls", [FIVMEngine, ShardedEngine])
    def test_config_type_checked(self, cls):
        with pytest.raises(EngineError, match="must be an EngineConfig"):
            cls(toy_count_query(), config={"shards": 2})

    @pytest.mark.parametrize("cls", [FIVMEngine, ShardedEngine])
    def test_engine_options_are_not_keyword_arguments(self, cls):
        with pytest.raises(TypeError, match="unexpected keyword"):
            cls(toy_count_query(), shards=2)


class TestCliDerivation:
    """Every subcommand reads one ``--engine-*`` namespace."""

    def _config(self, argv):
        return engine_config_from_args(build_parser().parse_args(argv))

    def test_serve_defaults(self):
        assert self._config(["serve"]) == EngineConfig()
        assert self._config(["checkpoint", "save", "x.fivm"]) == EngineConfig()

    def test_engine_flags_reach_the_config(self):
        config = self._config(
            ["serve", "--engine-shards", "2", "--engine-backend", "serial"]
        )
        assert config.shards == 2 and config.backend == "serial"

    @pytest.mark.parametrize(
        "flag",
        [
            "--shards", "--shard-backend", "--no-fused",
            "--no-columnar", "--no-view-index", "--columnar-sweep",
            "--engine-fused", "--engine-columnar", "--engine-view-index",
            "--engine-transport", "--engine-shard-attrs", "--engine-profile",
        ],
    )
    def test_removed_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", flag])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        assert flag not in capsys.readouterr().out

    def test_one_flag_per_config_field(self):
        # Every subcommand registers this namespace: a setting the inputs
        # decide (shard key, stage timing) has no flag anywhere.
        parser = argparse.ArgumentParser()
        add_engine_cli_args(parser)
        flags = [
            action.option_strings[0][len("--engine-"):].replace("-", "_")
            for action in parser._actions
            if action.option_strings[0].startswith("--engine-")
        ]
        assert flags == [spec.name for spec in dataclasses.fields(EngineConfig)]

    def test_serve_and_checkpoint_share_the_namespace(self):
        for argv in (
            ["serve", "--engine-shards", "3"],
            ["checkpoint", "save", "x.fivm", "--engine-shards", "3"],
            ["checkpoint", "load", "x.fivm", "--engine-shards", "3"],
        ):
            assert self._config(argv).shards == 3

    def test_window_and_decay_flags_shared_across_commands(self):
        for argv in (
            ["serve", "--engine-window", "sliding:400/200"],
            ["checkpoint", "save", "x.fivm", "--engine-window", "sliding:400/200"],
            ["checkpoint", "load", "x.fivm", "--engine-window", "sliding:400/200"],
        ):
            assert self._config(argv).window == "sliding:400/200"
        for argv in (
            ["serve", "--engine-decay", "0.99/500"],
            ["checkpoint", "save", "x.fivm", "--engine-decay", "0.99/500"],
            ["checkpoint", "load", "x.fivm", "--engine-decay", "0.99/500"],
        ):
            assert self._config(argv).decay == "0.99/500"

    def test_bad_window_flag_fails_config_derivation(self):
        with pytest.raises(EngineError, match="window"):
            self._config(["checkpoint", "save", "x.fivm", "--engine-window", "spinning:9"])


class TestConfigProvenance:
    def test_export_state_records_config(self):
        engine = create_engine(
            toy_count_query(), config=EngineConfig(window="tumbling:50")
        )
        engine.initialize(toy_database())
        state = engine.export_state()
        assert state["config"]["window"] == "tumbling:50"
        assert EngineConfig.from_dict(state["config"]) == engine.config

    def test_sharded_provenance_records_resolved_names(self):
        engine = create_engine(
            toy_count_query(),
            config=EngineConfig(shards=2, backend="serial"),
            order=toy_variable_order(),
        )
        with engine:
            engine.initialize(toy_database())
            config = engine.export_state()["config"]
        assert config["shards"] == 2
        assert config["backend"] == "serial"  # resolved, not "auto"

    def test_checkpoint_header_round_trips_config(self, tmp_path):
        path = str(tmp_path / "toy.fivm")
        engine = create_engine(
            toy_count_query(), config=EngineConfig(window="tumbling:50")
        )
        engine.initialize(toy_database())
        write_checkpoint(engine, path)
        info = read_checkpoint_info(path)
        assert info.config["window"] == "tumbling:50"
        assert EngineConfig.from_dict(info.config) == engine.config

    def test_parent_format_header_still_reads_and_restores(
        self, tmp_path, capsys
    ):
        # Checkpoints written before the access-path knobs were removed
        # carry them in the header's config dict. That dict is provenance
        # only: info shows it verbatim and restore never parses it.
        path = str(tmp_path / "old.fivm")
        writer = create_engine(toy_count_query())
        writer.initialize(toy_database())
        writer.config_provenance = lambda: dict(PARENT_FORMAT_CONFIG)
        write_checkpoint(writer, path)
        info = read_checkpoint_info(path)
        assert info.config == PARENT_FORMAT_CONFIG
        restored = create_engine(toy_count_query())
        restore_checkpoint(restored, path)
        assert restored.result() == writer.result()
        assert main(["checkpoint", "info", path]) == 0
        out = capsys.readouterr().out
        for removed in REMOVED_FIELDS:
            assert f"{removed}:" in out

    @pytest.mark.parametrize("shards", ["1", "2"])
    def test_shard_key_and_profiling_era_checkpoint_still_restores(
        self, tmp_path, capsys, monkeypatch, shards
    ):
        # Checkpoints written while the shard key and stage timing were
        # config fields record both in the header's config. Restore,
        # `checkpoint info` and `checkpoint load --verify` take the header
        # as provenance and never parse it back into an EngineConfig.
        path = str(tmp_path / "era.fivm")
        to_dict = EngineConfig.to_dict
        monkeypatch.setattr(
            EngineConfig, "to_dict",
            lambda self: dict(to_dict(self), shard_attrs=["locn"], profile_stages=True),
        )
        argv = ["--engine-shards", shards, "--engine-backend", "serial"]
        save = ["checkpoint", "save", path, "--updates", "300", "--batch-size", "100"]
        assert main(save + argv + ["--seed", "3"]) == 0
        monkeypatch.undo()
        info = read_checkpoint_info(path)
        assert info.config["shard_attrs"] == ["locn"] and info.config["profile_stages"]

        def refuse(cls, data):
            raise AssertionError("a restore path parsed the header config")

        monkeypatch.setattr(EngineConfig, "from_dict", classmethod(refuse))
        capsys.readouterr()
        assert main(["checkpoint", "info", path]) == 0
        out = capsys.readouterr().out
        assert "shard_attrs: ['locn']" in out and "profile_stages: True" in out
        assert main(["checkpoint", "load", path, "--verify"] + argv) == 0
        assert "identical to uninterrupted ingestion ✓" in capsys.readouterr().out

        scenario = build_serving_scenario("retailer", "count", seed=3)
        reference = create_engine(scenario.query, order=scenario.order)
        reference.initialize(scenario.database)
        updates = info.metadata["updates"]
        reference.apply_stream(scenario.stream(100, 0.7).tuples(updates), batch_size=100)
        restored = create_engine(scenario.query, order=scenario.order)
        restore_checkpoint(restored, path)
        assert restored.result() == reference.result()

    #: What a 2-shard process engine on the shared-memory data plane
    #: recorded into its snapshots before that plane was removed.
    SHM_ERA_CONFIG = {
        "shards": 2, "backend": "process", "transport": "shm",
        "shard_attrs": None, "profile_stages": False, "window": None,
        "decay": None, "supervise": False, "replay_log_limit": 20000,
        "heartbeat_timeout": 30.0,
    }

    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(),
            EngineConfig(shards=2, backend="serial"),
            pytest.param(
                EngineConfig(shards=2, backend="process"),
                marks=pytest.mark.skipif(
                    "process" not in available_backends(),
                    reason="fork unavailable",
                ),
            ),
        ],
        ids=lambda config: config.describe().replace(" ", ","),
    )
    def test_shm_era_snapshot_restores_and_continues(
        self, tmp_path, capsys, config
    ):
        path = str(tmp_path / "shm.fivm")
        query, order = toy_covar_continuous_query(), toy_variable_order()
        writer = create_engine(
            query, EngineConfig(shards=2, backend="serial"), order=order
        )
        update = inserts(("A", "B"), [("a1", 2), ("a3", 4)])
        restored = create_engine(query, config, order=order)
        with writer, contextlib.ExitStack() as stack:
            if config.shards > 1:
                stack.enter_context(restored)
            writer.initialize(toy_database())
            writer.apply("R", inserts(("A", "B"), [("a1", 5), ("a2", 7)]))
            writer.config_provenance = lambda: dict(self.SHM_ERA_CONFIG)
            write_checkpoint(writer, path)
            assert read_checkpoint_info(path).config == self.SHM_ERA_CONFIG
            restore_checkpoint(restored, path)
            assert restored.result() == writer.result()
            writer.apply("R", update)
            restored.apply("R", update)
            assert restored.result() == writer.result()
        assert main(["checkpoint", "info", path]) == 0
        assert "transport: shm" in capsys.readouterr().out

    def test_sharded_provenance_round_trips_through_the_config(self, tmp_path):
        path = str(tmp_path / "sharded.fivm")
        config = EngineConfig(shards=2, backend="serial")
        with create_engine(toy_count_query(), config) as engine:
            engine.initialize(toy_database())
            write_checkpoint(engine, path)
        assert EngineConfig.from_dict(read_checkpoint_info(path).config) == config

    def test_removed_transport_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--engine-transport", "shm"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine-transport" in (
            capsys.readouterr().err
        )

    def _write_dense_payload_checkpoint(self, path, corrupt_view=None):
        """A checkpoint as written when every view held dense numeric
        COVAR payloads: ``s[m]``/``Q[m, m]`` everywhere and no
        ``support`` slot in the pickled objects."""
        writer = create_engine(toy_covar_continuous_query(), order=toy_variable_order())
        writer.initialize(toy_database())
        writer.apply("R", inserts(("A", "B"), [("a1", 5), ("a2", 7)]))
        ring = writer.plan.ring
        state = writer.export_state()
        for name, data in state["views"].items():
            for key, payload in data.items():
                dense = ring.dense(payload)
                legacy = NumericCofactor(dense.c, dense.s.copy(), dense.q.copy())
                if name == corrupt_view:
                    outside = [i for i in range(3) if i not in payload.support]
                    legacy.s[outside[0]] = 1.0
                del legacy.support
                data[key] = legacy
        writer.export_state = lambda: state
        write_checkpoint(writer, path)
        return writer

    @pytest.mark.parametrize("shards", (1, 2))
    def test_dense_payload_checkpoint_restores_onto_subtree_supports(
        self, tmp_path, shards
    ):
        path = str(tmp_path / "dense.fivm")
        writer = self._write_dense_payload_checkpoint(path)
        restored = create_engine(
            toy_covar_continuous_query(),
            order=toy_variable_order(),
            config=EngineConfig(shards=shards, backend="serial"),
        )
        try:
            restore_checkpoint(restored, path)
            want = writer.result().payload(())
            got = restored.result().payload(())
            assert got.support == want.support == (0, 1, 2)
            assert got == want
            if shards == 1:
                for name in writer.tree.views:
                    theirs, mine = writer.view(name).data, restored.view(name).data
                    assert list(mine) == list(theirs)
                    for key, payload in theirs.items():
                        assert mine[key].support == payload.support
                        assert mine[key] == payload
            update = inserts(("A", "B"), [("a1", 2)])
            writer.apply("R", update)
            restored.apply("R", update)
            assert restored.result().payload(()) == writer.result().payload(())
        finally:
            if shards > 1:
                restored.close()

    def test_dense_payload_outside_its_view_support_is_refused(self, tmp_path):
        path = str(tmp_path / "corrupt.fivm")
        self._write_dense_payload_checkpoint(path, corrupt_view="V_R")
        restored = create_engine(toy_covar_continuous_query(), order=toy_variable_order())
        with pytest.raises(CheckpointError, match="'V_R'.*outside"):
            restore_checkpoint(restored, path)
