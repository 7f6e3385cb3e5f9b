"""Public API surface: everything in __all__ resolves and docs exist."""

import dataclasses

import repro


class TestPublicAPI:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_removed_transport_names_are_gone(self):
        import repro.engine

        for name in (
            "ShardTransport", "PipeTransport", "SharedMemoryTransport",
            "available_transports",
        ):
            assert name not in repro.__all__ and not hasattr(repro, name)
            assert not hasattr(repro.engine, name)

    def test_removed_app_names_are_gone(self):
        # The demo tabs are the engine's root payload read through ml/:
        # there is no session or app wrapper to export.
        import importlib.util

        for name in (
            "MaintenanceSession", "BulkReport", "ModelSelectionApp",
            "RegressionApp", "ChowLiuApp", "MaintenanceStrategyApp",
        ):
            assert name not in repro.__all__ and not hasattr(repro, name)
        assert importlib.util.find_spec("repro.apps") is None

    def test_settings_the_inputs_decide_are_not_fields(self):
        # The features choose the COVAR ring, the view tree the shard key;
        # stage timing is an engine attribute `bench/run.py --trace 1` sets.
        assert [f.name for f in dataclasses.fields(repro.EngineConfig)] == [
            "shards", "backend", "window", "decay", "supervise",
            "replay_log_limit", "heartbeat_timeout",
        ]
        assert [f.name for f in dataclasses.fields(repro.CovarSpec)] == ["features"]

    def test_reference_rings_are_not_exported(self):
        import repro.rings
        import repro.rings.lifting

        for name in ("GeneralCofactorRing", "RelationRing", "general_cofactor_lift"):
            assert name not in repro.__all__ and not hasattr(repro, name)
            assert name not in repro.rings.__all__ and not hasattr(repro.rings, name)
        assert not hasattr(repro.rings.lifting, "general_cofactor_lift")

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_module_docstrings(self):
        import repro.data
        import repro.datasets
        import repro.engine
        import repro.ml
        import repro.query
        import repro.rings
        import repro.viewtree

        for module in (
            repro,
            repro.rings,
            repro.data,
            repro.query,
            repro.viewtree,
            repro.engine,
            repro.ml,
            repro.datasets,
        ):
            assert module.__doc__, module.__name__

    def test_quickstart_from_docstring(self):
        """The README/package-docstring quickstart must actually run."""
        from repro import (
            CovarSpec,
            Database,
            Feature,
            FIVMEngine,
            Query,
            Relation,
            RelationSchema,
            inserts,
        )

        r = Relation.from_tuples(("A", "B"), [("a1", 1), ("a2", 2)], name="R")
        s = Relation.from_tuples(
            ("A", "C", "D"), [("a1", 1, 1), ("a1", 2, 3), ("a2", 2, 2)], name="S"
        )
        query = Query(
            "Q",
            (RelationSchema("R", ("A", "B")), RelationSchema("S", ("A", "C", "D"))),
            spec=CovarSpec(
                (
                    Feature.continuous("B"),
                    Feature.continuous("C"),
                    Feature.continuous("D"),
                )
            ),
        )
        engine = FIVMEngine(query)
        engine.initialize(Database([r, s]))
        engine.apply("R", inserts(("A", "B"), [("a1", 3)]))
        payload = engine.result().payload(())
        assert payload.c == 5.0  # 2 R-tuples with a1 x 2 S-tuples + 1
