"""F-IVM: Learning over Fast-Evolving Relational Data (SIGMOD 2020).

A reproduction of the F-IVM system: incremental maintenance of compound
aggregate batches — counts, COVAR matrices, mutual-information counts —
over natural-join queries under inserts and deletes, with the
data-intensive computation captured by application-specific rings.

Quickstart::

    from repro import (
        Database, Relation, Query, RelationSchema,
        CovarSpec, Feature, FIVMEngine, inserts,
    )

    r = Relation.from_tuples(("A", "B"), [("a1", 1), ("a2", 2)], name="R")
    s = Relation.from_tuples(("A", "C", "D"),
                             [("a1", 1, 1), ("a1", 2, 3), ("a2", 2, 2)],
                             name="S")
    query = Query(
        "Q",
        (RelationSchema("R", ("A", "B")), RelationSchema("S", ("A", "C", "D"))),
        spec=CovarSpec((Feature.continuous("B"),
                        Feature.continuous("C"),
                        Feature.continuous("D"))),
    )
    engine = FIVMEngine(query)
    engine.initialize(Database([r, s]))
    engine.apply("R", inserts(("A", "B"), [("a1", 3)]))
    payload = engine.result().payload(())   # (c, s, Q) — the COVAR matrix

See ``examples/`` for the demo applications (model selection, ridge
regression, Chow-Liu trees) and ``README.md`` (*Layout*) for the system
inventory.
"""

from repro.config import EngineConfig, create_engine
from repro.checkpoint import (
    CheckpointInfo,
    checkpoint_sink,
    read_checkpoint,
    read_checkpoint_info,
    restore_checkpoint,
    write_checkpoint,
)
from repro.data import (
    Database,
    DatabaseSchema,
    Relation,
    RelationSchema,
    delta_of,
    deletes,
    inserts,
    split_delta,
)
from repro.engine import (
    FIVMEngine,
    FirstOrderEngine,
    MaintenanceEngine,
    NaiveEngine,
    PerAggregateEngine,
    ShardedEngine,
    available_backends,
)
from repro.errors import (
    CheckpointError,
    DataError,
    EngineError,
    FIVMError,
    QueryError,
    RingError,
    SchemaError,
)
from repro.ml import (
    ChowLiuTree,
    Column,
    CovarMatrix,
    FeatureRanking,
    MIMatrix,
    RidgeModel,
    RidgeRegression,
    chow_liu_tree,
    covar_from_payload,
    mutual_information_matrix,
    rank_features,
    select_features,
)
from repro.query import Query, VariableOrder, VONode, plan_variable_order
from repro.serving import (
    EngineSnapshot,
    IngestThread,
    ServerThread,
    ServingApp,
    ServingScenario,
    SnapshotServer,
    SnapshotStore,
    build_serving_scenario,
)
from repro.rings import (
    Binning,
    BoolRing,
    CofactorLayout,
    CountSpec,
    CovarSpec,
    Feature,
    FloatRing,
    IntegerRing,
    MinPlusRing,
    MISpec,
    NumericCofactorRing,
    PayloadPlan,
    PayloadSpec,
    RelationValue,
    Ring,
    SparseCofactorRing,
    SumProductSpec,
    SumSpec,
    Z,
)
from repro.viewtree import ViewTree, build_view_tree, render_tree_dot, render_tree_m3

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "FIVMError",
    "RingError",
    "SchemaError",
    "DataError",
    "QueryError",
    "EngineError",
    "CheckpointError",
    # checkpointing
    "CheckpointInfo",
    "write_checkpoint",
    "read_checkpoint",
    "read_checkpoint_info",
    "restore_checkpoint",
    "checkpoint_sink",
    # data
    "Relation",
    "Database",
    "RelationSchema",
    "DatabaseSchema",
    "inserts",
    "deletes",
    "delta_of",
    "split_delta",
    # rings
    "Ring",
    "Z",
    "IntegerRing",
    "FloatRing",
    "BoolRing",
    "MinPlusRing",
    "RelationValue",
    "CofactorLayout",
    "NumericCofactorRing",
    "SparseCofactorRing",
    "Binning",
    "Feature",
    "PayloadPlan",
    "PayloadSpec",
    "CountSpec",
    "SumSpec",
    "SumProductSpec",
    "CovarSpec",
    "MISpec",
    # query & view tree
    "Query",
    "VariableOrder",
    "VONode",
    "plan_variable_order",
    "ViewTree",
    "build_view_tree",
    "render_tree_m3",
    "render_tree_dot",
    # engines
    "MaintenanceEngine",
    "FIVMEngine",
    "FirstOrderEngine",
    "NaiveEngine",
    "PerAggregateEngine",
    "ShardedEngine",
    # engine construction
    "EngineConfig",
    "create_engine",
    "available_backends",
    # serving
    "EngineSnapshot",
    "SnapshotStore",
    "ServingApp",
    "SnapshotServer",
    "ServerThread",
    "IngestThread",
    "ServingScenario",
    "build_serving_scenario",
    # ml
    "Column",
    "CovarMatrix",
    "covar_from_payload",
    "RidgeRegression",
    "RidgeModel",
    "MIMatrix",
    "mutual_information_matrix",
    "rank_features",
    "select_features",
    "FeatureRanking",
    "ChowLiuTree",
    "chow_liu_tree",
]
