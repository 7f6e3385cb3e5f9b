"""The four workloads: what is maintained, how it is driven, and why.

Each workload is data: a scenario (database, query, stream factories),
an engine configuration, a batch size and a refresh. The common run
shape lives in :mod:`harness`; nothing here measures anything.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Tuple

from repro import CovarSpec, EngineConfig, ServingScenario, build_serving_scenario
from repro.datasets import (
    RetailerConfig,
    continuous_covar_features,
    generate_retailer,
    retailer_query,
    retailer_row_factories,
    retailer_variable_order,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``scale_down -> ServingScenario``; ``scale_down`` is 1 for a real run
    #: and 10 under ``--quick``.
    build: Callable[[int], ServingScenario]
    #: Stream targets and the ``UpdateStream`` batch size events are
    #: generated at (not the batch size they are applied at).
    targets: Tuple[str, ...]
    granularity: int
    #: Events per ``UpdateBatcher`` flush.
    batch_size: int
    #: Flushes per timed segment, and flushes applied before timing so
    #: lazy index and mirror builds are over.
    segment_batches: int
    warmup_batches: int
    #: The application refresh (``harness.REFRESHES`` key) and how many
    #: flushes pass between two refreshes.
    refresh: str
    refresh_every: int
    #: Which host-probe slowdown the writer path's timings are divided by
    #: (``timing.slowdown`` key): ``mix`` where Python walks dicts of tuples
    #: and payload objects, ``mem`` where numpy kernels stream over arrays.
    #: By what the code does, and by measurement: README.md, "Timings at
    #: the reference host's speed".
    writer_probe: str = "mix"
    #: Refreshes between two host-probe samples inside a segment: a sample
    #: about every 0.1 s of writer time (0: none inside segments).
    probe_every: int = 1
    #: Endpoint of the transport-free read blocks.
    read_path: str = "/covar"
    shards: int = 1
    #: What a traced run measures after its region (``extras.EXTRAS`` key).
    extra: str = ""

    @property
    def segment_events(self) -> int:
        return self.batch_size * self.segment_batches

    def config(self) -> EngineConfig:
        return EngineConfig(shards=self.shards)

    def quick(self) -> "Workload":
        """The ``--quick`` form: a fifth of the events per segment (the
        scenario is scaled down separately, through ``build``)."""
        return replace(
            self,
            segment_batches=max(2, self.segment_batches // 5),
            warmup_batches=max(2, self.warmup_batches // 5),
            refresh_every=max(1, self.refresh_every // 5),
        )


#: Every run starts from the same database; ``--seed`` drives the update
#: stream. Between seeds the generated databases differ in distinct-key
#: counts and shard balance by a few percent, which moved ``peak_rss_mb``
#: (bulk) and ``update_latency_p50_us`` (sharded) more than the host did.
DATASET_SEED = 20180601


def _retailer_numeric_covar(scale_down: int) -> ServingScenario:
    """Retailer with the all-continuous 12-feature COVAR payload.

    12 features keep one engine near 0.4 GB and 45 batches/s at batch
    1000; the full 43 gave 5 batches/s and 1.5 GB — too few samples in
    a run this long.
    """
    config = RetailerConfig(
        locations=32,
        dates=90,
        items=900 // scale_down,
        inventory_rows=40_000 // scale_down,
        seed=DATASET_SEED,
    )
    database = generate_retailer(config)
    return ServingScenario(
        dataset="retailer",
        payload="covar",
        scale=1,
        seed=DATASET_SEED,
        database=database,
        query=retailer_query(CovarSpec(continuous_covar_features(limit=12))),
        order=retailer_variable_order(),
        factories=retailer_row_factories(config, database),
        targets=("Inventory",),
        regression_label="inventoryunits",
    )


def _serving(dataset: str, payload: str):
    def build(scale_down: int) -> ServingScenario:
        return build_serving_scenario(
            dataset, payload, scale=4 if scale_down == 1 else 1, seed=DATASET_SEED
        )

    return build


WORKLOADS = (
    Workload(
        name="retailer_covar_bulk",
        why=(
            "the paper's headline regime: batch-1000 numeric COVAR on the fused "
            "columnar kernels; batcher, publish, sharding and serving do almost nothing"
        ),
        build=_retailer_numeric_covar,
        targets=("Inventory",),
        granularity=1000,
        batch_size=1000,
        segment_batches=20,
        warmup_batches=32,
        refresh="ridge",
        refresh_every=4,
        writer_probe="mem",
        extra="baselines",
    ),
    Workload(
        name="retailer_covar_trickle",
        why=(
            "single-tuple IVM on the same engine: stays on the per-tuple probe path, "
            "so batcher, index probes and publish dominate and fused kernels do nothing"
        ),
        build=_retailer_numeric_covar,
        targets=("Inventory",),
        granularity=1000,
        batch_size=1,
        segment_batches=3000,
        warmup_batches=6000,
        refresh="ridge",
        refresh_every=500,
        extra="sweep",
    ),
    Workload(
        name="retailer_mi_mixed",
        why=(
            "MI payload over the generic relational ring with fact and dimension "
            "updates in every flush: the higher-order-delta case numeric kernels bypass"
        ),
        build=_serving("retailer", "mi"),
        targets=("Inventory", "Weather"),
        granularity=10,
        batch_size=100,
        segment_batches=12,
        warmup_batches=24,
        refresh="mi",
        refresh_every=1,
        probe_every=2,
        read_path="/topk",
    ),
    Workload(
        name="favorita_sharded_serve",
        why=(
            "two shard workers plus HTTP reads beside the writer: the only workload "
            "where routing, transport, gather and the server do work"
        ),
        build=_serving("favorita", "covar"),
        targets=("Sales",),
        granularity=500,
        batch_size=500,
        segment_batches=10,
        warmup_batches=20,
        refresh="closed_form",
        refresh_every=2,
        shards=2,  # reported, not gated: metrics.UNGATED_WORKLOADS
        # no bound rests on its scaled timings, and probe samples inside the
        # segment would count as writer CPU in sharded.cpu_ms_per_kupdate
        probe_every=0,
        extra="single_engine",
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
