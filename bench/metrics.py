"""Metric names, units and directions — the benchmark's vocabulary.

``BENCHMARK.json`` declares the same names (the self-test checks the two
agree); later issues cite them verbatim. Every workload reports every
metric: a per-layer metric whose layer does no work on a workload (for
example ``sharded.*`` on a single-engine workload) reads 0.

``EXACT`` names are counts taken over a fixed event window, so they
repeat bit-for-bit for a fixed seed; everything else is a timing.
"""

from __future__ import annotations

#: name -> (unit, better, regression bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.10),
    "throughput_ups": ("1/s", "higher", 0.10),
    "update_latency_p50_us": ("us", "lower", 0.10),
    "refresh_p50_ms": ("ms", "lower", 0.10),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: name -> (unit, better). Printed by every untraced run beside the
#: end-to-end metrics and kept in the ``--out`` record, but not declared in
#: ``BENCHMARK.json``: no bound applies. On the three gated workloads a
#: read is a transport-free ``ServingApp.handle`` call of 2-5 us, measured
#: for 8 ms beside each 0.6 s segment, and in the acceptance check its
#: run-to-run spread on ``retailer_covar_trickle`` came to 10 % of its
#: median; the issue's rule for a metric that does not repeat within 0.10
#: is to demote it. The traced run reports the same number per layer as
#: ``server.handler.covar_p50_us``.
REPORTED = {
    "read_latency_p50_us": ("us", "lower"),
}

#: Workloads the benchmark runs and reports but ``BENCHMARK.json`` does not
#: list, so no bound applies to them. Two shard workers, a coordinator, a
#: server loop and a reader on two shared vCPUs spread 4-10 % over ten
#: runs when the host is quiet and 7-17 % when it is not (README.md, "Why
#: the sharded workload is not gated"); a bound is per metric, not per
#: workload, so gating it would mean loosening the gate for every workload.
UNGATED_WORKLOADS = ("favorita_sharded_serve",)

#: name -> (unit, better)
PER_LAYER = {
    # datasets
    "datasets.generate_s": ("s", "lower"),
    "datasets.stream_gen_us_per_event": ("us", "lower"),
    # data.batcher
    "batcher.add_us_per_event": ("us", "lower"),
    "batcher.share": ("ratio", "lower"),
    "batcher.coalesce_ratio": ("ratio", "higher"),
    # engine.fivm / engine.compile
    "engine.initialize_s": ("s", "lower"),
    "engine.apply_p50_us": ("us", "lower"),
    "engine.apply_p99_us": ("us", "lower"),
    "engine.apply_share": ("ratio", "lower"),
    "engine.stage.lift_share": ("ratio", "lower"),
    "engine.stage.probe_share": ("ratio", "lower"),
    "engine.stage.multiply_share": ("ratio", "lower"),
    "engine.stage.group_share": ("ratio", "lower"),
    "engine.stage.scatter_share": ("ratio", "lower"),
    "engine.path.fused_batches": ("count", "higher"),
    "engine.path.columnar_batches": ("count", "higher"),
    "engine.path.probe_steps": ("count", "lower"),
    "engine.path.scan_steps": ("count", "lower"),
    "engine.delta_tuples_per_update": ("ratio", "lower"),
    "engine.index_hit_ratio": ("ratio", "higher"),
    "engine.mirror_build_ratio": ("ratio", "lower"),
    "engine.view_entries": ("count", "lower"),
    "engine.index_entries": ("count", "lower"),
    "engine.sweep.b1_us_per_update": ("us", "lower"),
    "engine.sweep.b10_us_per_update": ("us", "lower"),
    "engine.sweep.b100_us_per_update": ("us", "lower"),
    "engine.sweep.b1000_us_per_update": ("us", "lower"),
    "engine.baseline.firstorder_ratio": ("ratio", "higher"),
    "engine.baseline.naive_ratio": ("ratio", "higher"),
    # rings
    "rings.lift_many_share": ("ratio", "lower"),
    "rings.mul_many_share": ("ratio", "lower"),
    "rings.add_many_share": ("ratio", "lower"),
    "rings.sum_segments_share": ("ratio", "lower"),
    "rings.scalar_ops_share": ("ratio", "lower"),
    "rings.kernel_calls_per_batch": ("count", "lower"),
    # serving.snapshot
    "publish.p50_us": ("us", "lower"),
    "publish.share": ("ratio", "lower"),
    "snapshot.staleness_p50_events": ("count", "lower"),
    "snapshot.staleness_max_events": ("count", "lower"),
    # data.sharding / engine.sharded / engine.transport
    "sharded.route_p50_us": ("us", "lower"),
    "sharded.route_skew": ("ratio", "lower"),
    "sharded.apply_p50_us": ("us", "lower"),
    "sharded.gather_p50_us": ("us", "lower"),
    "transport.wire_bytes_per_update": ("B", "lower"),
    "sharded.cpu_ms_per_kupdate": ("ms", "lower"),
    "sharded.worker_cpu_share": ("ratio", "higher"),
    "sharded.speedup_vs_single": ("ratio", "higher"),
    # serving.server
    "server.read.covar_p50_us": ("us", "lower"),
    "server.read.model_p50_us": ("us", "lower"),
    "server.read.healthz_p50_us": ("us", "lower"),
    "server.read_p99_us": ("us", "lower"),
    "server.handler.covar_p50_us": ("us", "lower"),
    "server.reads": ("count", "higher"),
    "server.read_failures": ("count", "lower"),
    "reader.lateness_p50_us": ("us", "lower"),
    # ml
    "ml.covar_decode_p50_us": ("us", "lower"),
    "ml.ridge_fit_p50_ms": ("ms", "lower"),
    "ml.ridge_iterations_p50": ("count", "lower"),
    "ml.mi_matrix_p50_ms": ("ms", "lower"),
    "ml.rank_p50_us": ("us", "lower"),
    "ml.chowliu_p50_us": ("us", "lower"),
    # checkpoint
    "checkpoint.write_ms": ("ms", "lower"),
    "checkpoint.restore_ms": ("ms", "lower"),
    "checkpoint.bytes": ("B", "lower"),
    # tails of the end-to-end timings (ungated: they do not repeat within
    # a tenth on a shared 2-core host)
    "writer.update_latency_p99_us": ("us", "lower"),
    "writer.refresh_p90_ms": ("ms", "lower"),
    "writer.segments": ("count", "higher"),
    # proc / host
    "proc.minor_faults_per_kupdate": ("count", "lower"),
    "proc.gc_gen2_collections": ("count", "lower"),
    "proc.invol_ctx_switches": ("count", "lower"),
    "host.calib_p50_us": ("us", "lower"),
    "host.calib_spread": ("ratio", "lower"),
    "host.calib_mem_p50_us": ("us", "lower"),
    "host.calib_mem_spread": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "higher"),
}

#: Per-layer counts that must repeat bit-for-bit for a fixed seed on the
#: single-engine workloads (taken over the first ``EXACT_SEGMENTS``
#: segments, not over the time-bounded region).
EXACT = (
    "batcher.coalesce_ratio",
    "engine.path.fused_batches",
    "engine.path.columnar_batches",
    "engine.path.probe_steps",
    "engine.path.scan_steps",
    "engine.delta_tuples_per_update",
    "engine.index_hit_ratio",
    "engine.mirror_build_ratio",
    "engine.view_entries",
    "engine.index_entries",
    "rings.kernel_calls_per_batch",
    "ml.ridge_iterations_p50",
    "proc.gc_gen2_collections",
    "sharded.route_skew",
    "transport.wire_bytes_per_update",
)

#: The subset of ``EXACT`` that repeats on the sharded workload, where the
#: reader thread and two worker processes make everything else schedule-
#: dependent.
EXACT_SHARDED = ("sharded.route_skew", "transport.wire_bytes_per_update")
