"""One run of one workload: set up, measure, check, and name the numbers."""

from __future__ import annotations

import gc
import json
from typing import Any, Dict, List, Optional, Tuple

from checks import check_reference
from extras import traced_extras
from harness import EXACT_SEGMENTS, Region, Session
from loadgen import Reader
from metrics import END_TO_END, PER_LAYER, REPORTED
from timing import HostProbe, median, percentile, ratio, spread
from tracing import BULK_KERNELS, SCALAR_OPS, span_dump
from workloads import Workload

#: Untraced runs set up this many times and report the median, because
#: one set-up is a single 2 s sample on a host with multi-second stalls.
SETUP_REPEATS = 3


def end_to_end_metrics(region: Region) -> Tuple[Dict[str, float], Dict[str, float]]:
    """``(gated, raw)``: the timings at the reference host's speed, which
    the bounds apply to, and the same timings as wall clock read them.
    Everything but ``setup_s``, which needs the repeated set-ups."""
    raw, scaled = region.gated_samples()

    def name_them(samples: Dict[str, List[float]]) -> Dict[str, float]:
        return {
            "throughput_ups": median(samples["throughput_ups"]),
            "update_latency_p50_us": median(samples["update_latency_p50_us"]) * 1e6,
            "refresh_p50_ms": median(samples["refresh_p50_ms"]) * 1e3,
            "read_latency_p50_us": median(samples["read_latency_p50_us"]) * 1e6,
        }

    return dict(name_them(scaled), peak_rss_mb=region.peak_rss_mb), name_them(raw)


def per_layer_metrics(
    session: Session, region: Region, extras: Dict[str, float]
) -> Dict[str, float]:
    """Raw wall-clock timings of the traced segments, shares of the batch
    span, and the exact counts of the region's first segments."""
    spec, refresh, reader = session.spec, session.refresh, region.reader
    spans = region.spans(True)
    batch_s = sum(spans["batch"])
    apply_s = sum(spans["apply"])
    kupdates = region.events() / 1000.0
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(region.exact)
    out.update({k: v for k, v in extras.items() if k in PER_LAYER})

    kernel_s: Dict[str, float] = {}
    for segment in region.segments:
        for cells in segment["cells"]:
            for label, (_calls, busy) in cells.items():
                kernel_s[label] = kernel_s.get(label, 0.0) + busy
    for kernel in BULK_KERNELS:
        out[f"rings.{kernel}_share"] = ratio(kernel_s.get(f"rings.{kernel}", 0.0), apply_s)
    out["rings.scalar_ops_share"] = ratio(
        sum(kernel_s.get(f"rings.{op}", 0.0) for op in SCALAR_OPS), apply_s
    )
    stage_s = getattr(session.engine.stats, "stage_seconds", {})
    for stage in ("lift", "probe", "multiply", "group", "scatter"):
        out[f"engine.stage.{stage}_share"] = ratio(stage_s.get(stage, 0.0), apply_s)

    parts = {
        name: refresh.parts.get(name, [])
        for name in ("covar_decode", "ridge_fit", "mi_matrix", "rank", "chowliu")
    }
    refreshes = refresh.total_s[region.refresh_base :]
    traced_ups, plain_ups = region.throughputs(True), region.throughputs(False)
    out.update({
        "datasets.generate_s": session.generate_s,
        "datasets.stream_gen_us_per_event": ratio(
            session.source.seconds, session.source.events) * 1e6,
        "batcher.add_us_per_event": median(spans["add"]) / spec.batch_size * 1e6,
        "batcher.share": ratio(sum(spans["add"]), batch_s),
        "engine.initialize_s": session.initialize_s,
        "engine.apply_p50_us": median(spans["apply"]) * 1e6,
        "engine.apply_p99_us": percentile(spans["apply"], 0.99) * 1e6,
        "engine.apply_share": ratio(apply_s, batch_s),
        "publish.p50_us": median(spans["publish"]) * 1e6,
        "publish.share": ratio(sum(spans["publish"]), batch_s),
        "server.handler.covar_p50_us": median(session.read_block_s[1:]) * 1e6,
        "ml.covar_decode_p50_us": median(parts["covar_decode"]) * 1e6,
        "ml.ridge_fit_p50_ms": median(parts["ridge_fit"]) * 1e3,
        "ml.mi_matrix_p50_ms": median(parts["mi_matrix"]) * 1e3,
        "ml.rank_p50_us": median(parts["rank"]) * 1e6,
        "ml.chowliu_p50_us": median(parts["chowliu"]) * 1e6,
        "writer.update_latency_p99_us": percentile(spans["latency"], 0.99) * 1e6,
        "writer.refresh_p90_ms": percentile(refreshes, 0.90) * 1e3,
        "writer.segments": len(region.segments),
        "proc.minor_faults_per_kupdate": ratio(region.minor_faults, kupdates),
        "proc.invol_ctx_switches": region.invol_switches,
        "host.calib_p50_us": median(region.probe_s["cpu"]) * 1e6,
        "host.calib_spread": spread(region.probe_s["cpu"]),
        "host.calib_mem_p50_us": median(region.probe_s["mem"]) * 1e6,
        "host.calib_mem_spread": spread(region.probe_s["mem"]),
        # paired: each traced segment against the untraced one before it
        "trace.overhead_ratio": median([t / p for t, p in zip(traced_ups, plain_ups)]),
    })
    if spec.shards > 1:
        route = [
            cells["router.split"][1]
            for segment in region.segments
            for cells in segment["cells"]
            if "router.split" in cells
        ]
        cpu = region.cpu_self + region.cpu_workers
        out.update({
            "sharded.route_p50_us": median(route) * 1e6,
            "sharded.apply_p50_us": out["engine.apply_p50_us"],
            "sharded.gather_p50_us": out["publish.p50_us"],
            "sharded.cpu_ms_per_kupdate": ratio(cpu * 1e3, kupdates),
            "sharded.worker_cpu_share": ratio(region.cpu_workers, cpu),
            "sharded.speedup_vs_single": ratio(
                median(plain_ups), extras.get("single_ups", 0.0)),
        })
    if reader is not None:
        by_path = {
            path: [s.latency_s * 1e6 for s in reader.samples if s.path == path]
            for path in Reader.PATHS
        }
        out.update({
            "server.read.covar_p50_us": median(by_path["/covar"]),
            "server.read.model_p50_us": median(by_path["/model"]),
            "server.read.healthz_p50_us": median(by_path["/healthz"]),
            "server.read_p99_us": percentile([s.latency_s * 1e6 for s in reader.samples], 0.99),
            "server.reads": len(reader.samples),
            "server.read_failures": reader.failures(),
            "reader.lateness_p50_us": median([s.lateness_s for s in reader.samples]) * 1e6,
            "snapshot.staleness_p50_events": median(reader.staleness),
            "snapshot.staleness_max_events": max(reader.staleness, default=0),
        })
    return out


def run_workload(
    spec: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    quick: bool = False,
    corrupt_reference: bool = False,
    spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """Set up, measure, check against the reference; returns the result
    record (``metrics`` holds the end-to-end set, or the per-layer set of
    a traced run)."""
    scale_down = 10 if quick else 1
    if quick:
        spec = spec.quick()
    probe = HostProbe()
    session = Session(spec, seed, probe, scale_down)
    try:
        region = Region(session, probe, traced)
        region.run(seconds, EXACT_SEGMENTS // 2 if quick else EXACT_SEGMENTS)
        extras = traced_extras(session, scale_down) if traced else {}
        verdicts = check_reference(session, corrupt_reference)
        if traced:
            values = per_layer_metrics(session, region, extras)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values, raw = end_to_end_metrics(region)
            units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
        if spans_path:
            with open(spans_path, "w") as handle:
                json.dump(span_dump(session, region), handle)
    finally:
        session.close()
    reader = region.reader
    batches = sum(len(s["stamps"]) // 5 for s in region.segments)
    record = {
        "workload": spec.name,
        "seed": seed,
        "trace": int(traced),
        "quick": quick,
        "correct": all(verdicts),
        "attempted": batches + len(session.refresh.total_s) + session.reads
        + (len(reader.samples) if reader else 0) + len(verdicts),
        "failed": session.refresh.failed + session.read_failures
        + (reader.failures() if reader else 0) + verdicts.count(False),
        "samples": {
            "segments": len(region.segments),
            "batches": batches,
            "refreshes": len(session.refresh.total_s) - region.refresh_base,
            "read_blocks": len(session.read_block_s) - 1,
            "http_reads": len(reader.samples) if reader else 0,
            "probe_cpu_p50_us": median(region.probe_s["cpu"]) * 1e6,
            "probe_mem_p50_us": median(region.probe_s["mem"]) * 1e6,
        },
        "backend": getattr(session.engine, "backend_name", "single"),
        "transport": getattr(session.engine, "transport_name", "none"),
    }
    if not traced:
        setups, raw_setups = [session.setup_s], [session.setup_raw_s]
        # Drop the measured engine first, so the repeats do not run (and
        # allocate) beside it.
        del session, region
        gc.collect()
        for _ in range(0 if quick else SETUP_REPEATS - 1):
            again = Session(spec, seed, probe, scale_down)
            again.close()
            setups.append(again.setup_s)
            raw_setups.append(again.setup_raw_s)
            del again
            gc.collect()
        values["setup_s"] = median(setups)
        # wall clock, ungated: what the host-speed scaling was applied to
        record["raw"] = dict(raw, setup_s=median(raw_setups))
        record["reported"] = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in REPORTED.items()
        }
    record["metrics"] = {
        name: {"value": values[name], "unit": units[name]} for name in units
    }
    return record
