"""Serving load generator: concurrent readers against live ingestion.

The serving tier's promise is that reads stay fast, consistent and
boundedly stale while a writer ingests at full speed. This benchmark
measures all three at once:

1. **Read latency under write load** — ``--readers`` concurrent readers
   (default 64, each on its own keep-alive connection) hammer the data
   endpoints while the writer streams updates; per-endpoint p50/p99
   latency and the writer's throughput *with readers attached* go into
   the JSON artifact for the CI perf gate.
2. **Exact read consistency** — sampled reader responses are replayed
   post hoc: a fresh engine ingests the same seeded stream up to each
   sampled snapshot's ``event_offset`` (same batch size, hence the same
   flush boundaries and float association) and the re-derived answer
   must equal the served body **exactly** — not approximately — for the
   snapshot-pure endpoints (``/covar``, ``/topk``, ``/result``).
3. **Staleness** — a monitor polls ``/healthz`` and reports how far the
   served epoch trailed the live stream position.

Modes::

    # in-process: boots engine + server + writer, full control (CI gate)
    PYTHONPATH=src python benchmarks/bench_serving.py --smoke --json out.json

    # against a live `repro serve` (the CI serving-smoke job): reads the
    # stream recipe from /stats, bursts readers, verifies post hoc
    PYTHONPATH=src python benchmarks/bench_serving.py \
        --url http://127.0.0.1:8321 --json out.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import ShardedEngine
from repro.serving import IngestThread, ServerThread, ServingApp
from repro.serving.scenario import ServingScenario, build_serving_scenario

#: Endpoints whose bodies are pure functions of the served snapshot and
#: therefore must replay exactly, one per payload kind (``/model`` and
#: ``/predict`` are functions of the snapshot too, but not replayed here).
VERIFY_ENDPOINT = {"count": "/result", "covar": "/covar", "mi": "/topk"}

#: Fields that never replay (wall-clock) and are stripped before the
#: exact comparison.
VOLATILE_FIELDS = ("published_at",)


# ----------------------------------------------------------------------
# Minimal asyncio HTTP client (keep-alive, one connection per reader)
# ----------------------------------------------------------------------


class ReaderConnection:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def get(self, path: str) -> Tuple[int, Dict[str, Any], float]:
        """One GET on the persistent connection -> (status, body, seconds)."""
        started = time.perf_counter()
        request = (
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(request.encode("latin-1"))
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await self._reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = json.loads(await self._reader.readexactly(length))
        return status, body, time.perf_counter() - started

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


# ----------------------------------------------------------------------
# The reader fleet
# ----------------------------------------------------------------------


async def run_fleet(
    host: str,
    port: int,
    endpoints: List[str],
    verify_endpoint: str,
    readers: int,
    duration: float,
    poll_interval: float = 0.05,
) -> Dict[str, Any]:
    """Drive ``readers`` concurrent keep-alive readers for ``duration``.

    Returns per-endpoint latency samples, one sampled body per observed
    epoch of the verify endpoint, and staleness samples from a
    ``/healthz`` monitor.
    """
    latencies: Dict[str, List[float]] = {path: [] for path in endpoints}
    sampled: Dict[int, Dict[str, Any]] = {}
    staleness: List[int] = []
    requests_by_reader = [0] * readers
    stop = asyncio.Event()

    async def reader_loop(index: int) -> None:
        conn = ReaderConnection(host, port)
        await conn.connect()
        try:
            turn = index  # stagger endpoint choice across the fleet
            while not stop.is_set():
                path = endpoints[turn % len(endpoints)]
                turn += 1
                status, body, seconds = await conn.get(path)
                assert status == 200, f"{path} -> {status}: {body}"
                latencies[path].append(seconds)
                requests_by_reader[index] += 1
                # Exact-match: parameterized variants (e.g. /topk?k=2)
                # truncate the body and would not replay verbatim.
                if path == verify_endpoint:
                    epoch = body["epoch"]
                    if epoch not in sampled:
                        sampled[epoch] = body
        finally:
            await conn.close()

    async def monitor_loop() -> None:
        conn = ReaderConnection(host, port)
        await conn.connect()
        try:
            while not stop.is_set():
                status, body, _seconds = await conn.get("/healthz")
                if status == 200 and "staleness" in body:
                    staleness.append(int(body["staleness"]))
                await asyncio.sleep(poll_interval)
        finally:
            await conn.close()

    tasks = [asyncio.create_task(reader_loop(i)) for i in range(readers)]
    tasks.append(asyncio.create_task(monitor_loop()))
    await asyncio.sleep(duration)
    stop.set()
    results = await asyncio.gather(*tasks, return_exceptions=True)
    failures = [r for r in results if isinstance(r, BaseException)]
    if failures:
        raise failures[0]
    return {
        "latencies": latencies,
        "sampled": sampled,
        "staleness": staleness,
        "requests_by_reader": requests_by_reader,
    }


# ----------------------------------------------------------------------
# Post-hoc batch evaluation (the exactness oracle)
# ----------------------------------------------------------------------


def replay_bodies(
    scenario: ServingScenario,
    offsets: List[int],
    verify_endpoint: str,
    batch_size: int,
    insert_ratio: float,
) -> Dict[int, Dict[str, Any]]:
    """Recompute the verify endpoint's body at each sampled offset.

    One fresh engine replays the seeded stream once; a hook on
    ``publish`` evaluates the endpoint at every published offset we
    sampled. Identical event prefix + identical batch size = identical
    flush boundaries = identical float association, so the bodies must
    match the served ones bit for bit.
    """
    engine = scenario.engine()
    app = ServingApp(
        engine,
        regression_label=scenario.regression_label,
        mi_label=scenario.mi_label,
    )
    wanted = set(offsets)
    bodies: Dict[int, Dict[str, Any]] = {}
    original_publish = engine.publish

    def recording_publish(event_offset=None, **kwargs):
        snapshot = original_publish(event_offset=event_offset, **kwargs)
        if snapshot.event_offset in wanted:
            status, body = app.handle(verify_endpoint)
            assert status == 200, body
            bodies[snapshot.event_offset] = body
        return snapshot

    engine.publish = recording_publish
    engine.publish(event_offset=0)
    max_offset = max(wanted)
    stream = scenario.stream(batch_size=batch_size, insert_ratio=insert_ratio)
    events = (event for _i, event in zip(range(max_offset), stream.tuples(max_offset)))
    engine.apply_stream(events, batch_size=batch_size, publish_batches=True)
    return bodies


def strip_volatile(body: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in body.items() if k not in VOLATILE_FIELDS}


def verify_exact(
    scenario: ServingScenario,
    sampled: Dict[int, Dict[str, Any]],
    verify_endpoint: str,
    batch_size: int,
    insert_ratio: float,
) -> int:
    """Assert every sampled served body equals its batch re-evaluation."""
    by_offset = {body["event_offset"]: body for body in sampled.values()}
    replayed = replay_bodies(
        scenario, sorted(by_offset), verify_endpoint, batch_size, insert_ratio
    )
    for offset in sorted(by_offset):
        served = strip_volatile(by_offset[offset])
        # Round-trip the replayed body through JSON so both sides carry
        # identical types (tuples -> lists); float repr round-trips
        # exactly, so this does not loosen the comparison.
        local = strip_volatile(json.loads(json.dumps(replayed[offset])))
        assert served == local, (
            f"served body at event offset {offset} diverges from batch "
            f"evaluation:\n  served: {served}\n  replay: {local}"
        )
    return len(by_offset)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def endpoint_records(
    latencies: Dict[str, List[float]], readers: int, engine_label: str
) -> List[Dict[str, Any]]:
    records = []
    for path, samples in sorted(latencies.items()):
        if not samples:
            continue
        base = path.split("?")[0].lstrip("/")
        p50 = percentile(samples, 0.50)
        p99 = percentile(samples, 0.99)
        print(
            f"{path:>32} {len(samples):>7} reads   "
            f"p50 {1e6 * p50:>8.0f} µs   p99 {1e6 * p99:>8.0f} µs"
        )
        for stat, value in (("p50", p50), ("p99", p99)):
            records.append(
                {
                    "engine": engine_label,
                    "endpoint": base,
                    "readers": readers,
                    "stat": stat,
                    "reads": len(samples),
                    "latency_us": round(1e6 * value, 2),
                }
            )
    return records


def fleet_endpoints(scenario: ServingScenario) -> List[str]:
    """The endpoint mix readers cycle through for this payload."""
    verify = VERIFY_ENDPOINT[scenario.payload]
    endpoints = [verify, "/healthz"]
    if scenario.payload == "covar":
        features = [
            f.name
            for f in scenario.query.spec.build().features
            if f.name != scenario.regression_label
        ]
        query = "&".join(f"{name}=1" for name in features)
        endpoints += ["/model", f"/predict?{query}"]
    elif scenario.payload == "mi":
        endpoints.append("/topk?k=2")
    return endpoints


# ----------------------------------------------------------------------
# In-process mode: engine + server + writer, all under our control
# ----------------------------------------------------------------------


def run_inprocess(args) -> Dict[str, Any]:
    scenario = build_serving_scenario(
        args.dataset, args.payload, scale=args.scale, seed=args.seed
    )
    engine = scenario.engine(shards=args.shards)
    engine.publish(event_offset=0)
    verify_endpoint = VERIFY_ENDPOINT[scenario.payload]

    # The writer streams until the read window closes, so ingest runs
    # for the whole measurement; `updates` only bounds the stream.
    stop_ingest = threading.Event()

    def bounded(events):
        for event in events:
            if stop_ingest.is_set():
                return
            yield event

    stream = scenario.stream(
        batch_size=args.batch_size, insert_ratio=args.insert_ratio
    )
    ingest = IngestThread(
        engine,
        bounded(stream.tuples(args.updates)),
        batch_size=args.batch_size,
    )
    app = ServingApp(
        engine,
        regression_label=scenario.regression_label,
        mi_label=scenario.mi_label,
        position_source=lambda: ingest.consumed,
        metadata=scenario.provenance(args.batch_size, args.insert_ratio),
    )
    server = ServerThread(app)
    try:
        server.start()
        ingest.start()
        print(
            f"# serving bench: {args.readers} readers vs live ingest "
            f"({args.dataset}/{args.payload}, batch {args.batch_size}, "
            f"{args.duration:.1f}s window)\n"
        )
        fleet = asyncio.run(
            run_fleet(
                server.host,
                server.port,
                fleet_endpoints(scenario),
                verify_endpoint,
                readers=args.readers,
                duration=args.duration,
            )
        )
    finally:
        stop_ingest.set()
        ingest.join(timeout=30)
        server.stop()
        if isinstance(engine, ShardedEngine):
            engine.close()
    if ingest.error is not None:
        raise RuntimeError(f"ingest failed under read load: {ingest.error}")

    total_reads = sum(len(s) for s in fleet["latencies"].values())
    idle = sum(1 for n in fleet["requests_by_reader"] if n == 0)
    assert idle == 0, f"{idle}/{args.readers} readers made no request"
    records = endpoint_records(fleet["latencies"], args.readers, "serving-read")
    ingest_latency_us = (
        1e6 * ingest.seconds / ingest.consumed if ingest.consumed else None
    )
    print(
        f"\nwriter: {ingest.consumed} updates in {ingest.seconds:.2f}s "
        f"({ingest.throughput:.0f} updates/s) with {args.readers} readers "
        f"attached; {total_reads} reads total"
    )
    if ingest_latency_us is not None:
        records.append(
            {
                "engine": "serving-ingest",
                "readers": args.readers,
                "batch_size": args.batch_size,
                "updates": ingest.consumed,
                "updates_per_s": round(ingest.throughput, 1),
                "latency_us": round(ingest_latency_us, 2),
            }
        )
    staleness = fleet["staleness"]
    if staleness:
        print(
            f"staleness (events behind live stream): "
            f"mean {statistics.mean(staleness):.0f}, max {max(staleness)}"
        )

    verified = verify_exact(
        scenario,
        fleet["sampled"],
        verify_endpoint,
        args.batch_size,
        args.insert_ratio,
    )
    print(
        f"exact-read check: {verified} distinct epochs re-evaluated from "
        "scratch, all equal to the served bodies ✓"
    )
    return {
        "benchmark": "serving",
        "mode": "smoke" if args.smoke else "full",
        "dataset": args.dataset,
        "payload": args.payload,
        "readers": args.readers,
        "ingest_updates": ingest.consumed,
        "ingest_updates_per_s": round(ingest.throughput, 1),
        "verified_epochs": verified,
        "staleness_max": max(staleness) if staleness else None,
        "results": records,
    }


# ----------------------------------------------------------------------
# URL mode: burst against a live `repro serve`, verify from /stats recipe
# ----------------------------------------------------------------------


def run_url(args) -> Dict[str, Any]:
    split = args.url.split("://", 1)[-1]
    host, _, port_s = split.partition(":")
    port = int(port_s.rstrip("/") or 80)

    async def fetch_stats():
        conn = ReaderConnection(host, port)
        await conn.connect()
        try:
            status, body, _ = await conn.get("/stats")
            assert status == 200, body
            return body
        finally:
            await conn.close()

    stats = asyncio.run(fetch_stats())
    meta = stats.get("metadata") or {}
    required = ("dataset", "payload", "scale", "seed", "batch_size", "insert_ratio")
    missing = [key for key in required if key not in meta]
    if missing:
        raise SystemExit(
            f"server /stats lacks stream provenance {missing}; "
            "was it started with `repro serve`?"
        )
    scenario = build_serving_scenario(
        meta["dataset"],
        meta["payload"],
        scale=int(meta["scale"]),
        seed=int(meta["seed"]),
    )
    verify_endpoint = VERIFY_ENDPOINT[scenario.payload]
    print(
        f"# serving bench (url mode): {args.readers} readers vs {args.url} "
        f"({meta['dataset']}/{meta['payload']}, {args.duration:.1f}s burst)\n"
    )
    fleet = asyncio.run(
        run_fleet(
            host,
            port,
            fleet_endpoints(scenario),
            verify_endpoint,
            readers=args.readers,
            duration=args.duration,
        )
    )
    total_reads = sum(len(s) for s in fleet["latencies"].values())
    idle = sum(1 for n in fleet["requests_by_reader"] if n == 0)
    assert idle == 0, f"{idle}/{args.readers} readers made no request"
    records = endpoint_records(fleet["latencies"], args.readers, "serving-url-read")
    print(f"\n{total_reads} reads total over the burst")
    verified = verify_exact(
        scenario,
        fleet["sampled"],
        verify_endpoint,
        int(meta["batch_size"]),
        float(meta["insert_ratio"]),
    )
    print(
        f"exact-read check: {verified} distinct epochs re-evaluated from "
        "scratch, all equal to the served bodies ✓"
    )
    staleness = fleet["staleness"]
    return {
        "benchmark": "serving",
        "mode": "url",
        "url": args.url,
        "dataset": meta["dataset"],
        "payload": meta["payload"],
        "readers": args.readers,
        "verified_epochs": verified,
        "staleness_max": max(staleness) if staleness else None,
        "results": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="short window, CI gate")
    parser.add_argument("--url", help="benchmark a live server instead of booting one")
    parser.add_argument("--dataset", default="toy", choices=("toy", "retailer", "favorita"))
    parser.add_argument("--payload", default="covar", choices=("count", "covar", "mi"))
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--readers", type=int, default=64)
    parser.add_argument("--duration", type=float, default=8.0, help="read window (s)")
    parser.add_argument("--updates", type=int, default=2_000_000)
    parser.add_argument("--batch-size", type=int, default=200)
    parser.add_argument("--insert-ratio", type=float, default=0.7)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--json", metavar="PATH", help="write measurements as JSON")
    args = parser.parse_args(argv)
    if args.smoke:
        args.duration = min(args.duration, 2.0)

    artifact = run_url(args) if args.url else run_inprocess(args)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"\nwrote {len(artifact['results'])} measurements to {args.json}")
    print(f"\nsustained {args.readers} concurrent readers ✓")
    return 0


if __name__ == "__main__":
    sys.exit(main())
