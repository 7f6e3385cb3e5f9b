"""The run shape every workload shares.

Closed loop, one writer: ``UpdateBatcher.add`` per event, and on each
flush ``engine.apply_many`` then ``engine.publish``. The measured region
is cut into segments of a fixed event count; a segment's events are
generated before its clock starts, ``gc.collect()`` runs between
segments, the application refresh runs inside the loop with the clock
paused, and the region ends at the first segment boundary past
``--seconds``. Throughput is the median over segments, so a slow second
on a shared host costs one sample, not the run; and every segment is
bracketed by host-speed probes (see :mod:`timing`).

Only public API of ``repro`` is driven; timing wrappers are installed on
instances this module constructed (see :class:`tracing.Tracer`).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import resource
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import ServerThread, ServingApp, create_engine
from repro.data import UpdateBatcher
from repro.datasets import UpdateStream

from loadgen import READ_RATE, REFRESHES, EventSource, Reader, chunked
from timing import PROBE_OF, HostProbe, median, now, ratio, slowdown
from tracing import Tracer
from workloads import Workload

#: Segments whose counters feed the *exact* metrics; every run does at
#: least this many, however short ``--seconds`` is.
EXACT_SEGMENTS = 8
#: Transport-free reads are timed in blocks so no sample is timer-scale.
READ_BLOCK_CALLS = 200
READ_BLOCKS_PER_SEGMENT = 8
CLOCK_TICK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# One engine life
# ----------------------------------------------------------------------


def worker_pids() -> List[int]:
    return [process.pid for process in multiprocessing.active_children()]


def proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Session:
    """Dataset, engine, batcher, serving app and warm-up for one workload.

    ``setup_s`` is construction start to the end of warm-up: dataset
    generation, engine construction and ``initialize`` (worker spawn,
    server bind) and the warm-up flushes with their event generation —
    at the reference host's speed, like every gated timing.
    """

    def __init__(self, spec: Workload, seed: int, probe: HostProbe, scale_down: int = 1):
        # The probe is sampled before, between the phases and after; two
        # samples 3 s apart scaled a set-up hardly better than none.
        samples = [probe.sample()]
        probing = 0.0

        def sample_off_the_clock() -> None:
            nonlocal probing
            began = now()
            samples.append(probe.sample())
            probing += now() - began

        start = now()
        self.spec = spec
        self.scenario = scenario = spec.build(scale_down)
        self.generate_s = now() - start
        sample_off_the_clock()
        started = now()
        self.engine = create_engine(scenario.query, spec.config(), order=scenario.order)
        self.engine.initialize(scenario.database)
        self.initialize_s = now() - started
        sample_off_the_clock()
        self.source = EventSource(
            UpdateStream(
                scenario.database,
                scenario.factories,
                targets=spec.targets,
                batch_size=spec.granularity,
                # Half inserts, half deletes: view sizes, and with them
                # latency and RSS, stay where warm-up left them.
                insert_ratio=0.5,
                seed=seed,
            )
        )
        query = scenario.query
        self.schemas = {
            name: query.schema_of(name).attributes for name in query.relation_names
        }
        self.batcher = UpdateBatcher(self.schemas, batch_size=spec.batch_size)
        #: Events handed to the batcher / events covered by the last publish.
        self.position = 0
        self.batches = 0
        self.app = ServingApp(
            self.engine,
            regression_label=scenario.regression_label,
            mi_label=scenario.mi_label,
            position_source=lambda: self.position,
        )
        self.refresh = REFRESHES[spec.refresh](self)
        #: refresh ordinal -> the host-probe sample taken right after it
        self.refresh_probe: Dict[int, Dict[str, float]] = {}
        self.reads = 0
        self.read_failures = 0
        #: seconds per call, one sample per block of READ_BLOCK_CALLS calls
        self.read_block_s: List[float] = []
        # The workers are forked above, before any thread exists here.
        self.server = ServerThread(self.app).start() if spec.shards > 1 else None
        self.run_segment(self.source.take(spec.warmup_batches * spec.batch_size))
        self.read_blocks(1)
        self.setup_raw_s = now() - start - probing
        samples.append(probe.sample())
        self.setup_s = self.setup_raw_s / slowdown(samples)[PROBE_OF["setup_s"]]

    @property
    def plan(self):
        """The payload plan (ring, features) the engine maintains."""
        return getattr(self.engine, "plan", None) or self.engine.tree.plan

    # -- the writer loop -------------------------------------------------

    def run_segment(
        self,
        events: List[Tuple],
        tracer: Optional[Tracer] = None,
        probe: Optional[HostProbe] = None,
    ):
        """Apply ``events`` flush by flush; returns ``(seconds, stamps,
        cells, samples)``.

        ``stamps`` holds five clock readings per flush — batch start, the
        add that triggers the flush, add done, apply done, publish done —
        which tile the batch span exactly; ``cells`` holds the tracer's
        per-flush kernel accounts; ``samples`` the host-probe samples taken
        after every ``spec.probe_every``-th refresh, where the clock is
        paused anyway: the host changes speed several times a second, and
        the two samples around a 0.6 s segment say little about the time
        between them. Refresh and probe time are taken off the clock.
        """
        chunks = chunked(events, self.spec.batch_size)
        add = self.batcher.add
        apply_many, publish = self.engine.apply_many, self.engine.publish
        refresh, refresh_every = self.refresh, self.spec.refresh_every
        probe_every = refresh_every * self.spec.probe_every
        # IngestThread yields the GIL once per batch so the server's event
        # loop is not starved; the serving workload's writer does the same.
        yield_gil = self.server is not None
        stamps: List[float] = []
        cells: List[Dict] = []
        samples: List[Dict[str, float]] = []
        paused = 0.0
        position, batches = self.position, self.batches
        start = now()
        for head, last in chunks:
            t0 = now()
            for event in head:
                add(*event)
            t1 = now()
            batch = add(*last)
            t2 = now()
            position += len(head) + 1
            self.position = position
            if batch:
                apply_many(batch)
            t3 = now()
            publish(position)
            t4 = now()
            stamps += (t0, t1, t2, t3, t4)
            batches += 1
            if tracer is not None:
                cells.append(tracer.take())
            if batches % refresh_every == 0:
                refresh()
                if probe_every and probe is not None and batches % probe_every == 0:
                    samples.append(probe.sample())
                    self.refresh_probe[len(refresh.total_s) - 1] = samples[-1]
                paused += now() - t4
            if yield_gil:
                time.sleep(0)
        seconds = now() - start - paused
        self.batches = batches
        return seconds, stamps, cells, samples

    def read_blocks(self, blocks: int = READ_BLOCKS_PER_SEGMENT) -> None:
        """Transport-free reads of the current epoch, outside the clock."""
        handle, path = self.app.handle, self.spec.read_path
        for _ in range(blocks):
            failures = 0
            start = now()
            for _ in range(READ_BLOCK_CALLS):
                if handle(path)[0] != 200:
                    failures += 1
            self.read_block_s.append((now() - start) / READ_BLOCK_CALLS)
            self.reads += READ_BLOCK_CALLS
            self.read_failures += failures

    def drain(self) -> None:
        """Apply what the source buffered and the batcher holds, so the
        engine has seen exactly what the stream's shadow database has."""
        for event in self.source.buffer:
            batch = self.batcher.add(*event)
            if batch:
                self.engine.apply_many(batch)
        self.position += len(self.source.buffer)
        self.source.buffer = []
        tail = self.batcher.flush()
        if tail:
            self.engine.apply_many(tail)
        self.engine.publish(self.position)

    def engine_counters(self) -> Dict[str, int]:
        if hasattr(self.engine, "aggregate_stats"):
            return self.engine.aggregate_stats()
        return self.engine.stats.snapshot()

    def close(self) -> None:
        if self.server is not None:
            # Let the handler of a connection the client just closed finish:
            # cancelled mid-close, it logs a CancelledError traceback.
            time.sleep(0.05)
            self.server.stop()
        if hasattr(self.engine, "close"):
            self.engine.close()


# ----------------------------------------------------------------------
# The measured region
# ----------------------------------------------------------------------

def batch_spans(stamps: List[float]) -> Dict[str, List[float]]:
    """Per-flush durations from the five stamps of :meth:`Session.run_segment`."""
    t0, t1, t2, t3, t4 = (stamps[i::5] for i in range(5))
    return {
        "batch": [b - a for a, b in zip(t0, t4)],
        "add": [b - a for a, b in zip(t0, t2)],
        "apply": [b - a for a, b in zip(t2, t3)],
        "publish": [b - a for a, b in zip(t3, t4)],
        # the add() that triggers the flush -> publish() returning
        "latency": [b - a for a, b in zip(t1, t4)],
    }


class Region:
    """Runs segments until the deadline and keeps what they measured."""

    def __init__(self, session: Session, probe: HostProbe, traced: bool):
        self.session = session
        self.probe = probe
        self.tracer = Tracer(session.engine) if traced else None
        self.segments: List[Dict[str, Any]] = []
        #: every probe sample of the region, per probe
        self.probe_s: Dict[str, List[float]] = {"cpu": [], "mem": []}
        self.exact: Dict[str, Any] = {}
        self.reader: Optional[Reader] = None
        self.cpu_self = 0.0
        self.cpu_workers = 0.0
        #: refreshes before this index belong to warm-up
        self.refresh_base = len(session.refresh.total_s)

    def run(self, seconds: float, exact_segments: int) -> None:
        session, spec = self.session, self.session.spec
        pids = worker_pids()
        if session.server is not None:
            self.reader = Reader(session.server.host, session.server.port, READ_RATE)
            self.reader.start()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        gen2 = gc.get_stats()[2]["collections"]
        base = self._counters()
        workers_before = sum(proc_cpu_seconds(pid) for pid in pids)
        deadline = now() + seconds
        index = 0
        while index < exact_segments or now() < deadline:
            # Odd segments of a traced run carry the wrappers, even ones do
            # not: the two are compared pairwise for trace.overhead_ratio.
            tracer = self.tracer if index % 2 else None
            events = session.source.take(spec.segment_events)
            gc.collect()
            refreshes, blocks = len(session.refresh.total_s), len(session.read_block_s)
            if tracer is not None:
                tracer.install()
            before = self.probe.sample()
            cpu = time.process_time()
            try:
                elapsed, stamps, cells, inside = session.run_segment(
                    events, tracer, self.probe
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            self.cpu_self += time.process_time() - cpu
            session.read_blocks()
            samples = [before, *inside, self.probe.sample()]
            for kind, seconds_each in self.probe_s.items():
                seconds_each += [sample[kind] for sample in samples]
            self.segments.append(
                {
                    "traced": tracer is not None,
                    "seconds": elapsed,
                    "events": len(events),
                    "stamps": stamps,
                    "cells": cells,
                    "slow": slowdown(samples),
                    # what ran inside this segment, as index ranges
                    "refreshes": (refreshes, len(session.refresh.total_s)),
                    "read_blocks": (blocks, len(session.read_block_s)),
                }
            )
            index += 1
            if index == exact_segments:
                # explicit collections (one per segment) are not the program's
                automatic = gc.get_stats()[2]["collections"] - gen2 - index
                self.exact = self._exact(base, automatic)
        if self.reader is not None:
            self.reader.stop()
        self.cpu_workers = sum(proc_cpu_seconds(pid) for pid in pids) - workers_before
        after = resource.getrusage(resource.RUSAGE_SELF)
        self.minor_faults = after.ru_minflt - usage.ru_minflt
        self.invol_switches = after.ru_nivcsw - usage.ru_nivcsw
        # less the probe's arrays, which the forked workers carry too
        probe_mb = self.probe.footprint_mb
        self.peak_rss_mb = after.ru_maxrss / 1024.0 - probe_mb + max(
            (proc_peak_rss_mb(pid) - probe_mb for pid in pids), default=0.0
        )

    # -- exact counters ----------------------------------------------------

    def _counters(self) -> Dict[str, Any]:
        session = self.session
        counters = dict(session.engine_counters())
        counters["batcher.updates"] = session.batcher.updates_absorbed
        counters["refreshes"] = len(session.refresh.total_s)
        return counters

    def _exact(self, base: Dict[str, Any], gen2: int) -> Dict[str, Any]:
        """Counts over the first ``exact_segments`` segments (a fixed event
        window, unlike the time-bounded region)."""
        session, tracer = self.session, self.tracer
        current = self._counters()
        delta = {
            key: current.get(key, 0) - base.get(key, 0)
            for key in current
            if not key.startswith("view:")
        }
        updates = delta["batcher.updates"]
        memory = session.engine.memory_report()
        traced = [s for s in self.segments if s["traced"]]
        kernel_calls = sum(
            cell[0]
            for s in traced
            for cells in s["cells"]
            for label, cell in cells.items()
            if label.startswith("rings.")
        )
        traced_batches = sum(len(s["cells"]) for s in traced)
        iterations = getattr(session.refresh, "iterations", [])[base["refreshes"] :]
        rows = list(tracer.shard_rows.values()) if tracer else []
        return {
            "batcher.coalesce_ratio": ratio(delta["tuples_applied"], updates),
            "engine.path.fused_batches": delta["fused_batches"],
            "engine.path.columnar_batches": delta["columnar_batches"],
            "engine.path.probe_steps": delta["probe_steps"],
            "engine.path.scan_steps": delta["scan_steps"],
            "engine.delta_tuples_per_update": ratio(
                delta["delta_tuples_propagated"], updates
            ),
            "engine.index_hit_ratio": ratio(delta["index_hits"], delta["index_probes"]),
            "engine.mirror_build_ratio": ratio(
                delta["mirror_builds"], delta["mirror_builds"] + delta["mirror_hits"]
            ),
            "engine.view_entries": sum(v.get("entries", 0) for v in memory.values()),
            "engine.index_entries": sum(
                v.get("index_entries", 0) for v in memory.values()
            ),
            "rings.kernel_calls_per_batch": ratio(kernel_calls, traced_batches),
            "ml.ridge_iterations_p50": median(iterations),
            "proc.gc_gen2_collections": gen2,
            "sharded.route_skew": ratio(max(rows, default=0) * len(rows), sum(rows)),
            "transport.wire_bytes_per_update": (
                ratio(tracer.wire_bytes, tracer.routed_updates) if tracer else 0.0
            ),
        }

    # -- derived numbers ---------------------------------------------------

    def gated_samples(self) -> Tuple[Dict[str, List[float]], Dict[str, List[float]]]:
        """``(raw, scaled)`` samples behind the gated timings, in seconds
        (throughput: 1/s). ``raw`` is wall clock; ``scaled`` divides each
        sample by how slow the probe ``PROBE_OF`` names ran over the
        segment the sample came from (a refresh: right after it; HTTP
        reads: over the whole region)."""
        session, reader = self.session, self.reader
        names = ("throughput_ups", "update_latency_p50_us", "refresh_p50_ms",
                 "read_latency_p50_us")
        raw: Dict[str, List[float]] = {name: [] for name in names}
        scaled: Dict[str, List[float]] = {name: [] for name in names}

        def put(name: str, values: List[float], slow: Dict[str, float]) -> None:
            factor = slow[PROBE_OF.get(name, session.spec.writer_probe)]
            raw[name] += values
            if name == "throughput_ups":  # a rate: a slow host lowers it
                scaled[name] += [value * factor for value in values]
            else:
                scaled[name] += [value / factor for value in values]

        for s in self.segments:
            first, last = s["refreshes"]
            put("throughput_ups", [s["events"] / s["seconds"]], s["slow"])
            put("update_latency_p50_us", batch_spans(s["stamps"])["latency"], s["slow"])
            for ordinal in range(first, last):
                # by the sample taken right after it, where there is one: a
                # 12 ms refresh and a probe 10 ms later see the same host
                beside = session.refresh_probe.get(ordinal)
                put(
                    "refresh_p50_ms",
                    session.refresh.total_s[ordinal : ordinal + 1],
                    slowdown([beside]) if beside else s["slow"],
                )
            if reader is None:
                first, last = s["read_blocks"]
                put("read_latency_p50_us", session.read_block_s[first:last], s["slow"])
        if reader is not None:
            kind = PROBE_OF["read_latency_p50_us"]
            put(
                "read_latency_p50_us",
                [r.latency_s for r in reader.samples if r.path == "/covar"],
                {kind: median([s["slow"][kind] for s in self.segments])},
            )
        return raw, scaled

    def throughputs(self, traced: bool) -> List[float]:
        return [
            s["events"] / s["seconds"] for s in self.segments if s["traced"] == traced
        ]

    def spans(self, traced: bool) -> Dict[str, List[float]]:
        stamps: List[float] = []
        for segment in self.segments:
            if segment["traced"] == traced:
                stamps += segment["stamps"]
        return batch_spans(stamps)

    def events(self) -> int:
        return sum(s["events"] for s in self.segments)

