"""What a traced run measures after its region, outside ``--seconds``:
the batch-size sweep, the first-order / re-evaluation baselines, the
single-engine comparison and a checkpoint round trip. Sizes are fixed
event counts, so they take the same time on every run; they are reported
raw, not scaled to the reference host."""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Tuple

from repro import (
    EngineConfig,
    FirstOrderEngine,
    NaiveEngine,
    create_engine,
    restore_checkpoint,
    write_checkpoint,
)
from repro.data import UpdateBatcher

from harness import Session
from loadgen import chunked
from timing import median, now, ratio

WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")
#: Events fed to the live engine at each batch size of the sweep.
SWEEP_EVENTS = 20_000
#: 1000-update deltas all three engines of the baseline comparison apply.
BASELINE_DELTAS = 5


def time_flushes(engine, session: Session, events: List[Tuple], batch_size: int) -> float:
    """Median seconds per flush of ``batch_size`` events through the same
    add -> apply_many -> publish loop, on ``engine``."""
    batcher = UpdateBatcher(session.schemas, batch_size=batch_size)
    durations = []
    for head, last in chunked(events, batch_size):
        start = now()
        for event in head:
            batcher.add(*event)
        batch = batcher.add(*last)
        if batch:
            engine.apply_many(batch)
        engine.publish()
        durations.append(now() - start)
    return median(durations)


def batch_size_sweep(session: Session, scale_down: int) -> Dict[str, float]:
    """us/update at batch 1, 10, 100, 1000 on the live engine, the same
    number of events at each size: the stream is stationary, so each size
    sees the same state the timed region did."""
    out = {}
    for size in (1, 10, 100, 1000):
        # --quick: a hundredth of the events, but two flushes at least
        events = session.source.take(max(2 * size, SWEEP_EVENTS // scale_down**2))
        seconds = time_flushes(session.engine, session, events, size)
        session.position += len(events)
        out[f"engine.sweep.b{size}_us_per_update"] = seconds / size * 1e6
    return out


def time_deltas(engine, deltas) -> float:
    durations = []
    for delta in deltas:
        start = now()
        engine.apply_many([delta])
        engine.publish()
        durations.append(now() - start)
    return median(durations)


def baseline_ratios(session: Session, scale_down: int = 1) -> Dict[str, float]:
    """F-IVM throughput over first-order IVM and over re-evaluation, all
    three fed the same deltas from the same database state — the paper's
    hardware-independent comparison. Each side is a median over the
    deltas (re-evaluation costs about a second per delta here)."""
    scenario, stream = session.scenario, session.source.stream
    session.drain()
    database = stream.shadow.copy()
    deltas = [stream.next_batch() for _ in range(2 if scale_down > 1 else BASELINE_DELTAS)]
    fivm = time_deltas(session.engine, deltas)
    session.position += len(deltas) * session.spec.granularity
    out = {}
    for name, cls in (("firstorder", FirstOrderEngine), ("naive", NaiveEngine)):
        baseline = cls(scenario.query, order=scenario.order)
        baseline.initialize(database)
        out[f"engine.baseline.{name}_ratio"] = ratio(time_deltas(baseline, deltas), fivm)
    return out


def single_engine_throughput(session: Session, scale_down: int = 1) -> Dict[str, float]:
    """The sharded workload's job on one ``FIVMEngine`` for one segment's
    worth of events, from the state the sharded engine is in (updates/s)."""
    scenario, spec = session.scenario, session.spec
    session.drain()
    single = create_engine(scenario.query, EngineConfig(), order=scenario.order)
    single.initialize(session.source.stream.shadow)
    events = session.source.take(spec.segment_events)
    seconds = time_flushes(single, session, events, spec.batch_size)
    # The sharded engine takes the same events, to stay equal to the shadow.
    session.run_segment(events)
    return {"single_ups": ratio(spec.batch_size, seconds)}


def checkpoint_roundtrip(session: Session) -> Dict[str, float]:
    scenario = session.scenario
    directory = os.path.join(WORK_DIR, str(os.getpid()))
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "state.ckpt")
    try:
        start = now()
        write_checkpoint(session.engine, path)
        written = now()
        restored = create_engine(
            scenario.query, session.spec.config(), order=scenario.order
        )
        try:
            restore_checkpoint(restored, path)
            done = now()
        finally:
            if hasattr(restored, "close"):
                restored.close()
        size = os.path.getsize(path)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "checkpoint.write_ms": (written - start) * 1e3,
        "checkpoint.restore_ms": (done - written) * 1e3,
        "checkpoint.bytes": size,
    }


EXTRAS = {
    "sweep": batch_size_sweep,
    "baselines": baseline_ratios,
    "single_engine": single_engine_throughput,
}


def traced_extras(session: Session, scale_down: int) -> Dict[str, float]:
    """The workload's own comparison, then the checkpoint round trip."""
    extra = EXTRAS.get(session.spec.extra)
    out = extra(session, scale_down) if extra else {}
    out.update(checkpoint_roundtrip(session))
    return out
