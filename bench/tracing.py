"""Per-layer timing from outside: wrappers on instances the benchmark
built, and the span dump they feed."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from timing import now

BULK_KERNELS = ("lift_many", "mul_many", "add_many", "sum_segments")
SCALAR_OPS = ("mul", "add", "add_inplace")


class Tracer:
    """Timing wrappers for the layers a batch passes through.

    :meth:`install` shadows ring kernels and router methods with instance
    attributes and turns on the fused path's stage timers;
    :meth:`uninstall` deletes them again, so traced and untraced segments
    alternate on one engine. Busy time and calls accumulate per name in
    ``cells`` until :meth:`take` hands them to the batch that caused them.
    Nested wrapped calls count once, at the outermost.
    """

    def __init__(self, engine):
        self.engine = engine
        self.cells: Dict[str, List[float]] = {}
        self._depth = 0
        self._shadowed: List[Tuple[Any, str]] = []
        #: rows routed to each shard, and columnar wire bytes, per update
        self.shard_rows: Dict[int, int] = {}
        self.wire_bytes = 0
        self.routed_updates = 0

    def install(self) -> None:
        engine = self.engine
        plan = getattr(engine, "plan", None)
        if plan is not None:  # a single FIVMEngine; shard workers are out of reach
            for name in BULK_KERNELS + SCALAR_OPS:
                self._shadow(plan.ring, name, f"rings.{name}")
            engine.profile_stages = True
        router = getattr(engine, "router", None)
        if router is not None:
            for name in ("split", "split_columnar"):
                self._shadow(router, name, "router.split", self._count_routed)

    def uninstall(self) -> None:
        for target, name in self._shadowed:
            delattr(target, name)
        self._shadowed = []
        if hasattr(self.engine, "plan"):
            self.engine.profile_stages = False

    def take(self) -> Dict[str, List[float]]:
        cells, self.cells = self.cells, {}
        return cells

    def _shadow(self, target, name: str, label: str, after=None) -> None:
        inner = getattr(target, name)

        def timed(*args, **kwargs):
            if self._depth:
                return inner(*args, **kwargs)
            self._depth = 1
            start = now()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = now() - start
                self._depth = 0
            cell = self.cells.get(label)
            if cell is None:
                self.cells[label] = [1, elapsed]
            else:
                cell[0] += 1
                cell[1] += elapsed
            if after is not None:
                after(result)
            return result

        setattr(target, name, timed)
        self._shadowed.append((target, name))

    def _count_routed(self, parts) -> None:
        """Rows per shard and the columnar wire size of routed sub-deltas
        (counted after the clock stopped, so the size walk is not charged
        to routing)."""
        for shard, sub in parts:
            columnar = sub.columnar() if hasattr(sub, "columnar") else sub
            self.shard_rows[shard] = self.shard_rows.get(shard, 0) + len(columnar)
            self.wire_bytes += columnar.to_blocks().nbytes
            self.routed_updates += columnar.update_count()


def span_dump(session, region) -> Dict[str, Any]:
    """The traced segments as spans: one root per flushed batch, whose id
    its children share; see README.md, "Reading the span dump"."""
    batches = []
    batch_id = 0
    for segment in region.segments:
        stamps = segment["stamps"]
        for i in range(0, len(stamps), 5):
            batch_id += 1
            if not segment["traced"]:
                continue
            t0, _t1, t2, t3, t4 = stamps[i : i + 5]
            cells = segment["cells"][i // 5]
            batches.append({
                "batch": batch_id,
                "span": [t0, t4],
                "children": {
                    "batcher.add": [t0, t2],
                    "engine.apply_many": [t2, t3],
                    "engine.publish": [t3, t4],
                },
                # busy time inside engine.apply_many, by wrapped callee
                "engine.apply_many.children": {
                    label: {"calls": calls, "busy_s": busy}
                    for label, (calls, busy) in cells.items()
                },
            })
    reader = region.reader
    return {
        "workload": session.spec.name,
        "clock": "time.perf_counter seconds",
        "batches": batches,
        "app.refresh_s": session.refresh.total_s[region.refresh_base :],
        "read": [
            sample._asdict() for sample in (reader.samples if reader else [])
        ],
    }
