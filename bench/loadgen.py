"""What drives the engine: events, application refreshes, HTTP reads."""

from __future__ import annotations

import http.client
import json
import threading
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro import (
    RidgeRegression,
    chow_liu_tree,
    covar_from_payload,
    mutual_information_matrix,
    rank_features,
)
from repro.data import tuple_events
from repro.datasets import UpdateStream
from repro.errors import FIVMError

from timing import now

#: Open-loop HTTP read rate of the serving workload (one connection).
READ_RATE = 150.0


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


class EventSource:
    """Exact-count slices of single-tuple events from an ``UpdateStream``.

    The stream's shadow database runs ahead of what has been handed out
    by whatever is buffered; :meth:`Session.drain` applies the remainder
    before the reference check.
    """

    def __init__(self, stream: UpdateStream):
        self.stream = stream
        self.buffer: List[Tuple] = []
        self.seconds = 0.0
        self.events = 0

    def take(self, count: int) -> List[Tuple]:
        start = now()
        buffer = self.buffer
        while len(buffer) < count:
            buffer.extend(tuple_events([self.stream.next_batch()]))
        taken, self.buffer = buffer[:count], buffer[count:]
        self.seconds += now() - start
        self.events += count
        return taken


def chunked(events: List[Tuple], batch_size: int) -> List[Tuple[List[Tuple], Tuple]]:
    """``(all but the last event, last event)`` per flush, built outside the
    clock so the writer loop can stamp the add that triggers the flush."""
    return [
        (events[i : i + batch_size - 1], events[i + batch_size - 1])
        for i in range(0, len(events), batch_size)
    ]


# ----------------------------------------------------------------------
# Application refreshes: latest_snapshot() -> a usable model
# ----------------------------------------------------------------------


class Refresh:
    """Base: times the whole refresh and its named parts."""

    def __init__(self, session: "Session"):
        self.session = session
        self.plan = session.plan
        self.total_s: List[float] = []
        self.parts: Dict[str, List[float]] = {}
        self.failed = 0

    def __call__(self) -> None:
        start = now()
        try:
            payload = self.session.engine.latest_snapshot().result.payload(())
            self.run(payload)
        except (FIVMError, np.linalg.LinAlgError):
            self.failed += 1
        self.total_s.append(now() - start)

    def part(self, name: str, started: float) -> float:
        ended = now()
        self.parts.setdefault(name, []).append(ended - started)
        return ended

    def run(self, payload) -> None:
        raise NotImplementedError


class RidgeRefresh(Refresh):
    """COVAR decode + gradient descent resumed from the previous model."""

    def __init__(self, session):
        super().__init__(session)
        label = session.scenario.regression_label
        features = tuple(f.name for f in self.plan.features if f.name != label)
        self.solver = RidgeRegression(features, label)
        self.theta = None
        self.iterations: List[int] = []

    def run(self, payload) -> None:
        t = now()
        covar = covar_from_payload(payload, self.plan)
        t = self.part("covar_decode", t)
        model = self.fit(covar)
        self.part("ridge_fit", t)
        self.theta = model.theta
        self.iterations.append(model.iterations)

    def fit(self, covar):
        return self.solver.fit(covar, theta0=self.theta)


class ClosedFormRefresh(RidgeRefresh):
    """COVAR decode + normal-equations solve (what ``/model`` serves)."""

    def fit(self, covar):
        return self.solver.fit_closed_form(covar)


class MIRefresh(Refresh):
    """MI matrix, then the model-selection ranking and the Chow-Liu tree."""

    def run(self, payload) -> None:
        t = now()
        matrix = mutual_information_matrix(payload, self.plan)
        t = self.part("mi_matrix", t)
        rank_features(matrix, self.session.scenario.mi_label)
        t = self.part("rank", t)
        chow_liu_tree(matrix)
        self.part("chowliu", t)


REFRESHES = {"ridge": RidgeRefresh, "closed_form": ClosedFormRefresh, "mi": MIRefresh}


# ----------------------------------------------------------------------
# The HTTP reader of the serving workload
# ----------------------------------------------------------------------


class ReadSample(NamedTuple):
    path: str
    lateness_s: float  # issued this long after it was due
    latency_s: float  # response read, counted from the due time
    status: int  # 0: the connection failed


class Reader(threading.Thread):
    """One keep-alive connection on an open-loop schedule.

    Request ``i`` is due at ``start + i / rate`` whatever happened to the
    requests before it, and is timed from that due time, so a stall
    shows as latency on every request it delayed.
    """

    PATHS = ("/covar", "/model", "/healthz")

    def __init__(self, host: str, port: int, rate: float):
        super().__init__(name="bench-reader", daemon=True)
        self.host, self.port, self.rate = host, port, rate
        self.samples: List[ReadSample] = []
        self.staleness: List[int] = []
        self._halt = threading.Event()

    def run(self) -> None:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=10)
        start = now()
        sent = 0
        try:
            while not self._halt.is_set():
                due = start + sent / self.rate
                wait = due - now()
                if wait > 0 and self._halt.wait(wait):
                    break
                path = self.PATHS[sent % len(self.PATHS)]
                issued = now()
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    body = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()
                    body, status = b"", 0
                self.samples.append(ReadSample(path, issued - due, now() - due, status))
                if status == 200 and path == "/healthz":
                    self.staleness.append(json.loads(body).get("staleness", 0))
                sent += 1
        finally:
            connection.close()

    def failures(self) -> int:
        return sum(1 for sample in self.samples if sample.status != 200)

    def stop(self) -> None:
        self._halt.set()
        self.join(15)

