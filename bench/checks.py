"""The reference check: maintained state against re-evaluation."""

from __future__ import annotations

import http.client
import json
from typing import List, Tuple

import numpy as np

from repro import EngineConfig, covar_from_payload, create_engine
from repro.datasets import UpdateStream

from harness import Session

def reference_payload(session: Session, corrupt: bool):
    """Re-evaluate the query from scratch over the stream's shadow database.

    ``corrupt`` (the self-test's deliberately wrong reference) inserts one
    extra fact row first, so the comparison must fail.
    """
    scenario, stream = session.scenario, session.source.stream
    database = stream.shadow
    if corrupt:
        database = database.copy()
        name = session.spec.targets[0]
        extra = UpdateStream(
            database, scenario.factories, targets=(name,), batch_size=1,
            insert_ratio=1.0, seed=12345,
        )
        database.apply(*extra.next_batch())
    reference = create_engine(scenario.query, EngineConfig(), order=scenario.order)
    reference.initialize(database)
    return reference.result().payload(())


def covar_arrays(covar) -> Tuple[List[str], np.ndarray]:
    labels = [column.label for column in covar.columns]
    values = np.concatenate(([covar.count], covar.sums, covar.moments.ravel()))
    return labels, values


def covar_matches(actual, expected) -> bool:
    """Float COVAR: same columns, and values equal to ``rtol=1e-9`` with an
    absolute floor scaled to the largest entry (sums that cancel to ~0)."""
    labels_a, values_a = actual
    labels_e, values_e = expected
    if labels_a != labels_e or values_a.shape != values_e.shape:
        return False
    floor = 1e-9 * float(np.abs(values_e).max(initial=0.0))
    return bool(np.allclose(values_a, values_e, rtol=1e-9, atol=floor))


def check_reference(session: Session, corrupt: bool) -> List[bool]:
    """One verdict per check: the maintained root against re-evaluation,
    and on the serving workload the last ``/covar`` body served too."""
    session.drain()
    plan = session.plan
    expected = reference_payload(session, corrupt)
    actual = session.engine.latest_snapshot().result.payload(())
    if session.scenario.mi_label is not None:
        return [bool(plan.ring.eq(actual, expected))]  # MI counts: exact
    expected_arrays = covar_arrays(covar_from_payload(expected, plan))
    verdicts = [
        covar_matches(covar_arrays(covar_from_payload(actual, plan)), expected_arrays)
    ]
    if session.server is not None:
        connection = http.client.HTTPConnection(
            session.server.host, session.server.port, timeout=10
        )
        try:
            connection.request("GET", "/covar")
            body = json.loads(connection.getresponse().read())
        finally:
            connection.close()
        served = (
            body.get("columns"),
            np.concatenate(
                ([body.get("count", 0.0)], body.get("sums", []),
                 np.asarray(body.get("moments", []), dtype=float).ravel())
            ),
        )
        verdicts.append(
            body.get("event_offset") == session.position
            and covar_matches(served, expected_arrays)
        )
    return verdicts

