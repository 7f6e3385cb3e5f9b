"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import os
import sys
from unittest import mock

import hypothesis
import pytest
from hypothesis import strategies as st

from repro.data import Database, Relation
from repro.datasets import (
    RetailerConfig,
    generate_retailer,
    retailer_variable_order,
    toy_database,
)
from repro.engine.base import EngineStatistics
from repro.rings.scalar import IntegerRing

hypothesis.settings.register_profile(
    "fivm",
    max_examples=30,
    deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
hypothesis.settings.load_profile("fivm")


# ----------------------------------------------------------------------
# Test seam: the per-tuple path at any batch size
# ----------------------------------------------------------------------


def per_tuple_path():
    """Context manager: while active no delta is large enough for the
    fused columnar program, so every ``apply`` takes the per-tuple path
    — the reference the fused path is checked against. The engine has no
    option for this; the size threshold is the only seam."""
    return mock.patch.object(EngineStatistics, "COLUMNAR_MIN_DELTA", sys.maxsize)


def assert_same_as_rebuilt(index):
    """The (patched) cached probe arrays equal a from-scratch rebuild."""
    patched = index.cache
    index.cache = None
    rebuilt = index.probe_arrays()
    index.cache = patched
    for name in ("slots", "starts", "counts"):
        assert getattr(patched, name).tolist() == getattr(rebuilt, name).tolist(), name
    for name in ("key_cols", "hook_cols"):
        ours, theirs = getattr(patched, name), getattr(rebuilt, name)
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            # (an empty column has no type worth keeping)
            assert a.tolist() == b.tolist() and (not len(a) or a.dtype == b.dtype), name


def _proc_state_and_parent(pid):
    """``(state, ppid)`` of a process from ``/proc``; ``None`` if gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            # "pid (comm) state ppid ..."; comm may contain spaces.
            state, ppid = handle.read().rpartition(")")[2].split()[:2]
    except OSError:
        return None
    return state, int(ppid)


def pid_alive(pid):
    """Running, i.e. present and not a zombie awaiting its parent."""
    found = _proc_state_and_parent(pid)
    return found is not None and found[0] != "Z"


def child_pids(pid):
    """Pids of the live direct children of ``pid`` — how the tests see
    the shard workers of *another* process (a crashed coordinator, a
    signalled CLI)."""
    found = {
        int(entry): _proc_state_and_parent(entry)
        for entry in os.listdir("/proc") if entry.isdigit()
    }
    return [
        child for child, stat in found.items()
        if stat is not None and stat[1] == pid and stat[0] != "Z"
    ]


class _GenericIntegerRing(IntegerRing):
    """Z with ``is_scalar`` off: the same data takes the generic-ring
    branches of Relation/IndexedRelation (``ring.add``/``ring.is_zero``
    dispatch instead of native ``+`` and truthiness), so scalar ≡ generic
    is checked without a switch in ``src/``."""

    name = "Z-generic"
    is_scalar = False
    has_bulk_kernels = False


GENERIC_Z = _GenericIntegerRing()


# ----------------------------------------------------------------------
# Databases
# ----------------------------------------------------------------------


@pytest.fixture
def toy_db() -> Database:
    return toy_database()


@pytest.fixture(scope="session")
def small_retailer_config() -> RetailerConfig:
    return RetailerConfig(locations=6, dates=10, items=30, inventory_rows=400, seed=11)


@pytest.fixture(scope="session")
def small_retailer_db(small_retailer_config) -> Database:
    return generate_retailer(small_retailer_config)


@pytest.fixture
def retailer_order():
    return retailer_variable_order()


# ----------------------------------------------------------------------
# Hypothesis strategies (integer-valued to keep float arithmetic exact)
# ----------------------------------------------------------------------

small_ints = st.integers(min_value=-6, max_value=6)
small_nonneg = st.integers(min_value=0, max_value=6)
tiny_floats = st.integers(min_value=-5, max_value=5).map(float)


def rows_strategy(arity: int, domain: int = 4, max_rows: int = 8):
    """Random rows over a small integer domain."""
    row = st.tuples(*[st.integers(min_value=0, max_value=domain - 1)] * arity)
    return st.lists(row, max_size=max_rows)


def z_relation_strategy(schema, domain: int = 4, max_rows: int = 8):
    """Random Z-relations (possibly with signed multiplicities)."""

    def build(entries):
        relation = Relation(schema)
        for key, multiplicity in entries:
            if multiplicity:
                relation.data[key] = (
                    relation.data.get(key, 0) + multiplicity
                )
                if relation.data[key] == 0:
                    del relation.data[key]
        return relation

    key = st.tuples(
        *[st.integers(min_value=0, max_value=domain - 1)] * len(schema)
    )
    entry = st.tuples(key, st.integers(min_value=-2, max_value=3))
    return st.lists(entry, max_size=max_rows).map(build)
