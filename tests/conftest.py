"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import os
import sys
from unittest import mock

import hypothesis
import pytest
from hypothesis import strategies as st

from repro.data import Database
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
# Test seam: the compiled program's row mode at any batch size
# ----------------------------------------------------------------------


def row_mode():
    """Context manager: while active no delta is large enough for the
    columnar mode, so every ``apply`` on a slot-store engine runs its
    compiled program in row mode — one payload per key, the reference
    the columnar mode is checked against (dict-view engines, which have
    no program, are unaffected). The engine has no option for this; the
    size threshold is the only seam."""
    return mock.patch.object(EngineStatistics, "COLUMNAR_MIN_DELTA", sys.maxsize)


def probe_entries(arrays):
    """What a probe reads from probe arrays, whatever their layout: per
    bucket that holds keys, in position order, its position, hook and
    ``(key, slot)`` entries in order."""
    live, hooks = arrays.live_hooks()
    hooks = list(zip(*(col.tolist() for col in hooks))) if hooks else [()] * len(live)
    entries = []
    for b, hook in zip(live.tolist(), hooks):
        lo = int(arrays.starts[b])
        hi = lo + int(arrays.counts[b])
        keys = list(zip(*(col[lo:hi].tolist() for col in arrays.key_cols)))
        entries.append((b, hook, keys or [()] * (hi - lo), arrays.slots[lo:hi].tolist()))
    return entries


def assert_same_as_rebuilt(index):
    """The (patched) cached probe arrays read as a from-scratch rebuild,
    in columns of the same types."""
    patched = index.cache
    index.cache = None
    rebuilt = index.probe_arrays()
    index.cache = patched
    assert probe_entries(patched) == probe_entries(rebuilt)
    for name in ("key_cols", "hook_cols"):
        ours, theirs = getattr(patched, name), getattr(rebuilt, name)
        assert len(ours) == len(theirs), name
        for a, b in zip(ours, theirs):
            # (an empty column has no type worth keeping)
            assert not len(a) or a.dtype == b.dtype, name


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
    branch of ``Relation._add_rows`` (``ring.add``/``ring.is_zero``
    dispatch instead of native ``+`` and truthiness), so scalar ≡ generic
    is checked without a switch in ``src/``."""

    name = "Z-generic"
    is_scalar = False


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
