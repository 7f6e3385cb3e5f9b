"""Maintenance engines: F-IVM and the baselines it is evaluated against."""

from repro.engine.base import EngineStatistics, MaintenanceEngine
from repro.engine.firstorder import FirstOrderEngine
from repro.engine.fivm import FIVMEngine
from repro.engine.naive import NaiveEngine
from repro.engine.peragg import PerAggregateEngine
from repro.engine.sharded import ShardBackend, ShardedEngine, available_backends

__all__ = [
    "MaintenanceEngine",
    "EngineStatistics",
    "FIVMEngine",
    "FirstOrderEngine",
    "NaiveEngine",
    "PerAggregateEngine",
    "ShardedEngine",
    "ShardBackend",
    "available_backends",
]
