"""Self-test of the benchmark, at ``--quick`` scale.

    python3 -m pytest bench/tests -q

Every check drives ``bench/run.py`` the way the benchmark's users do: as
a command, reading the JSON object on its last line.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from metrics import END_TO_END, EXACT, EXACT_SHARDED, PER_LAYER, UNGATED_WORKLOADS  # noqa: E402
from run import RUN_SECONDS, WORKLOAD_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(*extra):
    process = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--quick", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    lines = process.stdout.strip().splitlines()
    return process.returncode, json.loads(lines[-1]) if lines else None


@functools.lru_cache(maxsize=None)
def quick(workload: str, seed: int, trace: int, repeat: int = 0):
    """One quick run; ``repeat`` only tells identical runs apart in the cache."""
    code, result = run_bench(
        "--workload", workload, "--seed", str(seed), "--trace", str(trace)
    )
    assert code == 0, f"{workload} exited {code}"
    return result


def values(result, names):
    return {name: result["metrics"][name]["value"] for name in names}


def test_declarations_agree_with_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert declared["paths"] == ["bench"]
    assert declared["run_seconds"] == RUN_SECONDS
    # the benchmark runs four workloads; BENCHMARK.json lists the gated ones
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS if w.name not in UNGATED_WORKLOADS
    ]
    assert set(UNGATED_WORKLOADS) < set(WORKLOAD_NAMES)
    assert tuple(w.name for w in WORKLOADS) == WORKLOAD_NAMES
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == PER_LAYER
    assert set(EXACT) <= set(PER_LAYER) and set(EXACT_SHARDED) <= set(EXACT)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = quick(workload, 5, 0)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    for name, (unit, _better, _bound) in END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = quick(workload, 5, 1)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(PER_LAYER)
    for name, (unit, _better) in PER_LAYER.items():
        assert result["metrics"][name]["unit"] == unit
    layers = values(result, PER_LAYER)
    assert layers["engine.apply_p50_us"] > 0
    assert layers["trace.overhead_ratio"] > 0
    # the access-path prediction: bulk is all fused, nothing else is
    fused = layers["engine.path.fused_batches"]
    assert (fused > 0) == (workload == "retailer_covar_bulk")
    assert (layers["sharded.route_p50_us"] > 0) == (workload == "favorita_sharded_serve")


@pytest.mark.parametrize(
    "workload, names",
    [
        ("retailer_covar_bulk", EXACT),
        ("retailer_covar_trickle", EXACT),
        ("retailer_mi_mixed", EXACT),
        ("favorita_sharded_serve", EXACT_SHARDED),
    ],
)
def test_exact_counters_repeat_for_a_seed_and_move_with_it(workload, names):
    first = values(quick(workload, 5, 1), names)
    again = values(quick(workload, 5, 1, repeat=1), names)
    other = values(quick(workload, 6, 1), names)
    assert first == again
    assert first != other


def test_wrong_reference_fails_the_run():
    code, result = run_bench(
        "--workload", "retailer_covar_trickle", "--seed", "5", "--corrupt-reference"
    )
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] > 0


def bench_processes():
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"bench/run.py" in handle.read():
                    found.append(pid)
        except OSError:
            pass  # exited while we looked
    return found


#: What was there before any run of this module: the shell that launched
#: pytest may itself carry "bench/run.py" in its command line.
BEFORE = (set(os.listdir("/dev/shm")), set(bench_processes()))


def test_runs_leave_nothing_behind():
    """Last in the file: after every run above, the sharded ones included."""
    quick("favorita_sharded_serve", 5, 0)
    segments, processes = BEFORE
    assert set(os.listdir("/dev/shm")) <= segments
    assert set(bench_processes()) <= processes
    work = os.path.join(BENCH, ".work")
    assert not os.path.exists(work) or not os.listdir(work)
