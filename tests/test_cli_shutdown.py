"""Graceful shutdown: SIGTERM unwinds serve cleanly, flushing state."""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.checkpoint import read_checkpoint_info
from repro.engine import available_backends
from tests.conftest import child_pids, pid_alive

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def spawn_serve(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--dataset", "toy", "--payload", "covar",
            "--updates", "3000000", "--batch-size", "200",
            "--port", "0", "--linger", "-1", *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )


def wait_for(predicate, proc, seconds=60.0):
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if predicate():
            return
        assert proc.poll() is None, proc.stdout.read()
        time.sleep(0.1)
    pytest.fail("condition not reached before the deadline")


class TestServeSigterm:
    def test_sigterm_mid_ingest_flushes_final_checkpoint(self, tmp_path):
        ckpt = tmp_path / "serve.ckpt"
        proc = spawn_serve(
            tmp_path,
            "--checkpoint", str(ckpt), "--checkpoint-every", "2000",
        )
        try:
            # The first periodic snapshot proves ingest is mid-stream.
            wait_for(ckpt.exists, proc)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, out
        assert "interrupted; shutting down" in out
        assert "final checkpoint written" in out
        info = read_checkpoint_info(str(ckpt))
        # The shutdown flush stamped the drained stream position — far
        # short of the 3M the command asked for.
        assert 0 < info.metadata["events_processed"] < 3000000

    def test_sigterm_without_checkpointing_exits_clean(self, tmp_path):
        proc = spawn_serve(tmp_path)
        try:
            time.sleep(2.0)
            assert proc.poll() is None
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, out
        assert "interrupted; shutting down" in out
        assert "final checkpoint" not in out

    @pytest.mark.skipif(
        "process" not in available_backends() or not os.path.isdir("/proc"),
        reason="needs fork and /proc",
    )
    def test_sigterm_leaves_no_shard_worker_behind(self, tmp_path):
        proc = spawn_serve(
            tmp_path, "--engine-shards", "2", "--engine-backend", "process"
        )
        workers = []
        try:
            wait_for(lambda: len(child_pids(proc.pid)) >= 2, proc)
            workers = child_pids(proc.pid)
            # The workers fork before serve routes SIGTERM into its clean
            # shutdown; the banner is printed after, so wait for it.
            for line in proc.stdout:
                if line.startswith("# serving"):
                    break
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, out
        assert "interrupted; shutting down" in out
        assert not [pid for pid in workers if pid_alive(pid)]
