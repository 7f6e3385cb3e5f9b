"""The command-line interface (the demo's tabs from a terminal)."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


SMALL = ["--scale", "1", "--seed", "3"]


class TestInfo:
    def test_covar_view_tree(self, capsys):
        code, out = run_cli(capsys, ["info", "--dataset", "retailer"] + SMALL)
        assert code == 0
        assert "V@locn" in out
        assert "DECLARE MAP" in out

    def test_count_payload(self, capsys):
        code, out = run_cli(
            capsys, ["info", "--payload", "count", "--dataset", "favorita"] + SMALL
        )
        assert code == 0
        assert "V@date" in out

    def test_mi_payload_with_dot(self, capsys):
        code, out = run_cli(capsys, ["info", "--payload", "mi", "--dot"] + SMALL)
        assert code == 0
        assert "digraph" in out


class TestRun:
    def test_model_selection_bulks(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "run",
                "--app",
                "model-selection",
                "--bulks",
                "1",
                "--bulk-updates",
                "200",
                "--batch-size",
                "100",
            ]
            + SMALL,
        )
        assert code == 0
        assert "label: inventoryunits" in out
        assert "bulk 1" in out

    def test_regression_on_favorita(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "run",
                "--dataset",
                "favorita",
                "--app",
                "regression",
                "--bulks",
                "1",
                "--bulk-updates",
                "200",
                "--batch-size",
                "100",
            ]
            + SMALL,
        )
        assert code == 0
        assert "intercept" in out

    def test_chowliu(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "run",
                "--app",
                "chow-liu",
                "--bulks",
                "1",
                "--bulk-updates",
                "200",
                "--batch-size",
                "100",
            ]
            + SMALL,
        )
        assert code == 0
        assert "MI=" in out


class TestBench:
    def test_engine_comparison(self, capsys):
        code, out = run_cli(
            capsys, ["bench", "--batches", "2", "--batch-size", "50"] + SMALL
        )
        assert code == 0
        assert "fivm" in out and "naive" in out
        assert "all engines agree" in out

    def test_sharded_engine_row(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "bench",
                "--batches",
                "2",
                "--batch-size",
                "50",
                "--engine-shards",
                "2",
                "--engine-backend",
                "serial",
            ]
            + SMALL,
        )
        assert code == 0
        assert "fivm x2" in out and "shards=2" in out
        assert "all engines agree" in out


    def test_profile_prints_the_stage_breakdown(self, capsys):
        # Decay runs the numeric covar ring, whose batches take the fused
        # program that --profile times stage by stage.
        code, out = run_cli(
            capsys,
            ["bench", "--batches", "2", "--batch-size", "50", "--engine-decay", "0.98/50",
             "--profile"] + SMALL,
        )
        assert code == 0
        assert "# fivm per-stage time (fused program)" in out
        for stage in ("lift", "probe", "scatter"):
            assert f"{stage:>10} " in out
        assert "fused batches: 2" in out

    def test_profile_times_the_count_run_in_row_mode(self, capsys):
        # Count views are dict views: the same compiled programs maintain
        # them in row mode, and --profile times those stages too.
        code, out = run_cli(
            capsys, ["bench", "--batches", "2", "--batch-size", "50", "--profile"] + SMALL
        )
        assert code == 0
        assert "# fivm per-stage time (fused program)" in out
        for stage in ("lift", "probe", "group", "scatter"):
            assert f"{stage:>10} " in out
        assert "fused batches: 0" in out


class TestCheckpoint:
    def test_save_info_load_roundtrip_across_shard_counts(self, capsys, tmp_path):
        path = str(tmp_path / "retailer.ckpt")
        code, out = run_cli(
            capsys,
            [
                "checkpoint", "save", path,
                "--updates", "400",
                "--batch-size", "100",
                "--engine-shards", "2",
                "--engine-backend", "serial",
            ]
            + SMALL,
        )
        assert code == 0
        assert "saved checkpoint" in out and "fivm-sharded" in out

        code, out = run_cli(capsys, ["checkpoint", "info", path])
        assert code == 0
        assert "Retailer" in out and "dataset: retailer" in out

        # restore at a different shard count, resume, verify vs full replay
        code, out = run_cli(
            capsys,
            [
                "checkpoint", "load", path,
                "--engine-shards", "4",
                "--engine-backend", "serial",
                "--resume-updates", "200",
                "--verify",
            ],
        )
        assert code == 0
        assert "restored" in out
        assert "identical to uninterrupted ingestion ✓" in out

    def test_save_periodic_and_unsharded_load(self, capsys, tmp_path):
        path = str(tmp_path / "periodic.ckpt")
        code, out = run_cli(
            capsys,
            [
                "checkpoint", "save", path,
                "--updates", "300",
                "--batch-size", "50",
                "--every", "100",
            ]
            + SMALL,
        )
        assert code == 0
        code, out = run_cli(capsys, ["checkpoint", "load", path, "--verify"])
        assert code == 0
        assert "identical to uninterrupted ingestion ✓" in out

    def test_load_rejects_non_checkpoint(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"not a checkpoint")
        assert main(["checkpoint", "info", str(bogus)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and "checkpoint" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--batch-size", "0"] + SMALL,
        ["checkpoint", "info", "{missing}"],
        ["checkpoint", "load", "{missing}"],
    ],
    ids=["run-batch-size-0", "checkpoint-info-missing", "checkpoint-load-missing"],
)
def test_library_errors_end_in_one_line(capsys, tmp_path, argv):
    argv = [arg.format(missing=tmp_path / "missing.fivm") for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "nope"])
