"""The command-line interface (the demo's tabs from a terminal)."""

import pytest

from repro.cli import build_parser, main
from repro.serving import ServingApp, build_serving_scenario


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


class TestRunAgreesWithServing:
    """After each bulk, ``repro run`` prints what ``repro serve`` answers on
    ``/topk`` and ``/model`` for the same engine state."""

    @pytest.mark.parametrize("app, payload", [("model-selection", "mi"), ("regression", "covar")])
    def test_each_bulk_prints_the_served_reads(self, capsys, app, payload):
        code, out = run_cli(
            capsys,
            ["run", "--app", app, "--bulks", "2", "--bulk-updates", "200",
             "--batch-size", "100"] + SMALL,
        )
        assert code == 0
        sections = out.split("\n--- bulk ")
        assert len(sections) == 3
        scenario = build_serving_scenario("retailer", payload, scale=1, seed=3)
        engine = scenario.engine()
        server = ServingApp(
            engine,
            regression_label=scenario.regression_label,
            mi_label=scenario.mi_label,
        )
        stream = scenario.stream(batch_size=100, insert_ratio=0.75)
        for bulk, section in enumerate(sections):
            if bulk:
                engine.apply_batch(list(stream.bulk(200)))
            engine.publish(event_offset=bulk)
            if app == "model-selection":
                status, body = server.handle("/topk")
                served = [
                    f"  [{'✔' if mi >= 0.1 else ' '}] {attribute:<28} MI={mi:.4f}"
                    for attribute, mi in body["ranking"]
                ]
            else:
                status, body = server.handle("/model")
                served = [f"  intercept: {body['intercept']:+.4f}"] + [
                    f"  {label:<28} {weight:+.4f}"
                    for label, weight in body["coefficients"].items()
                ]
            assert status == 200 and body["epoch"] == bulk + 1
            printed = [line for line in section.splitlines() if line.startswith("  ")]
            assert printed == served


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

    def test_windowed_save_then_resume_and_verify(self, capsys, tmp_path):
        # A windowed resume replays the source prefix through a fresh window
        # to rebuild its retraction schedule before any event reaches the
        # restored engine.
        path = str(tmp_path / "windowed.ckpt")
        code, out = run_cli(
            capsys,
            [
                "checkpoint", "save", path,
                "--updates", "600",
                "--batch-size", "50",
                "--engine-window", "sliding:200/100",
                "--every", "300",
            ]
            + SMALL,
        )
        assert code == 0
        code, out = run_cli(
            capsys,
            ["checkpoint", "load", path, "--resume-updates", "300", "--verify"],
        )
        assert code == 0
        assert "resumed 300 updates from the stream" in out
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

    def test_bench_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])
        assert "invalid choice: 'bench'" in capsys.readouterr().err
