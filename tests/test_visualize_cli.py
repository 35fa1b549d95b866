"""Tests for the ASCII timeline renderer and the plan/list CLI paths."""

import json

import pytest

from repro.experiments.cli import main
from repro.pipeline.schedules import one_f_one_b_schedule
from repro.pipeline.simulator import simulate
from repro.pipeline.tasks import StageCosts
from repro.pipeline.visualize import render_timeline


class TestRenderTimeline:
    @pytest.fixture
    def result(self):
        costs = [StageCosts(forward=1.0, backward=2.0) for _ in range(3)]
        return simulate(one_f_one_b_schedule(costs, 4))

    def test_one_row_per_device(self, result):
        lines = render_timeline(result).splitlines()
        device_rows = [line for line in lines if line.startswith("dev")]
        assert len(device_rows) == 3

    def test_header_reports_time_and_bubbles(self, result):
        header = render_timeline(result).splitlines()[0]
        assert "1F1B" in header and "bubble" in header

    def test_contains_forward_and_backward_marks(self, result):
        text = render_timeline(result)
        assert "#" in text  # backward
        assert any(d in text for d in "0123")  # forward micro-batch digits

    def test_width_is_respected(self, result):
        lines = render_timeline(result, width=50).splitlines()
        for line in lines:
            if line.startswith("dev"):
                assert len(line) <= 50 + 10  # prefix + padding

    def test_empty_schedule(self):
        from repro.pipeline.tasks import Schedule

        empty = simulate(Schedule(name="x", num_devices=1, device_tasks=[[]]))
        assert "empty" in render_timeline(empty)


class TestPlanCli:
    def test_plan_with_explicit_strategy(self, capsys, tmp_path):
        out = tmp_path / "plan.json"
        code = main(
            [
                "plan",
                "--model", "llama2-70b",
                "--devices", "32",
                "--seq", "4096",
                "--batch", "32",
                "--tp", "4", "--pp", "8", "--dp", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "best strategy" in captured
        assert "simulated iteration time" in captured
        document = json.loads(out.read_text())
        assert document["method"] == "AdaPipe"
        assert len(document["stages"]) == 8

    def test_plan_rejects_partial_strategy(self, capsys):
        code = main(["plan", "--tp", "4"])
        assert code == 2
        assert "together" in capsys.readouterr().err

    def test_plan_reports_all_oom(self, capsys):
        code = main(
            [
                "plan",
                "--model", "gpt3-175b",
                "--devices", "16",
                "--seq", "16384",
                "--batch", "16",
                "--tp", "8", "--pp", "2", "--dp", "1",
            ]
        )
        assert code == 1
        assert "OOM" in capsys.readouterr().out

    def test_list_shows_methods(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "AdaPipe" in out and "Chimera-Full" in out


class TestBadInputs:
    """Bad command-line values exit 2 with an error, never a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--schedules", "1f1b", "wavefront"],
            ["robustness", "--schedule", "wavefront"],
            ["robustness", "--engine", "magic"],
        ],
        ids=["audit-schedules", "robustness-schedule", "robustness-engine"],
    )
    def test_unknown_registry_choice_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (
                ["plan", "--device-pool", "a100*0:4"],
                "error: --device-pool: device slowdown must be > 0",
            ),
            (
                ["replan", "--plan", "missing.json", "--device-pool", "a100:2"],
                "error: --plan: ",
            ),
        ],
        ids=["zero-slowdown-pool", "missing-plan-file"],
    )
    def test_bad_value_prints_one_error_line(self, argv, message, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert err.count("\n") == 1
