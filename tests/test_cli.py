"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        # Trigger help text generation to validate subparser wiring.
        text = parser.format_help()
        for command in (
            "table1", "table2", "fig2c", "fig2d", "fig4",
            "fig5", "fig6a", "fig6b", "workloads", "optimize",
        ):
            assert command in text

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_grid(self):
        with pytest.raises(SystemExit):
            main(["table2", "--grid", "mars"])

    @pytest.mark.parametrize("window_ms", ["-1", "nan", "inf", "soon"])
    def test_serve_rejects_bad_batch_window(self, window_ms, capsys):
        # A usage error (exit 2) before any server starts, not a traceback.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--batch-window-ms", window_ms])
        assert exc.value.code == 2
        assert "--batch-window-ms" in capsys.readouterr().err

    def test_serve_batch_window_defaults_to_zero(self):
        args = build_parser().parse_args(["serve"])
        assert args.batch_window_ms == 0.0


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "I_EFF" in out and "igzo" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "20,047,348" in out and "837" in out

    def test_fig2c(self, capsys):
        assert main(["fig2c"]) == 0
        out = capsys.readouterr().out
        assert "1100" in out

    def test_fig2d(self, capsys):
        assert main(["fig2d"]) == 0
        assert "lithography" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "RVT" in capsys.readouterr().out

    def test_fig5_with_options(self, capsys):
        assert main(["fig5", "--lifetime", "6", "--grid", "taiwan"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out

    def test_fig6a(self, capsys):
        assert main(["fig6a"]) == 0
        assert "nominal" in capsys.readouterr().out

    def test_fig6b(self, capsys):
        assert main(["fig6b"]) == 0
        assert "yield" in capsys.readouterr().out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("matmul-int", "crc32", "edn", "primecount", "fib", "ud"):
            assert name in out

    def test_optimize(self, capsys):
        assert main(["optimize", "--lifetime", "12"]) == 0
        out = capsys.readouterr().out
        assert "tCDP-optimal" in out

    def test_process_dump_and_load(self, capsys, tmp_path):
        path = str(tmp_path / "flow.json")
        assert main(["process", "--dump", path, "--builtin", "m3d"]) == 0
        assert main(["process", "--load", path]) == 0
        out = capsys.readouterr().out
        assert "1079.70 kWh/wafer" in out
        assert "kg/wafer" in out

    def test_process_requires_action(self, capsys):
        assert main(["process"]) == 1
