"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import obs
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

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    @pytest.mark.parametrize("command", ["workloads", "lint", "artifacts"])
    def test_jobs_must_be_positive(self, command, jobs, capsys):
        # A usage error (exit 2) before any work starts, not a traceback.
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_no_global_trace_flag(self, capsys):
        # Tracing is `repro trace <cmd>` or REPRO_TRACE=1, not a flag.
        with pytest.raises(SystemExit) as exc:
            main(["--trace", "table2"])
        assert exc.value.code == 2
        assert "--trace" in capsys.readouterr().err


def _span_names(path):
    events = json.loads(path.read_text())["traceEvents"]
    return {event["name"] for event in events if event.get("ph") == "X"}


class TestTracing:
    """The two ways to trace a command, on one artifact build."""

    @staticmethod
    def _artifacts_argv(tmp_path):
        return [
            "artifacts", "--only", "table2", "--no-cache",
            "--output", str(tmp_path / "store"),
        ]

    def test_trace_passthrough_writes_chrome_trace(
        self, clean_obs, tmp_path, capsys
    ):
        out = tmp_path / "trace.json"
        argv = ["trace", "--output", str(out)] + self._artifacts_argv(tmp_path)
        assert main(argv) == 0
        assert "artifact.table2" in _span_names(out)
        assert f"to {out}" in capsys.readouterr().out

    def test_env_enabled_command_writes_to_trace_out(
        self, clean_obs, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "env-trace.json"
        monkeypatch.setenv(obs.ENV_TRACE_OUT, str(out))
        obs.enable()  # what REPRO_TRACE=1 does at import
        assert main(self._artifacts_argv(tmp_path)) == 0
        assert "artifact.table2" in _span_names(out)
        assert f"to {out}" in capsys.readouterr().err


class TestWorkerObservability:
    """`repro trace` / `repro metrics` see the ISS suite at any --jobs."""

    @staticmethod
    def _run(tmp_path, *argvs):
        """Run each ``repro`` argv in its own fresh process, concurrently;
        return their stdouts."""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(
            os.environ,
            PYTHONPATH=str(src),
            REPRO_CACHE_DIR=str(tmp_path / "cache"),
        )
        env.pop(obs.ENV_TRACE, None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", *argv],
                env=env,
                cwd=tmp_path,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for argv in argvs
        ]
        outs = []
        for proc in procs:
            stdout, stderr = proc.communicate()
            assert proc.returncode == 0, stderr
            outs.append(stdout)
        return outs

    def test_trace_sees_worker_spans(self, tmp_path):
        traces = [tmp_path / f"trace-{jobs}.json" for jobs in ("1", "2")]
        self._run(
            tmp_path,
            *(
                ["trace", "--output", str(out), "workloads", "--no-cache",
                 "--jobs", jobs]
                for out, jobs in zip(traces, ("1", "2"))
            ),
        )
        serial, pooled = (
            Counter(
                e["name"]
                for e in json.loads(out.read_text())["traceEvents"]
                if e["ph"] == "X"
            )
            for out in traces
        )
        assert pooled["iss.run"] == 8
        assert pooled == serial

    def test_metrics_sees_worker_counters(self, tmp_path):
        outs = self._run(
            tmp_path,
            *(
                ["metrics", "workloads", "--no-cache", "--jobs", jobs]
                for jobs in ("1", "2")
            ),
        )
        serial, pooled = (
            {
                row[0]: row[1]
                for row in map(str.split, stdout.splitlines())
                if len(row) == 2 and row[0].startswith("iss.")
            }
            for stdout in outs
        )
        assert serial["iss.runs"] == "8"
        assert pooled == serial


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
