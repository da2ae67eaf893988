"""Command-line behaviour that the benchmark's users rely on."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

from bench import BENCH_DIR, ROOT
from bench.runner import contract_line


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "iss", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_contract_line_has_every_metric_of_its_section():
    result = {
        "trace": False,
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {
            name: {"value": 1.5, "unit": unit}
            for name, unit in (("setup_s", "s"), ("peak_rss_mb", "MB"), ("op_ms", "ms"), ("op2_ms", "ms"))
        },
    }
    line = json.loads(contract_line(result))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    del result["metrics"]["op2_ms"]
    assert contract_line(result) is None
