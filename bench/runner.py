"""Run workloads in fresh processes; time set-up; write and print results.

Set-up is timed from the parent: from launching the child process to
its ``ready`` line.  Each timed run sets up ``SETUP_RUNS`` times (the
first ones stop right after set-up) and reports the median.  A fixed
calibration loop runs before and after each workload, so ``compare``
can set aside runs on a host whose speed drifted.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from bench import ROOT, references, spec
from bench.workloads import child_env

SETUP_RUNS = 5
#: Wall-clock budget of one workload, all its processes included.
WORKLOAD_TIMEOUT_S = 170.0


class ChildError(RuntimeError):
    """A workload process failed, timed out or said nothing."""


def calibrate() -> float:
    """Seconds for a fixed loop of pure Python and numpy work: the
    fastest of 10 repetitions, ~0.5 s in all, so that a brief stall
    does not pass for a slower host."""
    import numpy as np

    values = np.random.default_rng(0).random(40_000)
    best = float("inf")
    for _ in range(10):
        start = time.perf_counter()
        total = 0
        for i in range(720_000):
            total += i * i % 7
        for _ in range(6):
            np.sort(values)
        best = min(best, time.perf_counter() - start)
    return best


def fingerprint() -> dict:
    import numpy as np

    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        "lint_corpus_commit": references()["lint_frozen"]["commit"],
    }


def launch(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> Tuple[float, Optional[dict]]:
    """Run one child; returns (set-up seconds, result message)."""
    cmd = [
        sys.executable, "-m", "bench.child",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ]
    start = time.perf_counter()
    # A session of its own, so a kill also reaches the server and lint
    # workers the child started.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True
    )

    def kill_session() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(1.0, deadline - start), kill_session)
    timer.start()
    ready: Optional[float] = None
    result: Optional[dict] = None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if not line.startswith('{"event"'):
                continue
            message = json.loads(line)
            if message["event"] == "ready":
                ready = time.perf_counter() - start
            elif message["event"] == "result":
                result = message
        code = proc.wait()
    finally:
        timer.cancel()
        kill_session()  # also whatever a failed child left behind
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    wants_result = trace or seconds > 0
    if code != 0 or ready is None or (wants_result and result is None):
        raise ChildError(f"{workload}: workload process exited with {code} before finishing")
    return ready, result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + WORKLOAD_TIMEOUT_S
    before = calibrate()
    if trace:
        _setup, result = launch(name, seed, seconds, True, deadline)
    else:
        setups = [launch(name, seed, 0, False, deadline)[0] for _ in range(SETUP_RUNS - 1)]
        setup, result = launch(name, seed, seconds, False, deadline)
        setups.append(setup)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s", "runs": setups}
    after = calibrate()
    assert result is not None
    result.pop("event")
    result.update(
        workload=name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        correct=result["failed"] == 0,
        calibration_s={"before": before, "after": after},
    )
    if not trace:
        result["metrics"]["failed_frac"] = {
            "value": result["failed"] / max(1, result["attempted"]),
            "unit": "fraction",
        }
    return result


def contract_line(result: dict) -> Optional[str]:
    """The one-line summary: every end-to-end (or, traced, per-layer)
    metric of BENCHMARK.json for one workload; None if one is missing
    because every attempt of an operation failed."""
    section = "per_layer" if result["trace"] else "end_to_end"
    source = result["per_layer"] if result["trace"] else result["metrics"]
    metrics = {}
    for entry in spec()[section]:
        row = source.get(entry["name"])
        if row is None:
            return None
        metrics[entry["name"]] = {"value": row["value"], "unit": row["unit"]}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def render_run(result: dict) -> str:
    lines = [
        f"{result['workload']}  seed {result['seed']}, {result['seconds']:g} s, "
        f"{result['attempted']} operations, {result['failed']} failed"
    ]
    for name, row in result["metrics"].items():
        text = f"  {name:14s} {_fmt(row['value']):>12s} {row['unit']}"
        if "n" in row:
            text += f"  ({row['stat']}; quartiles {_fmt(row['q1'])}..{_fmt(row['q3'])}, n={row['n']})"
        if "runs" in row:
            text += "  (median of " + ", ".join(_fmt(v) for v in row["runs"]) + ")"
        lines.append(text)
    for name, row in result["info"].items():
        lines.append(f"  {name:14s} {_fmt(row['value']):>12s} {row['unit']}  (not gated)")
    calib = result["calibration_s"]
    lines.append(f"  calibration    {calib['before']:.3f} s before, {calib['after']:.3f} s after")
    lines.extend(f"  FAILED: {text}" for text in result["failures"])
    return "\n".join(lines)


def render_trace(result: dict) -> str:
    rows = result["per_layer"]
    wall = result["traced_wall_s"]
    lines = [
        f"{result['workload']}  traced wall {wall:.3f} s, untraced {result['untraced_wall_s']:.3f} s"
        f"  (trace: {result['trace_file']})",
        f"  {'per-layer metric':40s} {'value':>12s}",
    ]
    self_total = 0.0
    unreached = 0
    for name, row in rows.items():
        if row.get("absent"):
            lines.append(f"  {name:40s} {'absent':>12s}")
            continue
        if row["value"] == 0:
            unreached += 1
            continue
        if name.endswith(".self_s"):
            self_total += row["value"]
        lines.append(f"  {name:40s} {_fmt(row['value']):>12s} {row['unit']}")
    lines.append(
        f"  {'self time of all layers + unattributed':40s} "
        f"{_fmt(self_total + rows['unattributed_s']['value']):>12s} s (traced wall {_fmt(wall)} s)"
    )
    lines.append(f"  ({unreached} more per-layer metrics read 0: layers this workload does not reach)")
    lines.extend(f"  FAILED: {text}" for text in result["failures"])
    return "\n".join(lines)


def run(names: Sequence[str], seed: int, seconds: float, trace: bool, out_dir: Path) -> int:
    results: Dict[str, dict] = {}
    for name in names:
        result = run_workload(name, seed, seconds, trace)
        results[name] = result
        print(render_trace(result) if trace else render_run(result), flush=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    label = names[0] if len(names) == 1 else "all"
    path = out_dir / f"{'trace' if trace else 'run'}-{stamp}-{label}-s{seed}.json"
    path.write_text(
        json.dumps({"host": fingerprint(), "workloads": results}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"results: {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    if len(names) == 1:
        line = contract_line(results[names[0]])
        if line is None:
            print(f"bench: {names[0]}: a metric has no successful sample", file=sys.stderr)
            return 1
        print(line)
    return 0 if all(r["correct"] for r in results.values()) else 1


def workload_names() -> List[str]:
    return [w["name"] for w in spec()["workloads"]]
