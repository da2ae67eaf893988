"""One workload in one fresh process: ``python -m bench.child``.

The parent (:mod:`bench.runner`) reads JSON lines from stdout: an
``{"event": "ready"}`` line once set-up and warm-up are done, then an
``{"event": "result", ...}`` line.  ``--seconds 0`` stops after set-up,
which is how the parent times set-up more than once per run.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict

from bench import OUT_DIR, references, spec, use_src
from bench.trace import Recorder, self_times, span_calls, write_chrome_trace
from bench.workloads import WORKLOADS, Measurement, Workload


def emit(event: str, **fields: object) -> None:
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def gated_metrics(workload: Workload, m: Measurement) -> Dict[str, dict]:
    metrics: Dict[str, dict] = {}
    for metric, times in m.times.items():
        ms = [t * 1e3 for t in times]
        row = workload.gate(metric, ms)
        if row is not None:
            metrics[metric] = {**row, "unit": "ms", "samples": ms}
    metrics["peak_rss_mb"] = {"value": workload.peak_rss_mb(), "unit": "MB"}
    return metrics


def layer_metrics(
    recorder: Recorder, status: Dict[str, str], traced: Measurement, untraced: Measurement
) -> Dict[str, dict]:
    """Every ``per_layer`` metric of BENCHMARK.json, from the spans.

    Layers whose every target is absent are marked ``absent``.
    """
    selfs = self_times(recorder.spans)
    calls = span_calls(recorder.spans)
    calls.update(recorder.counts)
    layers_present = {key.split(":", 1)[0] for key, s in status.items() if s == "wrapped"}
    layers_known = {key.split(":", 1)[0] for key in status}
    points = recorder.counts.get("serve.evaluate_points.points", 0)
    batches = calls.get("serve.evaluate_points", 0)
    derived = {
        "unattributed_s": traced.wall_s - sum(selfs.values()) / 1e9,
        "trace_overhead": traced.wall_s / untraced.wall_s - 1.0,
        "serve.batch_occupancy_mean": points / batches if batches else 0.0,
        "loadgen.p99_ms": traced.info.get("serve_p99_ms", (0.0, ""))[0],
        "loadgen.lag_ms_max": traced.info.get("loadgen_lag_ms_max", (0.0, ""))[0],
    }
    out: Dict[str, dict] = {}
    for entry in spec()["per_layer"]:
        name = entry["name"]
        layer = name.rsplit(".", 1)[0]
        if name in derived:
            value = derived[name]
        elif name.endswith(".self_s"):
            value = selfs.get(layer, 0) / 1e9
        elif name.endswith(".calls"):
            value = calls.get(layer, 0) + calls.get(name, 0)
        else:
            value = recorder.counts.get(name, 0)
        row = {"value": value, "unit": entry["unit"]}
        if layer in layers_known and layer not in layers_present:
            row["absent"] = True
        out[name] = row
    return out


def traced_run(workload: Workload, trace_file: Path) -> dict:
    untraced = workload.measure(counts=workload.trace_counts)
    recorder = Recorder()
    with workload.traced(recorder) as status:
        traced = workload.measure(counts=workload.trace_counts)
    write_chrome_trace(trace_file, recorder.spans, dict(recorder.counts))
    return {
        "per_layer": layer_metrics(recorder, status, traced, untraced),
        "layer_status": status,
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": untraced.wall_s,
        "trace_file": str(trace_file),
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "failures": untraced.failures + traced.failures,
    }


def timed_run(workload: Workload, seconds: float) -> dict:
    m = workload.measure(seconds=seconds)
    return {
        "metrics": gated_metrics(workload, m),
        "info": {k: {"value": v, "unit": u} for k, (v, u) in m.info.items()},
        "attempted": m.attempted,
        "failed": m.failed,
        "failures": m.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_src()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    workload = WORKLOADS[args.workload](args.seed, references(), work_dir)
    try:
        workload.setup()
        # Set-up garbage is not the timed code's to collect.
        gc.collect()
        gc.freeze()
        emit("ready")
        if args.trace:
            trace_file = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
            emit("result", **traced_run(workload, trace_file))
        elif args.seconds > 0:
            emit("result", **timed_run(workload, args.seconds))
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
