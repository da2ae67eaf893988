"""Verdicts of ``python -m bench compare`` on synthetic result sets."""

from __future__ import annotations

import json
import random

from bench import compare


def write_set(path, values, failed=0, drift=1.0):
    """One results file per run; ``values[workload][metric]`` lists the
    metric's value in each run."""
    path.mkdir()
    runs = len(next(iter(next(iter(values.values())).values())))
    for i in range(runs):
        workloads = {
            name: {
                "trace": False,
                "attempted": 100,
                "failed": failed,
                "calibration_s": {"before": 0.5, "after": 0.5 * drift},
                "metrics": {metric: {"value": vals[i], "unit": "ms"} for metric, vals in metrics.items()},
            }
            for name, metrics in values.items()
        }
        (path / f"run-{i:02d}.json").write_text(json.dumps({"host": {}, "workloads": workloads}))
    return path


def around(center, spread=0.005, n=10, seed=0):
    rng = random.Random(seed)
    return [center * (1 + rng.uniform(-spread, spread)) for _ in range(n)]


def verdicts(a, b):
    rows, notes = compare.compare(compare.load(a), compare.load(b))
    return {(r.workload, r.metric): r.verdict for r in rows}, notes


def test_regressed_improved_unchanged_and_unresolved(tmp_path):
    # case_spice op_ms: 1.5x slower, as if its SPICE layer had slowed 1.5x.
    a = write_set(tmp_path / "a", {
        "case_spice": {"op_ms": around(1000, seed=1), "op2_ms": around(500, seed=2)},
        "model_sweep": {"op_ms": around(25, seed=3), "op2_ms": around(13, 0.3, seed=4)},
    })
    b = write_set(tmp_path / "b", {
        "case_spice": {"op_ms": around(1500, seed=5), "op2_ms": around(400, seed=6)},
        "model_sweep": {"op_ms": around(25, seed=7), "op2_ms": around(13, 0.3, seed=8)},
    })
    got, _ = verdicts(a, b)
    assert got[("case_spice", "op_ms")] == "regressed"
    assert got[("case_spice", "op2_ms")] == "improved"
    assert got[("model_sweep", "op_ms")] == "unchanged"
    assert got[("model_sweep", "op2_ms")] == "unresolved"
    assert got[("case_spice", "failed_frac")] == "unchanged"
    assert compare.main(a, b) == 1
    assert compare.main(a, a) == 0


def test_a_gain_needs_nine_of_ten_pairs(tmp_path):
    base = around(1000, seed=1)
    better = [v * 0.95 for v in base]
    better[0], better[1] = base[0] * 1.001, base[1] * 1.001  # two pairs lost
    a = write_set(tmp_path / "a", {"iss": {"op_ms": base}})
    b = write_set(tmp_path / "b", {"iss": {"op_ms": better}})
    got, _ = verdicts(a, b)
    assert got[("iss", "op_ms")] == "unchanged"


def test_any_rise_in_failed_frac_regresses(tmp_path):
    values = {"lint_frozen": {"op_ms": around(3000)}}
    a = write_set(tmp_path / "a", values)
    b = write_set(tmp_path / "b", values, failed=1)
    got, _ = verdicts(a, b)
    assert got[("lint_frozen", "failed_frac")] == "regressed"
    assert compare.main(a, b) == 1


def test_noisy_host_runs_are_left_out(tmp_path):
    a = write_set(tmp_path / "a", {"iss": {"op_ms": around(1000)}})
    b = write_set(tmp_path / "b", {"iss": {"op_ms": around(2000)}}, drift=1.2)
    got, notes = verdicts(a, b)
    assert ("iss", "op_ms") not in got
    assert any("noisy-host" in note for note in notes)
