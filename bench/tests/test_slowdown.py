"""A seeded 1.5x slowdown of one layer shows in that layer's row.

That ``compare`` calls a 1.5x slower case_spice regressed and an
unchanged model_sweep unchanged is in test_compare.py.
"""

from __future__ import annotations

import importlib
import time

from bench import references
from bench.trace import Recorder, self_times
from bench.workloads import CaseSpice


def test_stretched_simulate_read_lands_in_its_row(monkeypatch, tmp_path):
    timing = importlib.import_module("repro.edram.timing")
    workload = CaseSpice(0, references(), tmp_path)
    workload.setup()

    def traced_pass():
        recorder = Recorder()
        with workload.traced(recorder):
            m = workload.measure(counts={"op2_ms": 1})
        assert m.failed == 0, m.failures
        return self_times(recorder.spans)

    base = traced_pass()
    original = timing.simulate_read
    injected = []

    def stretched(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        extra = 0.5 * (time.perf_counter() - start)
        time.sleep(extra)
        injected.append(extra)
        return result

    monkeypatch.setattr(timing, "simulate_read", stretched)
    slow = traced_pass()

    extra_ns = sum(injected) * 1e9
    grew = slow["edram.simulate_read"] - base["edram.simulate_read"]
    assert 0.9 * extra_ns <= grew <= extra_ns + 20e6
    assert slow["edram.characterize"] - base["edram.characterize"] < 5e6

