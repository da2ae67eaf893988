"""The transient's Newton predictor moves results by round-off only.

Each step's Newton solve starts from a polynomial extrapolation of the
accepted points instead of the previous point.  Newton converges to the
same solution from either start, so every waveform here must match a
reference that starts each step from the previous point -- stepped the
way ``transient`` did before the predictor, half-step retry included --
to Newton's round-off: the same samples, node voltages within 1e-12 V
and branch currents within 1e-15 A.
"""

import importlib

import numpy as np
import pytest

from repro.devices import si_nfet, si_pfet
from repro.edram import retention, timing
from repro.edram.bitcell import m3d_bitcell, si_bitcell
from repro.edram.subarray import SubArrayDesign
from repro.errors import ConvergenceError
from repro.spice import (
    Capacitor,
    Circuit,
    Dc,
    FetElement,
    Pulse,
    Resistor,
    VoltageSource,
    dc_operating_point,
    transient,
)
from repro.spice.mna import DEFAULT_GMIN, StampPlan, StepSystem, newton_solve
from tests.spice import senseamp

VOLT_ATOL = 1e-12
AMP_ATOL = 1e-15

CELLS = {"si": si_bitcell, "m3d": m3d_bitcell}

#: (write delay, read delay) in seconds, as characterized when every
#: step's Newton solve started from the previous point.
WARM_START_TIMING = {
    "si": (1.4145519417884725e-10, 9.380685420429038e-11),
    "m3d": (1.5004364088265384e-09, 2.8968069269154162e-11),
}


def _warm_start_transient(
    circuit, t_stop, dt, initial_conditions=None, use_dc_start=True,
    gmin=DEFAULT_GMIN,
):
    """``(times, history, plan)`` of a fixed-step backward-Euler run
    whose every Newton solve starts from the previous point."""
    plan = StampPlan(circuit, gmin)
    v = np.zeros(plan.n)
    if use_dc_start:
        plan.set_nodes(
            v, dc_operating_point(circuit, initial_guess=initial_conditions, gmin=gmin)
        )
    if initial_conditions:
        plan.set_nodes(v, initial_conditions)
    n_steps = int(round(t_stop / dt))
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    history = np.zeros((n_steps + 1, plan.n))
    history[0] = v
    for step in range(1, n_steps + 1):
        t = times[step]
        v_prev = history[step - 1]
        try:
            v = newton_solve(plan, v_prev, t=t, dt=dt, v_prev=v_prev)
        except ConvergenceError:
            half = newton_solve(plan, v_prev, t=t - dt / 2, dt=dt / 2, v_prev=v_prev)
            v = newton_solve(plan, half, t=t, dt=dt / 2, v_prev=half)
        history[step] = v
    return times, history, plan


def _recorded_transient(monkeypatch, module, run):
    """``(circuit, keyword arguments, result)`` of the one transient
    that ``run()`` starts through ``module.transient``."""
    calls = []

    def record(circuit, **kwargs):
        result = transient(circuit, **kwargs)
        calls.append((circuit, kwargs, result))
        return result

    monkeypatch.setattr(module, "transient", record)
    run()
    (call,) = calls
    return call


def _write(monkeypatch, tech):
    return _recorded_transient(
        monkeypatch, timing,
        lambda: timing.simulate_write(SubArrayDesign(CELLS[tech]())),
    )


def _full_read(monkeypatch, tech):
    subarray = SubArrayDesign(CELLS[tech]())
    vdd = subarray.cell.vdd_v
    kwargs = dict(
        t_stop=4e-9, dt=2e-12, initial_conditions={"rbl": vdd, "mid": 0.0},
        use_dc_start=False,
    )
    circuit = timing._read_circuit(subarray, vdd)
    return circuit, kwargs, transient(circuit, **kwargs)


def _read_zero(monkeypatch, tech):
    return _recorded_transient(
        monkeypatch, timing,
        lambda: timing.simulate_read_zero_disturb(SubArrayDesign(CELLS[tech]())),
    )


def _sense(monkeypatch, differential_v):
    return _recorded_transient(
        monkeypatch, senseamp, lambda: senseamp.simulate_sense(differential_v)
    )


def _retention(monkeypatch, tech, t_stop):
    return _recorded_transient(
        monkeypatch, retention,
        lambda: retention.simulate_retention_decay(CELLS[tech](), t_stop, n_steps=200),
    )


def _inverter_edge(monkeypatch):
    circuit = Circuit("inv")
    circuit.add(VoltageSource("vdd", "vdd", "0", Dc(0.7)))
    circuit.add(
        VoltageSource(
            "vin", "in", "0", Pulse(0.0, 0.7, delay=0.2e-9, rise=1e-12, width=2e-9)
        )
    )
    circuit.add(FetElement("mp", si_pfet("p", 0.2), "out", "in", "vdd"))
    circuit.add(FetElement("mn", si_nfet("n", 0.1), "out", "in", "0"))
    circuit.add(Capacitor("cl", "out", "0", 1e-15))
    kwargs = dict(t_stop=1e-9, dt=1e-12)
    return circuit, kwargs, transient(circuit, **kwargs)


CASES = [
    pytest.param(_write, ("si",), id="write-si", marks=pytest.mark.smoke),
    pytest.param(_write, ("m3d",), id="write-m3d"),
    pytest.param(_full_read, ("si",), id="read-si"),
    pytest.param(_full_read, ("m3d",), id="read-m3d"),
    pytest.param(_read_zero, ("si",), id="read-zero-si"),
    pytest.param(_read_zero, ("m3d",), id="read-zero-m3d"),
    *(
        pytest.param(_sense, (diff,), id=f"sense-{diff}")
        for diff in (0.01, 0.05, 0.2)
    ),
    pytest.param(_retention, ("si", 1e-3), id="retention-si"),
    pytest.param(_retention, ("m3d", 1.0), id="retention-m3d"),
    pytest.param(_inverter_edge, (), id="inverter-1ps-edge"),
]


@pytest.mark.parametrize("case, args", CASES)
def test_predicted_start_matches_the_warm_start(monkeypatch, case, args):
    circuit, kwargs, result = case(monkeypatch, *args)
    times, history, plan = _warm_start_transient(circuit, **kwargs)
    assert np.array_equal(result.times, times)
    for node, idx in plan.index.items():
        if idx >= 0:
            got = result.node_voltages[node]
            assert np.abs(got - history[:, idx]).max() <= VOLT_ATOL, node
    for name, off in plan.offsets.items():
        got = result.branch_currents[name]
        assert np.abs(got - history[:, off]).max() <= AMP_ATOL, name


@pytest.mark.parametrize("tech", sorted(CELLS))
def test_delays_match_the_warm_start(tech, request):
    characterized = request.getfixturevalue(f"{tech}_timing")
    want_write, want_read = WARM_START_TIMING[tech]
    assert characterized.write_delay_s == pytest.approx(want_write, rel=1e-12)
    assert characterized.read_delay_s == pytest.approx(want_read, rel=1e-12)


@pytest.mark.parametrize("tech", sorted(CELLS))
def test_write_takes_about_one_jacobian_per_step(monkeypatch, tech):
    """Started from the previous point, a write step took 2.05 Newton
    iterations; the predicted start is already within ``vtol``.  Every
    Newton iteration linearizes once, so each step takes at least one."""
    calls = [0]
    linearize = StepSystem.linearize

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return linearize(self, *args, **kwargs)

    monkeypatch.setattr(StepSystem, "linearize", counted)
    _delay, sn = timing.simulate_write(SubArrayDesign(CELLS[tech]()))
    steps = sn.times.size - 1
    assert steps <= calls[0] <= 1.15 * steps


def _rc_circuit():
    circuit = Circuit("rc")
    circuit.add(
        VoltageSource(
            "vin", "in", "0", Pulse(0.0, 1.0, delay=0.1e-9, rise=0.1e-9, width=1e-6)
        )
    )
    circuit.add(Resistor("r1", "in", "out", 1e3))
    circuit.add(Capacitor("c1", "out", "0", 1e-12))
    return circuit


def test_half_step_retry_starts_from_the_accepted_point(monkeypatch):
    dt, fail_step = 1e-11, 20
    times = np.linspace(0.0, 40 * dt, 41)
    calls = []

    def solve(plan, v0, t, dt, v_prev):
        calls.append(dict(v0=v0.copy(), t=t, dt=dt, v_prev=v_prev.copy()))
        if len(calls) == fail_step:
            raise ConvergenceError("full step refused")
        v = newton_solve(plan, v0, t=t, dt=dt, v_prev=v_prev)
        calls[-1]["v"] = v
        return v

    # The package re-exports the function under the module's name.
    module = importlib.import_module("repro.spice.transient")
    monkeypatch.setattr(module, "newton_solve", solve)
    circuit = _rc_circuit()
    out = circuit.unknown_index()["out"]
    result = transient(circuit, t_stop=40 * dt, dt=dt)

    # One solve per step, plus two half steps at the refused one.
    assert len(calls) == 40 + 2
    refused, first, second = calls[fail_step - 1 : fail_step + 2]
    accepted = refused["v_prev"]
    # The predictor had moved the full step's start off the accepted point.
    assert not np.array_equal(refused["v0"], accepted)
    assert np.array_equal(first["v0"], accepted)
    assert np.array_equal(first["v_prev"], accepted)
    assert first["t"] == times[fail_step] - dt / 2 and first["dt"] == dt / 2
    assert np.array_equal(second["v0"], first["v"])
    assert np.array_equal(second["v_prev"], first["v"])
    assert second["t"] == times[fail_step] and second["dt"] == dt / 2
    # The run completes, taking the second half step's point.
    assert np.array_equal(result.times, times)
    assert result.voltage("out").values[fail_step - 1] == accepted[out]
    assert result.voltage("out").values[fail_step] == second["v"][out]
