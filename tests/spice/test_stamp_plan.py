"""Tests for the compiled MNA stamp plan and DC source stepping."""

import numpy as np
import pytest

from repro.devices import si_nfet, si_pfet
from repro.errors import ConvergenceError, NetlistError
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    Dc,
    FetElement,
    Pulse,
    Resistor,
    VoltageSource,
    dc_operating_point,
    transient,
)
from repro.spice import dc as dc_module
from repro.spice.elements import Element
from repro.spice.mna import LINE_SEARCH_SCALES, StampPlan, newton_solve


def _every_element_kind() -> Circuit:
    c = Circuit("all_kinds")
    c.add(VoltageSource("vdd", "vdd", "0", Dc(0.7)))
    c.add(VoltageSource("vin", "in", "0", Pulse(0.0, 0.7, delay=0.0, rise=1e-9, width=1e-6)))
    c.add(Resistor("rin", "in", "g", 1e3))
    c.add(CurrentSource("ibias", "0", "out", Dc(1e-6)))
    c.add(FetElement("mp", si_pfet("p", 0.2), "out", "g", "vdd"))  # gate caps
    c.add(FetElement("mn", si_nfet("n", 0.1), "out", "g", "mid", include_gate_caps=False))
    c.add(FetElement("mf", si_nfet("f", 0.3), "mid", "vdd", "0"))  # grounded source
    c.add(Capacitor("cl", "out", "0", 1e-15))
    return c


def _central_difference_jacobian(residual, v, h=1e-6):
    columns = []
    for j in range(v.size):
        step = np.zeros_like(v)
        step[j] = h
        columns.append((residual(v + step) - residual(v - step)) / (2 * h))
    return np.column_stack(columns)


@pytest.mark.parametrize("dt", [None, 1e-12], ids=["dc", "transient"])
def test_jacobian_matches_its_residual(dt):
    plan = StampPlan(_every_element_kind(), gmin=1e-12)
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 0.7, plan.n)
    v_prev = None if dt is None else v + rng.uniform(-0.05, 0.05, plan.n)
    s = plan.sources(0.3e-9)

    def residual(x):
        return plan.residual(x, s, dt, v_prev)[0].copy()

    jacobian = plan.jacobian(plan.residual(v, s, dt, v_prev)[1], dt)
    numeric = _central_difference_jacobian(residual, v)
    np.testing.assert_allclose(jacobian, numeric, rtol=1e-4, atol=1e-9)


def test_residual_returns_the_node_voltages_it_used():
    plan = StampPlan(_every_element_kind(), gmin=1e-12)
    v = np.random.default_rng(3).uniform(0.0, 0.7, plan.n)
    _, volts = plan.residual(v, plan.sources(0.0), None, None)
    # One entry per unknown, then the ground slot.
    assert volts == v.tolist() + [0.0]


def test_transient_adds_the_capacitor_companion():
    plan = StampPlan(_every_element_kind(), gmin=1e-12)
    dt = 1e-12
    volts = [0.0] * (plan.n + 1)
    dc_jacobian = plan.jacobian(volts, None)
    tr_jacobian = plan.jacobian(volts, dt)
    out = plan.index["out"]
    # C_L plus the drain half of the PMOS gate cap.
    c_out = 1e-15 + si_pfet("p", 0.2).gate_capacitance_f() / 2
    assert tr_jacobian[out, out] - dc_jacobian[out, out] == pytest.approx(c_out / dt)


class _WrongSignPlan:
    """r(v) = v - 1 with a Jacobian of the wrong sign, so every Newton
    step points uphill and each line search runs out of halvings."""

    class circuit:
        name = "wrong_sign"

    def __init__(self):
        self.residual_at = []
        self.jacobian_at = []

    def sources(self, t, scale=1.0):
        return None

    def residual(self, v, s, dt, v_prev):
        self.residual_at.append(v.tolist())
        return v - 1.0, v.tolist() + [0.0]

    def jacobian(self, volts, dt):
        self.jacobian_at.append(volts[:-1])
        return -np.eye(1)


def test_exhausted_line_search_accepts_the_last_evaluated_point():
    plan = _WrongSignPlan()
    with pytest.raises(ConvergenceError, match="after 2 iterations"):
        newton_solve(plan, np.zeros(1), t=0.0, dt=None, v_prev=None, max_iterations=2)
    trials = len(LINE_SEARCH_SCALES)
    assert len(plan.residual_at) == 1 + 2 * trials
    # The step is damped to 0.5 V; the last trial is 2^-11 of it.
    last_trial = plan.residual_at[trials]
    assert last_trial == [-0.5 * LINE_SEARCH_SCALES[-1]]
    # The second iteration linearizes at that point and steps from it.
    assert plan.jacobian_at == [[0.0], last_trial]
    assert plan.residual_at[trials + 1] == [pytest.approx(last_trial[0] - 0.5)]


def test_floating_voltage_source():
    c = Circuit("stacked_sources")
    c.add(VoltageSource("v1", "a", "0", Dc(1.0)))
    c.add(VoltageSource("v2", "b", "a", Dc(0.5)))
    c.add(Resistor("r1", "b", "0", 1e3))
    op = dc_operating_point(c)
    assert op["b"] == pytest.approx(1.5, abs=1e-9)
    # 1.5 mA flows out of each source's + terminal: negative branch current.
    res = transient(c, 1e-9, 1e-10)
    for name in ("v1", "v2"):
        assert res.current(name).final() == pytest.approx(-1.5e-3, rel=1e-6)


def test_unknown_element_subclass_is_rejected():
    class Inductor(Element):
        pass

    c = Circuit("odd")
    c.add(Resistor("r1", "a", "0", 1e3))
    c.add(Inductor("l1", ("a", "0")))
    with pytest.raises(NetlistError, match="Inductor"):
        StampPlan(c, gmin=1e-12)


def _stacked_inverters() -> Circuit:
    c = Circuit("stack")
    c.add(VoltageSource("vdd", "vdd", "0", Dc(0.7)))
    c.add(VoltageSource("vin", "in", "0", Dc(0.3)))
    c.add(CurrentSource("ileak", "mid", "0", Dc(1e-9)))
    c.add(FetElement("mp1", si_pfet("p1", 0.2), "mid", "in", "vdd"))
    c.add(FetElement("mn1", si_nfet("n1", 0.1), "mid", "in", "0"))
    c.add(FetElement("mp2", si_pfet("p2", 0.2), "out", "mid", "vdd"))
    c.add(FetElement("mn2", si_nfet("n2", 0.1), "out", "mid", "0"))
    return c


def test_source_stepping_fallback_leaves_the_netlist_alone(monkeypatch):
    want = dc_operating_point(_stacked_inverters())
    circuit = _stacked_inverters()
    drives = {e.name: e.drive for e in circuit.elements if hasattr(e, "drive")}
    real_solve = dc_module.newton_solve
    scales = []

    def first_plain_solve_fails(*args, **kwargs):
        scales.append(kwargs.get("source_scale", 1.0))
        if len(scales) == 1:
            raise ConvergenceError("forced")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(dc_module, "newton_solve", first_plain_solve_fails)
    got = dc_operating_point(circuit)
    # One failed plain solve, then the 10 % ... 100 % ramp.
    assert scales == pytest.approx([1.0] + list(np.linspace(0.1, 1.0, 10)))
    assert got.keys() == want.keys()
    for node, value in want.items():
        assert got[node] == pytest.approx(value, abs=1e-6)
    for e in circuit.elements:
        if e.name in drives:
            assert e.drive is drives[e.name]
