"""Tests for the compiled MNA stamp plan and DC source stepping."""

import math

import numpy as np
import pytest

from repro.devices import FET, Polarity, si_nfet, si_pfet
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


def _system_at(dt, t=0.3e-9, seed=7):
    """(plan, its step system, a random point, the step constant)."""
    plan = StampPlan(_every_element_kind(), gmin=1e-12)
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 0.7, plan.n)
    v_prev = None if dt is None else v + rng.uniform(-0.05, 0.05, plan.n)
    system = plan.system(dt)
    return plan, system, v, system.constant(plan.sources(t), v_prev), v_prev


@pytest.mark.parametrize("dt", [None, 1e-12], ids=["dc", "transient"])
def test_jacobian_matches_its_residual(dt):
    _plan, system, v, b, _v_prev = _system_at(dt)

    def residual(x):
        return system.residual(x, b).copy()

    _, jacobian = system.linearize(v, b)
    numeric = _central_difference_jacobian(residual, v)
    np.testing.assert_allclose(jacobian, numeric, rtol=1e-4, atol=1e-9)


@pytest.mark.parametrize("dt", [None, 1e-12], ids=["dc", "transient"])
def test_residual_is_the_backward_euler_residual(dt):
    """A v + b + i_fet(v) is G v + (C/dt)(v - v_prev) + s + i_fet(v)."""
    plan, system, v, b, v_prev = _system_at(dt)
    want = plan._g[:, : plan.n] @ v + plan.sources(0.3e-9)
    if dt is not None:
        want += plan._c[:, : plan.n] @ (v - v_prev) / dt
    volts = v.tolist() + [0.0]
    for fet, d, g, s in plan.fets:
        i = fet.ids(volts[g] - volts[s], volts[d] - volts[s])
        want[d] += i
        want[s] -= i
    np.testing.assert_allclose(system.residual(v, b), want[: plan.n], rtol=1e-12)


@pytest.mark.parametrize("dt", [None, 1e-12], ids=["dc", "transient"])
def test_linearization_residual_is_the_line_search_residual(dt):
    """The fused pass and the current-only pass agree bit for bit."""
    _plan, system, v, b, _v_prev = _system_at(dt)
    residual, _ = system.linearize(v, b)
    assert np.array_equal(residual, system.residual(v, b))


def test_transient_adds_the_capacitor_companion():
    plan = StampPlan(_every_element_kind(), gmin=1e-12)
    dt = 1e-12
    v = np.zeros(plan.n)
    s = plan.sources(0.0)
    _, dc_jacobian = plan.system(None).linearize(v, s)
    _, tr_jacobian = plan.system(dt).linearize(v, plan.system(dt).constant(s, v))
    out = plan.index["out"]
    # C_L plus the drain half of the PMOS gate cap.
    c_out = 1e-15 + si_pfet("p", 0.2).gate_capacitance_f() / 2
    assert tr_jacobian[out, out] - dc_jacobian[out, out] == pytest.approx(c_out / dt)


class _WrongSignPlan:
    """r(v) = v - 1 with a Jacobian of the wrong sign, so every Newton
    step points uphill and each line search runs out of halvings.  It
    is its own step system."""

    class circuit:
        name = "wrong_sign"

    def __init__(self):
        self.residual_at = []
        self.linearized_at = []

    def sources(self, t, scale=1.0):
        return np.zeros(1)

    def system(self, dt):
        return self

    def constant(self, s, v_prev):
        return s

    def residual(self, v, b):
        self.residual_at.append(v.tolist())
        return v - 1.0 + b

    def linearize(self, v, b):
        self.linearized_at.append(v.tolist())
        return v - 1.0 + b, -np.eye(1)


def test_exhausted_line_search_accepts_the_last_evaluated_point():
    plan = _WrongSignPlan()
    with pytest.raises(ConvergenceError, match="after 2 iterations"):
        newton_solve(plan, np.zeros(1), t=0.0, dt=None, v_prev=None, max_iterations=2)
    trials = len(LINE_SEARCH_SCALES)
    assert len(plan.residual_at) == 2 * trials
    # The step is damped to 0.5 V; the last trial is 2^-11 of it.
    last_trial = plan.residual_at[trials - 1]
    assert last_trial == [-0.5 * LINE_SEARCH_SCALES[-1]]
    # The second iteration linearizes at that point and steps from it.
    assert plan.linearized_at == [[0.0], last_trial]
    assert plan.residual_at[trials] == [pytest.approx(last_trial[0] - 0.5)]


class _NanFET(FET):
    """A linear channel whose current, gm and gds are NaN once vgs
    exceeds 0.3 V."""

    def __init__(self):
        super().__init__("nan", Polarity.NMOS, 1.0)

    def _ids_gm_gds_forward_per_um(self, vgs, vds):
        if vgs > 0.3:
            return math.nan, math.nan, math.nan
        return 1e-4 * vds, 0.0, 1e-4

    def gate_capacitance_f(self):
        return 1e-16

    @property
    def vdd_v(self):
        return 0.7


@pytest.mark.parametrize("dt", [None, 1e-12], ids=["dc", "transient"])
def test_nan_device_current_fails_instead_of_converging(dt):
    """Newton starts 0.5 nV from the solution, with the gate at the
    FET's NaN edge.  Its update is below ``vtol``, and every trial point
    has a residual of ~0 but for the FET's drain row, which is NaN and
    not the first entry: a norm that dropped NaN would return it."""
    c = Circuit("nan_fet")
    c.add(VoltageSource("vg", "g", "0", Dc(0.3 + 5e-10)))
    c.add(Resistor("rd", "d", "0", 1e3))
    c.add(FetElement("m", _NanFET(), "d", "g", "0"))
    plan = StampPlan(c, gmin=1e-12)
    v0 = np.zeros(plan.n)
    plan.set_nodes(v0, {"g": 0.3})
    assert plan.index["d"] > 0
    with pytest.raises(ConvergenceError):
        newton_solve(plan, v0, t=0.0, dt=dt, v_prev=None if dt is None else v0)


@pytest.mark.parametrize("dt", [None, 1e-12], ids=["dc", "transient"])
def test_parallel_voltage_sources_have_a_singular_jacobian(dt):
    c = Circuit("parallel_sources")
    c.add(VoltageSource("v1", "a", "0", Dc(1.0)))
    c.add(VoltageSource("v2", "a", "0", Dc(1.0)))
    c.add(Resistor("r1", "a", "0", 1e3))
    plan = StampPlan(c, gmin=1e-12)
    v0 = np.zeros(plan.n)
    with pytest.raises(ConvergenceError, match="singular Jacobian"):
        newton_solve(plan, v0, t=0.0, dt=dt, v_prev=None if dt is None else v0)


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
