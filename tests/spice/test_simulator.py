"""Tests for the MNA circuit simulator: DC and transient analyses."""

import math

import numpy as np
import pytest

from repro.devices import si_nfet, si_pfet
from repro.errors import AnalysisError, NetlistError
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
from repro.spice.dc import dc_sweep
from repro.spice.waveform import Crossing, delay_between


class TestNetlist:
    def test_duplicate_element(self):
        c = Circuit()
        c.add(Resistor("r1", "a", "0", 1e3))
        with pytest.raises(NetlistError, match="duplicate"):
            c.add(Resistor("r1", "b", "0", 1e3))

    def test_ground_not_an_unknown(self):
        c = Circuit()
        c.add(Resistor("r1", "a", "0", 1e3))
        assert c.nodes == ("a",)
        assert c.unknown_index()["0"] == -1

    def test_validate_requires_ground(self):
        c = Circuit()
        c.add(Resistor("r1", "a", "b", 1e3))
        with pytest.raises(NetlistError, match="ground"):
            c.validate()

    def test_validate_empty(self):
        with pytest.raises(NetlistError, match="empty"):
            Circuit().validate()

    def test_branch_unknowns(self):
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", Dc(1.0)))
        c.add(Resistor("r1", "a", "0", 1e3))
        assert c.n_branch_unknowns() == 1
        assert c.n_unknowns() == 2

    def test_element_validation(self):
        with pytest.raises(NetlistError):
            Resistor("r", "a", "b", 0.0)
        with pytest.raises(NetlistError):
            Capacitor("c", "a", "b", -1e-15)


class TestDcAnalysis:
    def test_voltage_divider(self):
        c = Circuit()
        c.add(VoltageSource("v1", "in", "0", Dc(1.0)))
        c.add(Resistor("r1", "in", "mid", 1e3))
        c.add(Resistor("r2", "mid", "0", 3e3))
        op = dc_operating_point(c)
        assert op["mid"] == pytest.approx(0.75, abs=1e-6)

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add(CurrentSource("i1", "0", "a", Dc(1e-3)))  # 1 mA into node a
        c.add(Resistor("r1", "a", "0", 1e3))
        op = dc_operating_point(c)
        assert op["a"] == pytest.approx(1.0, abs=1e-6)

    def test_capacitor_open_in_dc(self):
        c = Circuit()
        c.add(VoltageSource("v1", "in", "0", Dc(1.0)))
        c.add(Resistor("r1", "in", "out", 1e3))
        c.add(Capacitor("c1", "out", "0", 1e-12))
        op = dc_operating_point(c)
        assert op["out"] == pytest.approx(1.0, abs=1e-5)

    def test_inverter_transfer_extremes(self):
        c = _inverter(input_drive=Dc(0.0))
        op = dc_operating_point(c)
        assert op["out"] == pytest.approx(0.7, abs=1e-3)
        c2 = _inverter(input_drive=Dc(0.7))
        op2 = dc_operating_point(c2)
        assert op2["out"] == pytest.approx(0.0, abs=1e-3)

    def test_dc_sweep_inverter_monotone(self):
        c = _inverter(input_drive=Dc(0.0))
        values = [0.0, 0.175, 0.35, 0.525, 0.7]
        points = dc_sweep(c, "vin", values)
        outs = [p["out"] for p in points]
        assert outs == sorted(outs, reverse=True)
        # Drive restored.
        assert c.element("vin").drive.at(0.0) == 0.0

    def test_dc_sweep_rejects_a_non_voltage_source(self):
        c = _inverter(input_drive=Dc(0.0))
        with pytest.raises(AnalysisError, match="not a voltage source"):
            dc_sweep(c, "cl", [0.0, 0.7])


def _inverter(input_drive, load_f=1e-15):
    c = Circuit("inv")
    c.add(VoltageSource("vdd", "vdd", "0", Dc(0.7)))
    c.add(VoltageSource("vin", "in", "0", input_drive))
    c.add(FetElement("mp", si_pfet("p", 0.2), "out", "in", "vdd"))
    c.add(FetElement("mn", si_nfet("n", 0.1), "out", "in", "0"))
    c.add(Capacitor("cl", "out", "0", load_f))
    return c


class TestTransient:
    def test_rc_time_constant(self):
        c = Circuit("rc")
        c.add(
            VoltageSource(
                "vin", "in", "0",
                Pulse(0.0, 1.0, delay=1e-9, rise=1e-12, width=1e-6),
            )
        )
        c.add(Resistor("r1", "in", "out", 1e3))
        c.add(Capacitor("c1", "out", "0", 1e-12))
        res = transient(c, 10e-9, 1e-11)
        t63 = res.voltage("out").first_crossing(1 - math.exp(-1))
        assert t63 - 1e-9 == pytest.approx(1e-9, rel=0.02)

    def test_rc_charge_conservation(self):
        """Energy delivered by the source = CV^2 (half stored, half in R)."""
        c = Circuit("rc")
        c.add(
            VoltageSource(
                "vin", "in", "0",
                Pulse(0.0, 1.0, delay=0.1e-9, rise=1e-12, width=1e-6),
            )
        )
        c.add(Resistor("r1", "in", "out", 1e3))
        c.add(Capacitor("c1", "out", "0", 1e-12))
        res = transient(c, 20e-9, 1e-11)
        energy = res.source_energy_j("vin", c)
        assert energy == pytest.approx(1e-12, rel=0.05)  # C * V^2

    def test_initial_condition_override(self):
        c = Circuit("hold")
        c.add(Resistor("rleak", "sn", "0", 1e12))
        c.add(Capacitor("c1", "sn", "0", 1e-15))
        res = transient(
            c, 1e-6, 1e-8, initial_conditions={"sn": 0.7}, use_dc_start=False
        )
        w = res.voltage("sn")
        assert w.values[0] == pytest.approx(0.7)
        # tau = 1 ms, so 1 us decay is ~0.1%.
        assert w.final() == pytest.approx(0.7 * math.exp(-1e-6 / 1e-3), rel=1e-3)

    def test_inverter_propagation_delay(self):
        c = _inverter(
            Pulse(0.0, 0.7, delay=0.2e-9, rise=5e-12, width=2e-9)
        )
        res = transient(c, 1e-9, 1e-12)
        d = delay_between(
            res.voltage("in"), res.voltage("out"), 0.35, 0.35, True, False
        )
        assert 1e-12 < d < 50e-12  # picosecond-scale 7 nm inverter

    def test_unknown_ic_node_rejected(self):
        c = _inverter(Dc(0.0))
        with pytest.raises(AnalysisError, match="unknown node"):
            transient(c, 1e-9, 1e-12, initial_conditions={"nope": 1.0})

    def test_bad_timestep(self):
        c = _inverter(Dc(0.0))
        with pytest.raises(AnalysisError):
            transient(c, 1e-9, 0.0)
        with pytest.raises(AnalysisError):
            transient(c, 1e-9, 2e-9)

    @pytest.mark.parametrize(
        "t_stop, dt",
        [
            (1e-9, math.nan),
            (math.nan, 1e-12),
            (1e-9, math.inf),
            (math.inf, 1e-12),
            (-math.inf, 1e-12),
        ],
    )
    def test_non_finite_timestep_rejected(self, t_stop, dt):
        with pytest.raises(AnalysisError, match="finite"):
            transient(_inverter(Dc(0.0)), t_stop, dt)

    def test_time_window_checked_before_the_netlist(self):
        # An empty circuit cannot compile; the window error comes first.
        with pytest.raises(AnalysisError, match="finite"):
            transient(Circuit("empty"), math.nan, 1e-12)
        with pytest.raises(AnalysisError, match="positive"):
            transient(Circuit("empty"), 1e-9, 0.0)

    def test_result_lookup_errors(self):
        c = _inverter(Dc(0.0))
        res = transient(c, 0.1e-9, 1e-12)
        with pytest.raises(AnalysisError):
            res.voltage("nope")
        with pytest.raises(AnalysisError):
            res.current("nope")

    def test_dynamic_energy_scales_with_load(self):
        """Switching a 2x load from the supply costs ~2x energy."""
        def discharge_then_charge(load):
            c = _inverter(
                Pulse(0.7, 0.0, delay=0.2e-9, rise=5e-12, width=5e-9),
                load_f=load,
            )
            res = transient(c, 2e-9, 2e-12)
            return res.source_energy_j("vdd", c)

        e1 = discharge_then_charge(1e-15)
        e2 = discharge_then_charge(2e-15)
        # Slope between the two loads is C*V^2 per farad.
        assert (e2 - e1) == pytest.approx(1e-15 * 0.49, rel=0.15)


class TestStopAfter:
    """``transient(stop_after=...)`` ends the run at measured crossings."""

    @staticmethod
    def _assert_prefix(stopped, full):
        n = stopped.times.size
        assert np.array_equal(stopped.times, full.times[:n])
        for name, values in stopped.node_voltages.items():
            assert np.array_equal(values, full.node_voltages[name][:n])
        for name, values in stopped.branch_currents.items():
            assert np.array_equal(values, full.branch_currents[name][:n])

    def test_a_stop_that_never_fires_runs_the_full_window(self):
        c = _inverter(Pulse(0.0, 0.7, delay=0.2e-9, rise=5e-12, width=2e-9))
        full = transient(c, 1e-9, 1e-12)
        # The output only falls inside this window.
        never = transient(c, 1e-9, 1e-12, stop_after=[Crossing("out", 0.35)])
        assert never.times.size == full.times.size
        self._assert_prefix(never, full)

    def test_stop_keeps_a_prefix_with_the_same_crossings(self):
        c = _inverter(Pulse(0.0, 0.7, delay=0.2e-9, rise=5e-12, width=2e-9))
        full = transient(c, 1e-9, 1e-12)
        events = [Crossing("in", 0.35), Crossing("out", 0.35, rising=False)]
        stopped = transient(c, 1e-9, 1e-12, stop_after=events)
        assert stopped.times.size < full.times.size
        self._assert_prefix(stopped, full)
        # The last sample is the first one past the later crossing.
        out = stopped.voltage("out")
        assert out.final() <= 0.35 < out.values[-2]
        for node, threshold, rising in events:
            assert stopped.voltage(node).first_crossing(
                threshold, rising
            ) == full.voltage(node).first_crossing(threshold, rising)

    def test_a_stop_at_step_one_keeps_two_samples(self):
        c = Circuit("rc")
        c.add(VoltageSource("vin", "in", "0", Pulse(0.0, 1.0, delay=0.0, rise=1e-12)))
        c.add(Resistor("r1", "in", "out", 1e3))
        c.add(Capacitor("c1", "out", "0", 1e-12))
        res = transient(
            c, 1e-9, 1e-11, use_dc_start=False, stop_after=[Crossing("in", 0.5)]
        )
        assert res.times.size == 2
        assert res.voltage("in").first_crossing(0.5) == pytest.approx(0.5e-11)

    @pytest.mark.parametrize("node", ["nope", "0"])
    def test_a_stop_on_an_unrecorded_node_is_rejected(self, node):
        with pytest.raises(AnalysisError, match="no recorded node"):
            transient(
                _inverter(Dc(0.0)), 1e-9, 1e-12, stop_after=[Crossing(node, 0.1)]
            )
