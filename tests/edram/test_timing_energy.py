"""Tests for eDRAM timing closure and the Table II energy calibration."""

import numpy as np
import pytest

from repro.edram.array import MemoryMacro
from repro.edram.bitcell import m3d_bitcell, si_bitcell
from repro.edram.energy import (
    AccessProfile,
    EdramEnergyModel,
    system_memory_energy_per_cycle_j,
)
from repro.edram.subarray import SubArrayDesign
from repro.edram.timing import (
    READ_SENSE_FRACTION,
    _read_circuit,
    simulate_read,
    simulate_read_zero_disturb,
    simulate_write,
)
from repro.spice import transient


@pytest.fixture(scope="module")
def si_model():
    return EdramEnergyModel(MemoryMacro.for_cell(si_bitcell()))


@pytest.fixture(scope="module")
def m3d_model():
    return EdramEnergyModel(MemoryMacro.for_cell(m3d_bitcell()))


class TestTimingClosure:
    def test_both_meet_500mhz(self, si_timing, m3d_timing):
        """Single-cycle access at T_CLK = 2 ns (Sec. III-B step 2)."""
        assert si_timing.meets_clock(500e6)
        assert m3d_timing.meets_clock(500e6)

    def test_m3d_read_faster_than_si(self, si_timing, m3d_timing):
        """Read delay limited by high CNFET I_EFF (Sec. III-A)."""
        assert m3d_timing.read_delay_s < si_timing.read_delay_s

    def test_m3d_write_slower_but_within_budget(self, si_timing, m3d_timing):
        """IGZO's low mobility costs write time; overdrive keeps it in
        the cycle budget."""
        assert m3d_timing.write_delay_s > si_timing.write_delay_s
        assert m3d_timing.write_delay_s < 1.6e-9

    def test_write_waveform_reaches_full_level(self):
        _delay, sn = simulate_write(SubArrayDesign(m3d_bitcell()))
        assert sn.settle_value(0.05) > 0.9 * 0.7

    def test_read_discharges_bitline(self):
        # Over the full 4 ns: simulate_read stops at the sense event.
        cell = m3d_bitcell()
        result = transient(
            _read_circuit(SubArrayDesign(cell), cell.vdd_v),
            t_stop=4e-9,
            dt=2e-12,
            initial_conditions={"rbl": cell.vdd_v, "mid": 0.0},
            use_dc_start=False,
        )
        assert result.voltage("rbl").final() < 0.2

    def test_read_waveform_ends_at_the_sense_event(self):
        cell = m3d_bitcell()
        _delay, rbl = simulate_read(SubArrayDesign(cell))
        threshold = READ_SENSE_FRACTION * cell.vdd_v
        assert rbl.final() <= threshold
        assert np.all(rbl.values[:-1] > threshold)

    def test_read_zero_does_not_disturb(self):
        """Reading a stored '0' must leave the RBL near VDD."""
        for cell in (si_bitcell(), m3d_bitcell()):
            droop = simulate_read_zero_disturb(SubArrayDesign(cell))
            assert droop < 0.07  # < 10% of VDD

    def test_meets_clock_fraction(self, si_timing):
        assert si_timing.meets_clock(500e6, fraction=0.8)
        assert not si_timing.meets_clock(5e12)


class TestAccessProfile:
    def test_totals(self):
        p = AccessProfile(1.0, 0.25, 0.10)
        assert p.reads_per_cycle == pytest.approx(1.25)
        assert p.accesses_per_cycle == pytest.approx(1.35)

    def test_validation(self):
        from repro.errors import CarbonModelError

        with pytest.raises(CarbonModelError):
            AccessProfile(-1.0)


class TestEnergyCalibration:
    """The headline Table II rows."""

    def test_si_energy_per_cycle_is_18pj(self, si_model):
        e = system_memory_energy_per_cycle_j(
            si_model, si_model, AccessProfile(), 500e6
        )
        assert e == pytest.approx(18.0e-12, rel=0.01)

    def test_m3d_energy_per_cycle_is_15_5pj(self, m3d_model):
        e = system_memory_energy_per_cycle_j(
            m3d_model, m3d_model, AccessProfile(), 500e6
        )
        assert e == pytest.approx(15.5e-12, rel=0.01)

    def test_m3d_bus_energy_smaller(self, si_model, m3d_model):
        """The energy win comes from the smaller macro: shorter global
        wires (the memory-wall argument of the introduction)."""
        assert m3d_model.bus_energy_j() < 0.7 * si_model.bus_energy_j()

    def test_si_pays_refresh(self, si_model, m3d_model):
        assert si_model.refresh_power_w() > 1e-6
        assert m3d_model.refresh_power_w() < 1e-9

    def test_breakdown_sums_to_read_energy(self, si_model):
        parts = si_model.breakdown_per_access_j()
        assert sum(parts.values()) == pytest.approx(si_model.read_energy_j())

    def test_write_costs_more_than_read(self, m3d_model):
        """The boosted WWL swing makes writes slightly pricier."""
        assert m3d_model.write_energy_j() > m3d_model.read_energy_j()

    def test_energy_scales_with_access_rate(self, si_model):
        lo = si_model.energy_per_cycle_j(0.5, 0.1, 500e6)
        hi = si_model.energy_per_cycle_j(1.0, 0.2, 500e6)
        assert hi > lo

    def test_clock_validation(self, si_model):
        from repro.errors import CarbonModelError

        with pytest.raises(CarbonModelError):
            si_model.energy_per_cycle_j(1.0, 0.1, 0.0)

    def test_leakage_positive_but_small(self, si_model):
        leak = si_model.leakage_power_w()
        assert 0 < leak < 1e-4
