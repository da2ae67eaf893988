"""Full-precision goldens for the SPICE solver.

Each value is the ``repr`` of what the solver returned when these
goldens were recorded.  The tolerance (rtol 1e-9) admits the last-bit
drift that a different summation order of the linear stamps produces,
and nothing that a change of the circuit equations, the Newton loop or
the FET model would produce.
"""

import pytest

from repro.devices import si_nfet, si_pfet
from repro.edram.bitcell import m3d_bitcell, si_bitcell
from repro.edram.retention import simulate_retention_decay
from repro.edram.senseamp import simulate_sense
from repro.edram.subarray import SubArrayDesign
from repro.edram.timing import characterize, simulate_read_zero_disturb
from repro.spice import Capacitor, Circuit, Dc, FetElement, VoltageSource, dc_operating_point

RTOL = 1e-9

CELLS = {"si": si_bitcell, "m3d": m3d_bitcell}

#: (write delay, read delay) in seconds.
TIMING = {
    "si": (1.4145519417884725e-10, 9.380685420429038e-11),
    "m3d": (1.50043640882654e-09, 2.8968069269154188e-11),
}

#: RBL droop (V) when reading a stored '0'.
READ_ZERO_DROOP = {"si": 1.0650442078263822e-06, "m3d": 0.002085086957171689}

#: Input voltage -> inverter output voltage at the DC operating point.
INVERTER_TRANSFER = {
    0.25: 0.6950468927080512,
    0.35: 0.529058305605716,
    0.45: 0.005858893996297965,
}


@pytest.mark.parametrize("tech", sorted(CELLS))
def test_write_and_read_delay(tech):
    timing = characterize(SubArrayDesign(CELLS[tech]()))
    want_write, want_read = TIMING[tech]
    assert timing.write_delay_s == pytest.approx(want_write, rel=RTOL)
    assert timing.read_delay_s == pytest.approx(want_read, rel=RTOL)


@pytest.mark.parametrize("tech", sorted(CELLS))
def test_read_zero_droop(tech):
    droop = simulate_read_zero_disturb(SubArrayDesign(CELLS[tech]()))
    assert droop == pytest.approx(READ_ZERO_DROOP[tech], rel=RTOL)


def test_retention_decay_final_voltage():
    # gmin = 0 and no gate caps: the path the timing goldens do not cover.
    wave = simulate_retention_decay(si_bitcell(), t_stop=1e-3)
    assert wave.final() == pytest.approx(0.4273983980211576, rel=RTOL)


def test_sense_delay():
    delay = simulate_sense(0.05).sense_delay_s
    assert delay == pytest.approx(1.9975770698018873e-11, rel=RTOL)


def _inverter(vin: float) -> Circuit:
    c = Circuit("inv")
    c.add(VoltageSource("vdd", "vdd", "0", Dc(0.7)))
    c.add(VoltageSource("vin", "in", "0", Dc(vin)))
    c.add(FetElement("mp", si_pfet("p", 0.2), "out", "in", "vdd"))
    c.add(FetElement("mn", si_nfet("n", 0.1), "out", "in", "0"))
    c.add(Capacitor("cl", "out", "0", 1e-15))
    return c


@pytest.mark.parametrize("vin", sorted(INVERTER_TRANSFER))
def test_inverter_dc_transfer(vin):
    out = dc_operating_point(_inverter(vin))["out"]
    assert out == pytest.approx(INVERTER_TRANSFER[vin], rel=RTOL)
