"""Bit-cell write/read timing from transient simulation (Sec. III-B step 2).

The paper enforces single-cycle access: write delay and read delay must
both fit in T_CLK = 2 ns at 500 MHz.  Both are obtained from SPICE-style
transients on the cell plus its sub-array parasitics:

- **Write**: the write driver (modeled as a source with the driver's
  output resistance) charges the WBL; the WWL is pulsed to V_WWL; the
  delay is measured from the WWL edge to the SN reaching 90 % of its
  final value.
- **Read**: the RBL (with full bitline capacitance) is precharged to VDD;
  RWL rises; with SN storing a '1' the read stack discharges the RBL; the
  delay is from the RWL edge to the RBL falling through the sense
  threshold (VDD/2).  The read transient stops at that sense event,
  after the step at which both crossings have occurred: step 87 of
  2,000 for the Si cell, step 51 for M3D.  The delay is bit-identical
  to a run of the full window.

The write transient runs its full window: its target is 90 % of the
settled SN level, the mean of the last 5 % of samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.edram.bitcell import BitcellDesign
from repro.edram.subarray import SubArrayDesign
from repro.spice import (
    Capacitor,
    Circuit,
    Dc,
    FetElement,
    Pulse,
    Resistor,
    TransientResult,
    VoltageSource,
    transient,
)
from repro.spice.waveform import Crossing, Waveform

#: Output resistance of the Si write driver (ohms) — a sized inverter.
WRITE_DRIVER_RES_OHM = 2_000.0

#: Settling threshold for the write delay measurement.
WRITE_SETTLE_FRACTION = 0.9

#: RBL sense threshold as a fraction of VDD.
READ_SENSE_FRACTION = 0.5


@dataclass(frozen=True)
class BitcellTiming:
    """Measured write and read delays for one design point."""

    write_delay_s: float
    read_delay_s: float

    def meets_clock(self, clock_hz: float, fraction: float = 0.8) -> bool:
        """True when both delays fit in ``fraction`` of the clock period
        (the rest of the period is decoder + sense-amp + margin)."""
        budget = fraction / clock_hz
        return self.write_delay_s <= budget and self.read_delay_s <= budget


def _write_circuit(subarray: SubArrayDesign, edge_time_s: float) -> Circuit:
    cell = subarray.cell
    wwl = subarray.write_wordline_parasitics()
    circuit = Circuit(f"{cell.name}_write")
    # Write driver: ideal source behind the driver resistance, WBL cap.
    circuit.add(VoltageSource("vdata", "data", "0", Dc(cell.vdd_v)))
    circuit.add(Resistor("rdrv", "data", "wbl", WRITE_DRIVER_RES_OHM))
    bl = subarray.bitline_parasitics()
    circuit.add(Capacitor("cwbl", "wbl", "0", bl.total_cap_f))
    # WWL pulse through the wordline RC.
    circuit.add(
        VoltageSource(
            "vwwl",
            "wwl_drv",
            "0",
            Pulse(
                cell.v_wwl_hold_v,
                cell.v_wwl_v,
                delay=0.05e-9,
                rise=edge_time_s,
                width=1e-6,
            ),
        )
    )
    circuit.add(Resistor("rwwl", "wwl_drv", "wwl", max(wwl.wire_res_ohm, 1.0)))
    circuit.add(Capacitor("cwwl", "wwl", "0", max(wwl.total_cap_f, 1e-18)))
    # The cell.
    circuit.add(FetElement("wt", cell.make_write_fet(), "wbl", "wwl", "sn"))
    circuit.add(Capacitor("csn", "sn", "0", cell.storage_node_cap_f()))
    return circuit


def simulate_write(
    subarray: SubArrayDesign,
    t_stop: float = 4e-9,
    dt: float = 2e-12,
    edge_time_s: float = 20e-12,
) -> "tuple[float, Waveform]":
    """Write a '1' into a discharged cell; returns (delay, SN waveform)."""
    cell = subarray.cell
    circuit = _write_circuit(subarray, edge_time_s)
    result = transient(
        circuit,
        t_stop=t_stop,
        dt=dt,
        initial_conditions={"sn": 0.0},
        use_dc_start=False,
    )
    sn = result.voltage("sn")
    target = WRITE_SETTLE_FRACTION * sn.settle_value(0.05)
    t_wwl = result.voltage("wwl").first_crossing(
        (cell.v_wwl_hold_v + cell.v_wwl_v) / 2.0
    )
    t_sn = sn.first_crossing(target)
    return max(t_sn - t_wwl, 0.0), sn


def _read_circuit(subarray: SubArrayDesign, stored_v: float) -> Circuit:
    cell = subarray.cell
    rwl = subarray.read_wordline_parasitics()
    rbl = subarray.bitline_parasitics()
    circuit = Circuit(f"{cell.name}_read")
    # SN held by an ideal source at the stored level: retention >> read
    # time, so the stored value is quasi-static during the read.
    circuit.add(VoltageSource("vsn", "sn", "0", Dc(stored_v)))
    circuit.add(
        VoltageSource(
            "vrwl",
            "rwl_drv",
            "0",
            Pulse(0.0, cell.vdd_v, delay=0.05e-9, rise=20e-12, width=1e-6),
        )
    )
    circuit.add(Resistor("rrwl", "rwl_drv", "rwl", max(rwl.wire_res_ohm, 1.0)))
    circuit.add(Capacitor("crwl", "rwl", "0", max(rwl.total_cap_f, 1e-18)))
    # Read stack: RBL -> RAT -> mid -> RT -> gnd.
    circuit.add(FetElement("rat", cell.make_access_fet(), "rbl", "rwl", "mid"))
    circuit.add(FetElement("rt", cell.make_read_fet(), "mid", "sn", "0"))
    circuit.add(Capacitor("crbl", "rbl", "0", rbl.total_cap_f))
    return circuit


def _sense_events(cell: BitcellDesign) -> Tuple[Crossing, Crossing]:
    """The read delay's two events: RWL rising through VDD/2, then RBL
    falling through the sense threshold."""
    return (
        Crossing("rwl", cell.vdd_v / 2.0),
        Crossing("rbl", READ_SENSE_FRACTION * cell.vdd_v, rising=False),
    )


def _read_delay(
    result: TransientResult, events: Tuple[Crossing, Crossing]
) -> float:
    t_rwl, t_sense = (
        result.voltage(node).first_crossing(threshold, rising)
        for node, threshold, rising in events
    )
    return max(t_sense - t_rwl, 0.0)


def simulate_read(
    subarray: SubArrayDesign,
    stored_v: "float | None" = None,
    t_stop: float = 4e-9,
    dt: float = 2e-12,
) -> "tuple[float, Waveform]":
    """Read a stored '1': RBL discharge delay and waveform.

    The transient stops at the sense event, so the waveform ends at the
    first sample past the sense threshold.  A cell whose RBL never gets
    there runs the full ``t_stop`` and raises :class:`~repro.errors.AnalysisError`.
    """
    cell = subarray.cell
    v1 = cell.vdd_v if stored_v is None else stored_v
    circuit = _read_circuit(subarray, v1)
    events = _sense_events(cell)
    result = transient(
        circuit,
        t_stop=t_stop,
        dt=dt,
        initial_conditions={"rbl": cell.vdd_v, "mid": 0.0},
        use_dc_start=False,
        stop_after=events,
    )
    return _read_delay(result, events), result.voltage("rbl")


def simulate_read_zero_disturb(
    subarray: SubArrayDesign,
    t_stop: float = 4e-9,
    dt: float = 2e-12,
) -> float:
    """RBL droop when reading a stored '0' (should stay near VDD).

    Returns the worst-case RBL droop in volts — the read margin check.
    """
    cell = subarray.cell
    circuit = _read_circuit(subarray, 0.0)
    result = transient(
        circuit,
        t_stop=t_stop,
        dt=dt,
        initial_conditions={"rbl": cell.vdd_v, "mid": 0.0},
        use_dc_start=False,
    )
    rbl = result.voltage("rbl")
    return cell.vdd_v - rbl.minimum()


def characterize(subarray: SubArrayDesign) -> BitcellTiming:
    """Full timing characterization of a sub-array design point."""
    write_delay, _sn = simulate_write(subarray)
    read_delay, _rbl = simulate_read(subarray)
    return BitcellTiming(write_delay_s=write_delay, read_delay_s=read_delay)
