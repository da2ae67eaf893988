"""A compact nonlinear circuit simulator (MNA + Newton).

This package stands in for the SPICE simulations of Sec. III-B step 2:
the paper validates eDRAM timing "using SPICE circuit simulations, with
compact device models for Si CMOS, CNFETs, and IGZO FETs".  The simulator
implements:

- modified nodal analysis with voltage-source branch currents, each
  netlist compiled once per analysis into a stamp plan;
- Newton-Raphson DC operating point with gmin regularization, damping,
  and source stepping;
- fixed-step backward-Euler transient analysis, optionally stopped once
  the threshold crossings a caller measures have occurred;
- waveform post-processing (threshold crossings, delays, energies).

It is a dense-matrix simulator intended for the bit-cell and sub-array
netlists of this reproduction (tens of nodes), not a general-purpose
SPICE replacement.
"""

from repro.spice.netlist import Circuit
from repro.spice.elements import (
    Capacitor,
    CurrentSource,
    FetElement,
    Resistor,
    VoltageSource,
)
from repro.spice.waveform import Waveform, PieceWiseLinear, Pulse, Dc
from repro.spice.dc import dc_operating_point
from repro.spice.transient import TransientResult, transient

__all__ = [
    "Circuit",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "FetElement",
    "Waveform",
    "Dc",
    "Pulse",
    "PieceWiseLinear",
    "dc_operating_point",
    "transient",
    "TransientResult",
]
