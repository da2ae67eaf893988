"""Circuit elements: plain netlist data.

An element holds its name, its nodes and its values, and nothing else.
The analyses compile a circuit's elements into a
:class:`~repro.spice.mna.StampPlan`, which owns all of the MNA stamping;
an element class the plan does not know is rejected at compile time.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.fet import FET
from repro.errors import NetlistError
from repro.spice.waveform import Dc


class Element:
    """Base class: two-or-more-terminal circuit element."""

    def __init__(self, name: str, nodes: "tuple[str, ...]") -> None:
        if not name:
            raise NetlistError("element name must be non-empty")
        self.name = name
        self.nodes = nodes

    #: Number of extra MNA unknowns (branch currents) this element needs.
    n_branches = 0


class Resistor(Element):
    """Linear resistor between two nodes."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float) -> None:
        super().__init__(name, (n1, n2))
        if resistance <= 0:
            raise NetlistError(f"{name}: resistance must be > 0")
        self.resistance = resistance


class Capacitor(Element):
    """Linear capacitor; open in DC, backward-Euler companion in transient.

    Args:
        ic: Optional initial voltage across the capacitor, applied when
            the transient starts from scratch (no DC solution supplied).
    """

    def __init__(
        self, name: str, n1: str, n2: str, capacitance: float,
        ic: Optional[float] = None,
    ) -> None:
        super().__init__(name, (n1, n2))
        if capacitance <= 0:
            raise NetlistError(f"{name}: capacitance must be > 0")
        self.capacitance = capacitance
        self.ic = ic


class CurrentSource(Element):
    """Independent current source; current flows from n1 through the
    source to n2 (i.e. out of n2 into the circuit)."""

    def __init__(self, name: str, n1: str, n2: str, drive) -> None:
        super().__init__(name, (n1, n2))
        self.drive = drive if hasattr(drive, "at") else Dc(float(drive))


class VoltageSource(Element):
    """Independent voltage source with an MNA branch current.

    Positive terminal is ``n1``; the branch current unknown is the current
    flowing from n1 through the source to n2.
    """

    n_branches = 1

    def __init__(self, name: str, n1: str, n2: str, drive) -> None:
        super().__init__(name, (n1, n2))
        self.drive = drive if hasattr(drive, "at") else Dc(float(drive))


class FetElement(Element):
    """A FET instance wired (drain, gate, source).

    The channel current uses the compact model; in transient analysis
    the gate capacitance is split half to the source and half to the
    drain (a standard quasi-static simplification) unless
    ``include_gate_caps=False``.
    """

    def __init__(
        self,
        name: str,
        fet: FET,
        drain: str,
        gate: str,
        source: str,
        include_gate_caps: bool = True,
    ) -> None:
        super().__init__(name, (drain, gate, source))
        self.fet = fet
        self.include_gate_caps = include_gate_caps
