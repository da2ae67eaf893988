"""Simulator-facing FET interface.

A :class:`FET` maps terminal voltages to a drain current and exposes the
figure-of-merit queries the paper's Table I contrasts: effective drive
current (I_EFF), on-current, and off-current.  Sign conventions follow
SPICE: drain current flows into the drain for NMOS in forward operation;
PMOS devices are handled by polarity reflection.
"""

from __future__ import annotations

import abc
import enum
from typing import Tuple


class Polarity(enum.Enum):
    """Channel polarity."""

    NMOS = 1
    PMOS = -1


class FET(abc.ABC):
    """Abstract FET: a width-normalized compact model times a width.

    Subclasses implement :meth:`_ids_forward` for VGS/VDS >= 0 in NMOS
    convention; this base class handles polarity reflection and
    source/drain symmetry so the circuit simulator can apply arbitrary
    terminal voltages.
    """

    def __init__(self, name: str, polarity: Polarity, width_um: float) -> None:
        if width_um <= 0:
            raise ValueError(f"{name}: width must be > 0, got {width_um}")
        self.name = name
        self.polarity = polarity
        self._sign = polarity.value  # read on every ids() call
        self.width_um = width_um

    # -- to be provided by subclasses -----------------------------------
    @abc.abstractmethod
    def _ids_forward_per_um(self, vgs: float, vds: float) -> float:
        """Drain current (A/um) for NMOS-convention vgs, vds >= 0."""

    @abc.abstractmethod
    def gate_capacitance_f(self) -> float:
        """Total gate capacitance (F), bias-independent approximation."""

    @property
    @abc.abstractmethod
    def vdd_v(self) -> float:
        """Nominal supply voltage of the technology."""

    # -- terminal-level current ------------------------------------------
    def ids(self, vgs: float, vds: float) -> float:
        """Drain-source current (A) for arbitrary terminal voltages.

        Handles PMOS reflection and reverse (vds < 0) operation through
        source/drain exchange: I(vgs, vds<0) = -I(vgs - vds, -vds).
        """
        sign = self._sign
        vgs_n, vds_n = sign * vgs, sign * vds
        if vds_n >= 0:
            current = self._ids_forward_per_um(vgs_n, vds_n)
        else:
            # Exchange source and drain: gate-to-(new)source = vgs - vds.
            current = -self._ids_forward_per_um(vgs_n - vds_n, -vds_n)
        return sign * current * self.width_um

    def conductances(self, vgs: float, vds: float, dv: float) -> Tuple[float, float]:
        """(gm, gds) for MNA stamping: central differences of :meth:`ids`."""
        ids = self.ids
        gm = (ids(vgs + dv, vds) - ids(vgs - dv, vds)) / (2 * dv)
        gds = (ids(vgs, vds + dv) - ids(vgs, vds - dv)) / (2 * dv)
        return gm, gds

    # -- figures of merit --------------------------------------------------
    def on_current_a(self) -> float:
        """|I_ON|: full-on current at |VGS| = |VDS| = VDD."""
        v = self.vdd_v
        return abs(self._ids_forward_per_um(v, v)) * self.width_um

    def off_current_a(self) -> float:
        """|I_OFF|: leakage at VGS = 0, |VDS| = VDD."""
        return abs(self._ids_forward_per_um(0.0, self.vdd_v)) * self.width_um

    def effective_current_a(self) -> float:
        """I_EFF = (I_H + I_L) / 2, the standard effective drive current.

        I_H = I(VGS=VDD, VDS=VDD/2); I_L = I(VGS=VDD/2, VDS=VDD).
        """
        v = self.vdd_v
        i_h = self._ids_forward_per_um(v, v / 2.0)
        i_l = self._ids_forward_per_um(v / 2.0, v)
        return (i_h + i_l) / 2.0 * self.width_um

    def on_off_ratio(self) -> float:
        """I_ON / I_OFF; infinite off-currents are guarded upstream."""
        off = self.off_current_a()
        if off == 0.0:  # repro-lint: disable=RPL004 - division-by-zero guard
            return float("inf")
        return self.on_current_a() / off

    def subthreshold_slope_mv_per_dec(
        self, vds: float | None = None, v_lo: float = 0.02, v_hi: float = 0.10
    ) -> float:
        """Extract SS (mV/decade) from two subthreshold bias points."""
        import math

        vds_n = self.vdd_v if vds is None else vds
        i1 = abs(self._ids_forward_per_um(v_lo, vds_n))
        i2 = abs(self._ids_forward_per_um(v_hi, vds_n))
        if i1 <= 0 or i2 <= 0 or i1 == i2:
            raise ValueError("cannot extract SS: currents not exponential")
        decades = math.log10(i2 / i1)
        return (v_hi - v_lo) * 1000.0 / decades

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"{self.polarity.name}, W={self.width_um} um)"
        )
