"""The virtual-source (VS) compact FET model (Khakifirooz et al. [37]).

The VS model expresses drain current as charge times carrier velocity at
the virtual source point:

    I_D / W = Q_ix0 * v_x0 * F_sat

with

    Q_ix0 = C_inv * n * phi_t * ln(1 + exp((V_GS - V_T_eff) / (n phi_t)))
    V_T_eff = V_T0 - delta * V_DS                       (DIBL)
    F_sat = (V_DS / V_dsat) / (1 + (V_DS / V_dsat)^beta)^(1/beta)
    V_dsat = v_x0 * L_eff / mu   (velocity/mobility-limited saturation)

It is continuous across weak and strong inversion and across linear and
saturation regions — exactly the property that makes it suitable for the
eDRAM transient simulations in Sec. III-B step 2, and the model family the
paper uses for CNFETs [27] and IGZO FETs [37], [38].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.devices.fet import FET, Polarity
from repro.units import THERMAL_VOLTAGE_300K


@dataclass(frozen=True)
class VSParameters:
    """Width-normalized virtual-source model parameters.

    Attributes:
        vt0_v: Threshold voltage at V_DS = 0.
        n_ss: Subthreshold ideality factor; SS = n_ss * phi_t * ln(10).
        dibl_v_per_v: DIBL coefficient delta (V_T shift per volt of V_DS).
        c_inv_f_per_um2: Inversion capacitance per gate area (F/um^2).
        l_gate_um: Gate length (um).
        v_x0_cm_per_s: Virtual-source carrier velocity (cm/s).
        mobility_cm2_per_vs: Low-field carrier mobility (cm^2/V.s).
        c_gate_f_per_um: Total gate capacitance per um width (F/um),
            including parasitics; used for transient simulation.
        i_leak_floor_a_per_um: Bias-independent leakage floor (A/um),
            e.g. metallic-CNT or gate leakage contributions.
        vdd_v: Nominal supply of the technology.
    """

    vt0_v: float
    n_ss: float
    dibl_v_per_v: float
    c_inv_f_per_um2: float
    l_gate_um: float
    v_x0_cm_per_s: float
    mobility_cm2_per_vs: float
    c_gate_f_per_um: float
    i_leak_floor_a_per_um: float = 0.0
    vdd_v: float = 0.7
    beta_sat: float = 1.8

    def __post_init__(self) -> None:
        checks = {
            "n_ss": self.n_ss,
            "c_inv_f_per_um2": self.c_inv_f_per_um2,
            "l_gate_um": self.l_gate_um,
            "v_x0_cm_per_s": self.v_x0_cm_per_s,
            "mobility_cm2_per_vs": self.mobility_cm2_per_vs,
            "c_gate_f_per_um": self.c_gate_f_per_um,
            "vdd_v": self.vdd_v,
            "beta_sat": self.beta_sat,
        }
        for name, value in checks.items():
            if value <= 0:
                raise ValueError(f"VS parameter {name} must be > 0, got {value}")
        if self.dibl_v_per_v < 0:
            raise ValueError("DIBL must be >= 0")
        if self.i_leak_floor_a_per_um < 0:
            raise ValueError("leakage floor must be >= 0")

    @cached_property
    def phi_t(self) -> float:
        return THERMAL_VOLTAGE_300K

    @property
    def subthreshold_slope_mv_per_dec(self) -> float:
        """SS = n * phi_t * ln(10), in mV/decade."""
        return self.n_ss * self.phi_t * math.log(10.0) * 1000.0

    @cached_property
    def v_dsat_v(self) -> float:
        """Saturation voltage: v_x0 * L / mu (velocity-saturation form).

        Units: v_x0 [cm/s] * L [um -> cm] / mu [cm^2/Vs] = volts.
        """
        l_cm = self.l_gate_um * 1e-4
        return self.v_x0_cm_per_s * l_cm / self.mobility_cm2_per_vs

    @cached_property
    def ids_terms(self) -> "tuple[float, ...]":
        """``_ids_forward_per_um``'s bias-independent terms, in its unpack
        order; cached on the params, which V_T-shift Monte Carlo swaps on a
        FET.  Reading the attributes per call makes ``FET.ids`` 1.7x slower."""
        phi_t = self.phi_t
        return (self.vt0_v, self.dibl_v_per_v, self.n_ss * phi_t,
                self.c_inv_f_per_um2 * self.n_ss * phi_t, self.l_gate_um,
                max(self.v_dsat_v, 1e-6), self.beta_sat, 1.0 / self.beta_sat,
                self.v_x0_cm_per_s * 1e4, self.i_leak_floor_a_per_um, phi_t)


class VirtualSourceFET(FET):
    """A FET instance: VS parameters + polarity + width."""

    def __init__(
        self,
        name: str,
        polarity: Polarity,
        width_um: float,
        params: VSParameters,
    ) -> None:
        super().__init__(name, polarity, width_um)
        self.params = params

    @property
    def vdd_v(self) -> float:
        return self.params.vdd_v

    def _ids_forward_per_um(self, vgs: float, vds: float) -> float:
        if vds == 0.0:  # repro-lint: disable=RPL004 - exact singular point
            return 0.0
        (vt0, dibl, n_phi_t, c_n_phi_t, l_gate, vdsat, beta, inv_beta,
         v_um_per_s, i_floor, phi_t) = self.params.ids_terms
        ratio = vds / vdsat
        f_sat = ratio / (1.0 + ratio**beta) ** inv_beta
        # Virtual-source charge with DIBL; softplus, overflow-safe.
        eta = (vgs - (vt0 - dibl * vds)) / n_phi_t
        softplus = eta if eta > 40.0 else math.log1p(math.exp(eta))
        # Charge (C/um^2) * velocity (um/s) gives A/um.  "* l_gate / l_gate"
        # is not a no-op in floating point; the SPICE goldens pin it.
        q_per_um2 = c_n_phi_t * softplus * l_gate / l_gate
        intrinsic = q_per_um2 * v_um_per_s * f_sat
        # The leakage floor only matters in the off state; make it decay
        # smoothly so I(vds=0) remains 0.
        floor = i_floor * (1.0 - math.exp(-vds / phi_t))
        return intrinsic + floor

    def gate_capacitance_f(self) -> float:
        return self.params.c_gate_f_per_um * self.width_um
