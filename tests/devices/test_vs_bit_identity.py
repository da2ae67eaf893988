"""The VS drain current equals a frozen copy of its reference arithmetic.

``_reference_ids`` below is the virtual-source model written out term by
term: the charge Q_ix0 (C/um) as its own quantity, every parameter read
straight from :class:`VSParameters`, and the polarity and source/drain
reflection of ``FET.ids``.  The production model hoists its
bias-independent terms into ``VSParameters.ids_terms``; these tests pin
that it still produces the same floats, bit for bit, which is what keeps
the SPICE goldens exact.
"""

import math
from dataclasses import replace

from hypothesis import given
from hypothesis import strategies as st

from repro.devices import (
    VirtualSourceFET,
    VSParameters,
    cnfet_nfet,
    cnfet_pfet,
    igzo_nfet,
    si_nfet,
    si_pfet,
)
from repro.devices.fet import Polarity


def _reference_charge_per_um(p: VSParameters, vgs: float, vds: float) -> float:
    vt_eff = p.vt0_v - p.dibl_v_per_v * vds
    eta = (vgs - vt_eff) / (p.n_ss * p.phi_t)
    if eta > 40.0:
        softplus = eta
    else:
        softplus = math.log1p(math.exp(eta))
    q_per_um2 = p.c_inv_f_per_um2 * p.n_ss * p.phi_t * softplus
    return q_per_um2 * p.l_gate_um


def _reference_forward_per_um(p: VSParameters, vgs: float, vds: float) -> float:
    if vds == 0.0:
        return 0.0
    vdsat = max(p.v_dsat_v, 1e-6)
    ratio = vds / vdsat
    f_sat = ratio / (1.0 + ratio**p.beta_sat) ** (1.0 / p.beta_sat)
    q_per_um2 = _reference_charge_per_um(p, vgs, vds) / p.l_gate_um
    v_um_per_s = p.v_x0_cm_per_s * 1e4
    intrinsic = q_per_um2 * v_um_per_s * f_sat
    floor = p.i_leak_floor_a_per_um * (1.0 - math.exp(-vds / p.phi_t))
    return intrinsic + floor


def _reference_ids(fet: VirtualSourceFET, vgs: float, vds: float) -> float:
    sign = fet.polarity.value
    vgs_n, vds_n = sign * vgs, sign * vds
    if vds_n >= 0:
        current = _reference_forward_per_um(fet.params, vgs_n, vds_n)
    else:
        current = -_reference_forward_per_um(fet.params, vgs_n - vds_n, -vds_n)
    return sign * current * fet.width_um


_FACTORIES = [si_nfet, si_pfet, cnfet_nfet, cnfet_pfet, igzo_nfet]

fets = st.builds(
    lambda make, width: make("m", width),
    st.sampled_from(_FACTORIES),
    st.floats(0.01, 5.0),
)
volts = st.floats(-3.0, 3.0, allow_nan=False)

vs_params = st.builds(
    VSParameters,
    vt0_v=st.floats(-0.5, 1.0),
    n_ss=st.floats(1.0, 2.5),
    dibl_v_per_v=st.floats(0.0, 0.2),
    c_inv_f_per_um2=st.floats(1e-15, 1e-13),
    l_gate_um=st.floats(1e-3, 1.0),
    v_x0_cm_per_s=st.floats(1e5, 1e8),
    mobility_cm2_per_vs=st.floats(0.5, 5e3),
    c_gate_f_per_um=st.floats(1e-17, 1e-14),
    i_leak_floor_a_per_um=st.floats(0.0, 1e-9),
    vdd_v=st.floats(0.3, 3.0),
    beta_sat=st.floats(1.0, 3.0),
)


@given(fets, volts, volts)
def test_every_technology_and_bias_quadrant(fet, vgs, vds):
    # Both polarities, forward and reverse (vds < 0) operation.
    assert fet.ids(vgs, vds) == _reference_ids(fet, vgs, vds)


@given(
    vs_params,
    st.sampled_from(Polarity),
    st.floats(0.01, 5.0),
    volts,
    volts,
)
def test_arbitrary_parameters(params, polarity, width, vgs, vds):
    fet = VirtualSourceFET("m", polarity, width, params)
    assert fet.ids(vgs, vds) == _reference_ids(fet, vgs, vds)


@given(fets, volts, st.sampled_from([0.0, -0.0]))
def test_zero_vds(fet, vgs, vds):
    assert fet.ids(vgs, vds) == _reference_ids(fet, vgs, vds) == 0.0


@given(fets, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_softplus_linear_branch(fet, overdrive, vds):
    """eta > 40: the softplus is replaced by its argument."""
    p = fet.params
    vgs = p.vt0_v + 41.0 * p.n_ss * p.phi_t + overdrive
    assert (vgs - (p.vt0_v - p.dibl_v_per_v * vds)) / (p.n_ss * p.phi_t) > 40.0
    sign = fet.polarity.value
    assert fet.ids(sign * vgs, sign * vds) == _reference_ids(fet, sign * vgs, sign * vds)


@given(fets, st.floats(-0.2, 0.2), volts, volts)
def test_params_reassigned_after_construction(fet, shift, vgs, vds):
    """V_T-shift Monte Carlo replaces ``fet.params`` on a live FET."""
    fet.ids(vgs, vds)  # evaluate once with the original parameters
    fet.params = replace(fet.params, vt0_v=fet.params.vt0_v + shift)
    assert fet.ids(vgs, vds) == _reference_ids(fet, vgs, vds)

