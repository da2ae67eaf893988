"""Tests for the virtual-source compact model."""

import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.devices import cnfet_nfet, cnfet_pfet, igzo_nfet
from repro.devices.fet import Polarity
from repro.devices.virtual_source import VirtualSourceFET, VSParameters
from repro.devices.silicon import SI_NMOS_PARAMS, si_nfet, si_pfet


@pytest.fixture
def nfet():
    return si_nfet("m1", width_um=1.0)


@pytest.fixture
def pfet():
    return si_pfet("m2", width_um=1.0)


class TestParameters:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_ss"):
            VSParameters(0.3, 0.0, 0.03, 1e-14, 0.02, 1e7, 300.0, 1e-15)
        with pytest.raises(ValueError, match="DIBL"):
            VSParameters(0.3, 1.1, -0.1, 1e-14, 0.02, 1e7, 300.0, 1e-15)
        with pytest.raises(ValueError, match="leakage floor"):
            VSParameters(
                0.3, 1.1, 0.03, 1e-14, 0.02, 1e7, 300.0, 1e-15,
                i_leak_floor_a_per_um=-1.0,
            )

    def test_ss_from_ideality(self):
        p = SI_NMOS_PARAMS
        assert p.subthreshold_slope_mv_per_dec == pytest.approx(
            p.n_ss * 0.025852 * math.log(10) * 1000
        )

    def test_vdsat(self):
        p = SI_NMOS_PARAMS
        expected = p.v_x0_cm_per_s * p.l_gate_um * 1e-4 / p.mobility_cm2_per_vs
        assert p.v_dsat_v == pytest.approx(expected)

    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            VirtualSourceFET("x", Polarity.NMOS, 0.0, SI_NMOS_PARAMS)


class TestCurrentContinuity:
    def test_zero_vds_zero_current(self, nfet):
        assert nfet.ids(0.7, 0.0) == 0.0

    def test_current_continuous_through_vds_zero(self, nfet):
        eps = 1e-6
        forward = nfet.ids(0.7, eps)
        reverse = nfet.ids(0.7, -eps)
        assert forward > 0 > reverse
        assert abs(forward + reverse) < abs(forward) * 0.01

    def test_monotone_in_vgs(self, nfet):
        currents = [nfet.ids(v, 0.7) for v in (0.0, 0.2, 0.4, 0.6, 0.8)]
        assert currents == sorted(currents)

    def test_monotone_in_vds(self, nfet):
        currents = [nfet.ids(0.7, v) for v in (0.0, 0.1, 0.3, 0.5, 0.7)]
        assert currents == sorted(currents)

    def test_saturation(self, nfet):
        """Current saturates: doubling VDS deep in saturation barely helps."""
        i1 = nfet.ids(0.7, 0.7)
        i2 = nfet.ids(0.7, 1.4)
        assert i2 < 1.3 * i1

    def test_linear_region_resistive(self, nfet):
        """At small VDS, current is ~linear in VDS."""
        i1 = nfet.ids(0.7, 0.01)
        i2 = nfet.ids(0.7, 0.02)
        assert i2 == pytest.approx(2 * i1, rel=0.1)

    def test_subthreshold_exponential(self, nfet):
        """A 64.9 mV VGS step in subthreshold is one decade."""
        ss = nfet.subthreshold_slope_mv_per_dec()
        i1 = nfet.ids(0.05, 0.7)
        i2 = nfet.ids(0.05 + ss / 1000.0, 0.7)
        assert i2 / i1 == pytest.approx(10.0, rel=0.05)

    def test_width_scaling(self):
        small = si_nfet("a", width_um=0.5)
        large = si_nfet("b", width_um=2.0)
        assert large.ids(0.7, 0.7) == pytest.approx(4 * small.ids(0.7, 0.7))

    def test_source_drain_symmetry(self, nfet):
        """Reverse operation = exchanged source/drain."""
        # vgs measured from original source; at vds=-0.5 the roles swap.
        i_rev = nfet.ids(0.7, -0.5)
        i_fwd_equiv = nfet.ids(0.7 + 0.5, 0.5)
        assert i_rev == pytest.approx(-i_fwd_equiv)


class TestPolarity:
    def test_pmos_mirror(self, pfet):
        """PMOS conducts for negative VGS/VDS with negative current."""
        assert pfet.ids(-0.7, -0.7) < 0
        assert abs(pfet.ids(-0.7, -0.7)) > 1e-4  # strongly on

    def test_pmos_off_at_zero_vgs(self, pfet):
        assert abs(pfet.ids(0.0, -0.7)) < 1e-8

    def test_nmos_pmos_drive_asymmetry(self, nfet, pfet):
        """Hole transport is slower: |I_P| < I_N at matched bias."""
        assert abs(pfet.ids(-0.7, -0.7)) < nfet.ids(0.7, 0.7)


class TestFiguresOfMerit:
    def test_ieff_between_on_and_off(self, nfet):
        assert nfet.off_current_a() < nfet.effective_current_a() < nfet.on_current_a()

    def test_ieff_definition(self, nfet):
        v = nfet.vdd_v
        i_h = nfet.ids(v, v / 2)
        i_l = nfet.ids(v / 2, v)
        assert nfet.effective_current_a() == pytest.approx((i_h + i_l) / 2)

    def test_on_off_ratio_large(self, nfet):
        assert nfet.on_off_ratio() > 1e4

    def test_gate_capacitance_scales_with_width(self):
        assert si_nfet("a", 2.0).gate_capacitance_f() == pytest.approx(
            2 * si_nfet("b", 1.0).gate_capacitance_f()
        )

    def test_transconductance_positive(self, nfet):
        _ids, gm, gds = nfet.ids_gm_gds(0.7, 0.35)
        assert gm > 0
        assert gds > 0

    def test_vt_shift_reduces_leakage(self):
        low = si_nfet("a", 1.0, vt_shift_v=0.0)
        high = si_nfet("b", 1.0, vt_shift_v=0.1)
        assert high.off_current_a() < low.off_current_a()
        assert high.on_current_a() < low.on_current_a()


_FACTORIES = [si_nfet, si_pfet, igzo_nfet, cnfet_nfet, cnfet_pfet]


def _assert_gm_gds_are_derivatives(fet, vgs, vds):
    """``ids_gm_gds`` returns ``ids`` bit for bit, and gm and gds match
    central differences of ``ids``.

    The stencil is kept clear of vds = 0, where the reverse-mode
    reflection makes the second derivative jump, except at vds = 0
    itself.  The absolute tolerance is the differences' cancellation
    error, a few ulps of the current over the step: a floor-dominated
    bias reads exactly 0 numerically while its analytic gm is ~1e-22 S.
    It also admits values below the smallest normal float (vds ~ 1e-300
    makes gm subnormal), where products keep only a few digits.
    """
    current, gm, gds = fet.ids_gm_gds(vgs, vds)
    assert current == fet.ids(vgs, vds)
    dv = 1e-6 if abs(vds) >= 1e-5 else 1e-9
    stencil = {
        "gm": ((vgs + dv, vds), (vgs - dv, vds)),
        "gds": ((vgs, vds + dv), (vgs, vds - dv)),
    }
    for name, got in (("gm", gm), ("gds", gds)):
        upper, lower = (fet.ids(*bias) for bias in stencil[name])
        reference = (upper - lower) / (2 * dv)
        atol = 8 * sys.float_info.epsilon * max(abs(upper), abs(lower)) / dv
        atol += sys.float_info.min
        assert abs(got - reference) <= 1e-6 * abs(reference) + atol, (
            name, got, reference,
        )


class TestAnalyticConductances:
    @given(
        make=st.sampled_from(_FACTORIES),
        vgs=st.floats(-1.5, 1.5),
        vds=st.one_of(
            st.floats(-1.5, 1.5), st.sampled_from([0.0, 1e-7, -1e-7])
        ),
    )
    def test_gm_gds_match_central_differences(self, make, vgs, vds):
        _assert_gm_gds_are_derivatives(make("m", 1.0), vgs, vds)

    @pytest.mark.parametrize("make", _FACTORIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("vds_n", [0.0, 1e-7, -1e-7, 0.4])
    def test_special_biases(self, make, vds_n):
        fet = make("m", 1.0)
        sign = fet.polarity.value
        _assert_gm_gds_are_derivatives(fet, sign * 0.5, sign * vds_n)

    @pytest.mark.parametrize("make", _FACTORIES, ids=lambda f: f.__name__)
    def test_strong_inversion_branch(self, make):
        """eta > 40 takes the softplus's linear branch."""
        fet = make("m", 1.0)
        p = fet.params
        vgs_n, vds_n = 2.5, 0.3
        eta = (vgs_n - (p.vt0_v - p.dibl_v_per_v * vds_n)) / (p.n_ss * p.phi_t)
        assert eta > 40.0
        sign = fet.polarity.value
        _assert_gm_gds_are_derivatives(fet, sign * vgs_n, sign * vds_n)

    def test_reverse_mode_exchanges_source_and_drain(self, nfet):
        """I(vgs, vds<0) = -f(vgs - vds, -vds): gm = -f1, gds = f1 + f2."""
        current, gm, gds = nfet.ids_gm_gds(0.5, -0.2)
        f, f1, f2 = nfet.ids_gm_gds(0.7, 0.2)
        assert (current, gm, gds) == (-f, -f1, f1 + f2)
