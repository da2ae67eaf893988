"""Property-based tests for physical-design and fabrication models."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PhysicalDesignError
from repro.physical.die import DieGeometry, dies_per_wafer
from repro.physical.stdcells import VtFlavor, all_libraries
from repro.physical.timing import TimingClosure
from repro.physical.yields import (
    CompoundTierYield,
    FixedYield,
    MurphyYield,
    PoissonYield,
)

die_dims = st.floats(min_value=0.1, max_value=20.0)
defect_densities = st.floats(min_value=0.0, max_value=5.0)
areas = st.floats(min_value=0.0, max_value=10.0)
clocks = st.floats(min_value=5e7, max_value=2e9)
fmax_fractions = st.floats(min_value=0.025, max_value=1.0)
#: NaN, either infinity, or a finite negative number.
out_of_domain = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
    max_value=-1e-12, allow_infinity=False
)


class TestDieProperties:
    @given(die_dims, die_dims)
    @settings(max_examples=40, deadline=None)
    def test_count_positive_for_reasonable_dies(self, h, w):
        assert dies_per_wafer(DieGeometry(h, w)) > 0

    @given(die_dims, die_dims, st.floats(min_value=1.05, max_value=3.0))
    @settings(max_examples=40, deadline=None)
    def test_bigger_die_fewer_dies(self, h, w, scale):
        small = dies_per_wafer(DieGeometry(h, w))
        big = dies_per_wafer(DieGeometry(h * scale, w * scale))
        assert big < small

    @given(die_dims, die_dims)
    @settings(max_examples=40, deadline=None)
    def test_count_bounded_by_area(self, h, w):
        geometry = DieGeometry(h, w)
        count = dies_per_wafer(geometry)
        usable_area = math.pi * (geometry.usable_diameter_mm / 2) ** 2
        assert count * geometry.scribed_area_mm2 <= usable_area

    @given(die_dims, die_dims)
    @settings(max_examples=30, deadline=None)
    def test_rotation_symmetry_of_analytic_count(self, h, w):
        """The analytic formula only sees the scribed area."""
        assert dies_per_wafer(DieGeometry(h, w)) == dies_per_wafer(
            DieGeometry(w, h)
        )


class TestYieldProperties:
    @given(defect_densities, areas)
    @settings(max_examples=50, deadline=None)
    def test_yields_in_unit_interval(self, d0, area):
        for model in (PoissonYield(d0), MurphyYield(d0)):
            y = model.yield_fraction(area)
            assert 0.0 < y <= 1.0

    @given(defect_densities, areas, areas)
    @settings(max_examples=50, deadline=None)
    def test_yield_monotone_decreasing_in_area(self, d0, a, b):
        lo, hi = sorted((a, b))
        for model in (PoissonYield(d0), MurphyYield(d0)):
            assert model.yield_fraction(hi) <= model.yield_fraction(lo) + 1e-12

    @given(defect_densities, areas)
    @settings(max_examples=50, deadline=None)
    def test_murphy_at_least_poisson(self, d0, area):
        assert MurphyYield(d0).yield_fraction(area) >= PoissonYield(
            d0
        ).yield_fraction(area) - 1e-12

    @given(st.floats(min_value=0.01, max_value=1.0), areas)
    @settings(max_examples=30, deadline=None)
    def test_fixed_yield_constant(self, value, area):
        assert FixedYield(value).yield_fraction(area) == value


class TestInputDomain:
    @given(
        st.sampled_from(
            [
                "die_height_mm",
                "die_width_mm",
                "scribe_mm",
                "wafer_diameter_mm",
                "edge_clearance_mm",
                "notch_height_mm",
            ]
        ),
        out_of_domain,
    )
    @settings(max_examples=60, deadline=None)
    def test_die_geometry_rejects_each_bad_field(self, field, value):
        kwargs = {"die_height_mm": 1.0, "die_width_mm": 1.0, field: value}
        with pytest.raises(PhysicalDesignError):
            DieGeometry(**kwargs)

    @given(out_of_domain)
    @settings(max_examples=30, deadline=None)
    def test_defect_densities_reject_bad_values(self, d0):
        for model in (PoissonYield, MurphyYield):
            with pytest.raises(PhysicalDesignError):
                model(d0)

    @given(defect_densities, out_of_domain)
    @settings(max_examples=40, deadline=None)
    def test_yield_models_reject_bad_areas(self, d0, area):
        for model in (
            PoissonYield(d0),
            MurphyYield(d0),
            FixedYield(0.9),
            CompoundTierYield((PoissonYield(d0), MurphyYield(d0))),
        ):
            with pytest.raises(PhysicalDesignError):
                model.yield_fraction(area)


class TestTimingProperties:
    @given(clocks, st.sampled_from(list(VtFlavor)))
    @settings(max_examples=60, deadline=None)
    def test_met_timing_iff_within_fmax(self, clock, flavor):
        tc = TimingClosure()
        library = all_libraries()[flavor]
        result = tc.close(library, clock)
        fmax = tc.max_clock_hz(library)
        assert result.met == (clock <= fmax * (1 + 1e-9))

    @given(fmax_fractions, fmax_fractions, st.sampled_from(list(VtFlavor)))
    @settings(max_examples=40, deadline=None)
    def test_sizing_monotone_in_clock(self, f1, f2, flavor):
        # Clocks are drawn as fractions of fmax, so every draw meets timing.
        tc = TimingClosure()
        library = all_libraries()[flavor]
        fmax = tc.max_clock_hz(library)
        lo, hi = sorted((f1 * fmax, f2 * fmax))
        r_lo, r_hi = tc.close(library, lo), tc.close(library, hi)
        assert r_lo.met and r_hi.met
        assert r_hi.sizing_factor >= r_lo.sizing_factor - 1e-12

    @given(st.floats(min_value=0.5, max_value=8.0), st.sampled_from(list(VtFlavor)))
    @settings(max_examples=40, deadline=None)
    def test_delay_decreasing_in_sizing(self, sizing, flavor):
        tc = TimingClosure()
        library = all_libraries()[flavor]
        assert tc.delay_s(library, sizing * 1.1) < tc.delay_s(library, sizing)


class TestFlowProperties:
    @given(st.integers(min_value=0, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_m3d_energy_affine_in_tiers(self, tiers):
        from repro.fab import build_m3d_process

        e0 = build_m3d_process(n_cnfet_tiers=0).total_energy_kwh()
        e1 = build_m3d_process(n_cnfet_tiers=1).total_energy_kwh()
        en = build_m3d_process(n_cnfet_tiers=tiers).total_energy_kwh()
        assert math.isclose(en, e0 + tiers * (e1 - e0), rel_tol=1e-12)

    @given(st.floats(min_value=1.0, max_value=2000.0))
    @settings(max_examples=30, deadline=None)
    def test_embodied_monotone_in_grid_intensity(self, ci):
        from repro.core.embodied import EmbodiedCarbonModel
        from repro.fab import build_all_si_process

        model = EmbodiedCarbonModel(build_all_si_process())
        assert (
            model.evaluate(ci * 1.5).per_wafer_g
            > model.evaluate(ci).per_wafer_g
        )
