"""Property-based tests for the carbon models' invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.carbon_intensity import ConstantCarbonIntensity
from repro.core.isoline import TcdpOperatingPoint, TcdpTradeoffMap
from repro.core.operational import (
    OperationalCarbonModel,
    OperationalPower,
    UsageScenario,
    operational_carbon_g,
)
from repro.core.tcdp import tcdp
from repro.errors import CarbonModelError

powers = st.floats(min_value=1e-6, max_value=10.0)
cis = st.floats(min_value=1.0, max_value=2000.0)
months = st.floats(min_value=0.1, max_value=240.0)
carbons = st.floats(min_value=1e-3, max_value=1e6)
scales = st.floats(min_value=0.05, max_value=20.0)
#: NaN, either infinity, or a finite negative number.
out_of_domain = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
    max_value=-1e-12, allow_infinity=False
)


class TestOperationalLinearity:
    @given(powers, cis, months, st.floats(min_value=1.1, max_value=10.0))
    def test_scaling_power(self, power, ci, lifetime, factor):
        base = operational_carbon_g(power, ci, lifetime)
        scaled = operational_carbon_g(power * factor, ci, lifetime)
        assert math.isclose(scaled, base * factor, rel_tol=1e-9)

    @given(powers, cis, months)
    def test_additive_in_lifetime(self, power, ci, lifetime):
        whole = operational_carbon_g(power, ci, lifetime)
        parts = operational_carbon_g(power, ci, lifetime / 2) * 2
        assert math.isclose(whole, parts, rel_tol=1e-9)

    @given(powers, cis, months)
    def test_non_negative(self, power, ci, lifetime):
        assert operational_carbon_g(power, ci, lifetime) >= 0.0

    @given(
        powers,
        cis,
        months,
        st.floats(min_value=0.5, max_value=12.0),
    )
    def test_duty_cycle_proportionality(self, power, ci, lifetime, hours):
        two = operational_carbon_g(power, ci, lifetime, hours_per_day=2.0)
        other = operational_carbon_g(power, ci, lifetime, hours_per_day=hours)
        assert math.isclose(other, two * hours / 2.0, rel_tol=1e-9)

    @given(powers, cis, months, st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=11.0),
            st.floats(min_value=0.1, max_value=1.0),
        ),
        min_size=1,
        max_size=4,
    ))
    def test_window_split_invariance(self, power, ci, lifetime, raw_windows):
        """Carbon depends only on total active hours for constant CI."""
        windows = []
        cursor = 12.0
        for _start, duration in raw_windows:
            windows.append((cursor, cursor + duration))
            cursor += duration + 0.01
            if cursor > 23.0:
                break
        model = OperationalCarbonModel(
            OperationalPower(static_w=power), ConstantCarbonIntensity(ci)
        )
        split = model.carbon_g(
            UsageScenario(lifetime, daily_windows=tuple(windows))
        )
        merged = model.carbon_g(
            UsageScenario(
                lifetime,
                daily_windows=((0.0, sum(e - s for s, e in windows)),),
            )
        )
        assert math.isclose(split, merged, rel_tol=1e-9)


class TestTcdpProperties:
    @given(carbons, st.floats(min_value=1e-3, max_value=1e3))
    def test_tcdp_positive_and_bilinear(self, carbon, time_s):
        value = tcdp(carbon, time_s)
        assert value >= 0
        assert math.isclose(tcdp(2 * carbon, time_s), 2 * value, rel_tol=1e-12)
        assert math.isclose(tcdp(carbon, 2 * time_s), 2 * value, rel_tol=1e-12)

    @given(carbons, carbons, carbons, carbons, scales)
    def test_ratio_invariant_under_common_scaling(self, ce, co, be, bo, k):
        """Scaling *both* designs' carbon by k leaves the map unchanged."""
        m1 = TcdpTradeoffMap(
            TcdpOperatingPoint(ce, co), TcdpOperatingPoint(be, bo)
        )
        m2 = TcdpTradeoffMap(
            TcdpOperatingPoint(ce * k, co * k),
            TcdpOperatingPoint(be * k, bo * k),
        )
        assert math.isclose(m1.ratio(1.3, 0.7), m2.ratio(1.3, 0.7), rel_tol=1e-9)

    @given(carbons, carbons, carbons, carbons, st.floats(0.05, 3.0))
    def test_isoline_is_unit_contour(self, ce, co, be, bo, y):
        tmap = TcdpTradeoffMap(
            TcdpOperatingPoint(ce, co), TcdpOperatingPoint(be, bo)
        )
        x = tmap.isoline_emb_scale(y)
        if np.isfinite(x):
            assert math.isclose(tmap.ratio(float(x), y), 1.0, rel_tol=1e-9)

    @given(carbons, carbons, carbons, carbons, scales, scales)
    def test_win_iff_ratio_below_one(self, ce, co, be, bo, x, y):
        tmap = TcdpTradeoffMap(
            TcdpOperatingPoint(ce, co), TcdpOperatingPoint(be, bo)
        )
        assert tmap.candidate_wins(x, y) == (tmap.ratio(x, y) < 1.0)

    @given(carbons, carbons, carbons, carbons)
    @settings(max_examples=25)
    def test_grid_matches_scalar(self, ce, co, be, bo):
        tmap = TcdpTradeoffMap(
            TcdpOperatingPoint(ce, co), TcdpOperatingPoint(be, bo)
        )
        xs = np.array([0.5, 1.0, 1.5])
        ys = np.array([0.25, 1.0])
        grid = tmap.ratio_grid(xs, ys)
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                assert math.isclose(
                    grid[i, j], tmap.ratio(float(x), float(y)), rel_tol=1e-12
                )


class TestEmbodiedProperties:
    @given(
        st.floats(min_value=1.0, max_value=2000.0),
        st.floats(min_value=0.001, max_value=10.0),
    )
    def test_area_linearity(self, ci, area_cm2):
        from repro.core.embodied import EmbodiedCarbonModel
        from repro.fab import build_all_si_process

        result = EmbodiedCarbonModel(build_all_si_process()).evaluate(ci)
        assert math.isclose(
            result.for_area(2 * area_cm2),
            2 * result.for_area(area_cm2),
            rel_tol=1e-12,
        )

    @given(
        st.floats(min_value=1.0, max_value=2000.0),
        st.integers(min_value=100, max_value=10**6),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_good_die_monotone_in_yield(self, ci, dies, yield_a):
        from repro.core.embodied import EmbodiedCarbonModel
        from repro.fab import build_m3d_process

        result = EmbodiedCarbonModel(build_m3d_process()).evaluate(ci)
        better = min(1.0, yield_a * 1.5)
        assert result.per_good_die_g(dies, better) <= result.per_good_die_g(
            dies, yield_a
        )

    @given(st.floats(min_value=1.0, max_value=2000.0))
    def test_m3d_always_costs_more_per_wafer(self, ci):
        """For any grid intensity, the M3D flow's extra steps cost carbon."""
        from repro.core.embodied import EmbodiedCarbonModel
        from repro.fab import build_all_si_process, build_m3d_process

        si = EmbodiedCarbonModel(build_all_si_process()).evaluate(ci)
        m3d = EmbodiedCarbonModel(build_m3d_process()).evaluate(ci)
        assert m3d.per_wafer_g > si.per_wafer_g


class TestInputDomain:
    @given(
        st.sampled_from(["static_w", "core_dynamic_w", "memory_w"]),
        out_of_domain,
    )
    @settings(max_examples=40, deadline=None)
    def test_operational_power_rejects_each_bad_field(self, field, value):
        with pytest.raises(CarbonModelError):
            OperationalPower(**{field: value})

    @given(out_of_domain, powers)
    @settings(max_examples=30, deadline=None)
    def test_operational_power_rejects_bad_array_entries(self, value, good):
        with pytest.raises(CarbonModelError):
            OperationalPower(static_w=np.array([good, value]))

    @given(out_of_domain)
    @settings(max_examples=30, deadline=None)
    def test_constant_carbon_intensity_rejects_bad_values(self, value):
        with pytest.raises(CarbonModelError):
            ConstantCarbonIntensity(value)

    @given(powers, powers, powers, cis)
    @settings(max_examples=30, deadline=None)
    def test_in_domain_inputs_give_finite_power_and_intensity(
        self, static, dynamic, memory, ci
    ):
        power = OperationalPower(static, dynamic, memory)
        assert math.isfinite(power.total_w) and power.total_w >= 0
        assert ConstantCarbonIntensity(ci).at(0.0) == ci
