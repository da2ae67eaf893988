"""Tests for C_operational and usage scenarios (Eq. 1, 6-8)."""

import numpy as np
import pytest

from repro import units
from repro.core.carbon_intensity import (
    ConstantCarbonIntensity,
    DailyWindowProfile,
)
from repro.core.operational import (
    OperationalCarbonModel,
    OperationalPower,
    UsageScenario,
    operational_carbon_g,
)
from repro.errors import CarbonModelError


class TestUsageScenario:
    def test_paper_scenario(self):
        s = UsageScenario(24.0)
        assert s.daily_windows == ((20.0, 22.0),)
        assert s.active_hours_per_day == 2.0
        assert s.duty_cycle == pytest.approx(2.0 / 24.0)

    def test_active_seconds(self):
        s = UsageScenario(12.0)
        assert s.active_seconds == pytest.approx(
            units.months_to_seconds(12.0) / 12.0
        )

    def test_with_lifetime_preserves_windows(self):
        s = UsageScenario(24.0, daily_windows=((8.0, 10.0), (20.0, 22.0)))
        s2 = s.with_lifetime(6.0)
        assert s2.lifetime_months == 6.0
        assert s2.daily_windows == s.daily_windows

    def test_validation(self):
        with pytest.raises(CarbonModelError):
            UsageScenario(-1.0)
        with pytest.raises(CarbonModelError):
            UsageScenario(1.0, daily_windows=((22.0, 20.0),))
        with pytest.raises(CarbonModelError):
            UsageScenario(1.0, daily_windows=((0.0, 25.0),))

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_out_of_domain_lifetime_rejected(self, bad):
        with pytest.raises(CarbonModelError):
            UsageScenario(bad)
        with pytest.raises(CarbonModelError):
            UsageScenario(24.0).with_lifetime(bad)

    def test_nan_in_lifetime_array_rejected(self):
        with pytest.raises(CarbonModelError):
            UsageScenario(np.array([12.0, float("nan")]))

    @pytest.mark.parametrize("bad", [float("nan"), -1.0])
    def test_out_of_domain_window_rejected(self, bad):
        with pytest.raises(CarbonModelError):
            UsageScenario(1.0, daily_windows=((bad, 22.0),))
        with pytest.raises(CarbonModelError):
            UsageScenario(1.0, daily_windows=((20.0, bad),))


class TestOperationalPower:
    def test_from_energy_per_cycle_table2(self):
        """Table II, all-Si: 1.42 + 18.0 pJ/cycle at 500 MHz = 9.71 mW."""
        p = OperationalPower.from_energy_per_cycle(
            1.42e-12, 18.0e-12, 500e6
        )
        assert p.total_w == pytest.approx(9.71e-3)

    def test_m3d_power(self):
        p = OperationalPower.from_energy_per_cycle(
            1.42e-12, 15.5e-12, 500e6
        )
        assert p.total_w == pytest.approx(8.46e-3)

    def test_static_included(self):
        p = OperationalPower.from_energy_per_cycle(
            1e-12, 1e-12, 1e9, static_w=5e-6
        )
        assert p.total_w == pytest.approx(2e-3 + 5e-6)

    def test_negative_rejected(self):
        with pytest.raises(CarbonModelError):
            OperationalPower(static_w=-1.0)
        with pytest.raises(CarbonModelError):
            OperationalPower.from_energy_per_cycle(1e-12, 1e-12, 0.0)


class TestOperationalCarbonModel:
    def _model(self, power_w=9.71e-3, ci=380.0):
        return OperationalCarbonModel(
            OperationalPower(static_w=power_w),
            ConstantCarbonIntensity(ci),
        )

    def test_paper_all_si_24_months(self):
        """All-Si operational carbon at 24 months ~ 5.39 g (US grid)."""
        model = self._model()
        carbon = model.carbon_g(UsageScenario(24.0))
        assert carbon == pytest.approx(5.39, abs=0.02)

    def test_carbon_per_month_constant(self):
        model = self._model()
        a = model.carbon_per_month_g(UsageScenario(1.0))
        b = model.carbon_per_month_g(UsageScenario(24.0))
        assert a == pytest.approx(b)
        assert a == pytest.approx(0.2246, abs=0.001)

    def test_zero_lifetime(self):
        model = self._model()
        assert model.carbon_g(UsageScenario(0.0)) == 0.0
        assert model.carbon_per_month_g(UsageScenario(0.0)) == 0.0

    def test_energy_kwh(self):
        model = self._model(power_w=1.0)
        s = UsageScenario(12.0)
        assert model.energy_kwh(s) == pytest.approx(
            s.active_seconds / units.KWH
        )

    def test_series_monotone(self):
        model = self._model()
        months = [1.0, 6.0, 12.0, 24.0]
        series = model.carbon_series_g(months, UsageScenario(24.0))
        assert series == sorted(series)
        assert series[-1] == pytest.approx(24 * series[0], rel=1e-9)

    def test_time_varying_ci_uses_window(self):
        profile = DailyWindowProfile([(0, 100.0), (20, 400.0), (22, 100.0)])
        model = OperationalCarbonModel(
            OperationalPower(static_w=1e-3), profile
        )
        flat = OperationalCarbonModel(
            OperationalPower(static_w=1e-3), ConstantCarbonIntensity(400.0)
        )
        s = UsageScenario(12.0)
        # The whole 8-10 pm window sits in the 400 g/kWh segment.
        assert model.carbon_g(s) == pytest.approx(flat.carbon_g(s))


class TestClosedForm:
    def test_convenience_function_doctest_value(self):
        assert operational_carbon_g(9.71e-3, 380.0, 24.0) == pytest.approx(
            5.39, abs=0.01
        )

    def test_linear_in_everything(self):
        base = operational_carbon_g(1e-3, 100.0, 10.0)
        assert operational_carbon_g(2e-3, 100.0, 10.0) == pytest.approx(2 * base)
        assert operational_carbon_g(1e-3, 200.0, 10.0) == pytest.approx(2 * base)
        assert operational_carbon_g(1e-3, 100.0, 20.0) == pytest.approx(2 * base)
        assert operational_carbon_g(
            1e-3, 100.0, 10.0, hours_per_day=4.0
        ) == pytest.approx(2 * base)
