"""C_operational: operational carbon over a usage scenario (Eq. 1, 6-8).

The paper's scenario: the embedded system runs its application 2 hours per
day (8 pm to 10 pm) for 24 months.  Power while active is the sum of static
power and the dynamic/memory energy rates (Equation 6); the indicator
function collapses the Eq. 1 integral to Equation 8:

    C_op = mean(CI_use over the window) * P_operational * t_life * (2h/24h)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro import units
from repro.core.carbon_intensity import CarbonIntensity, ConstantCarbonIntensity
from repro.errors import CarbonModelError


@dataclass(frozen=True)
class UsageScenario:
    """When and for how long the system is used.

    Attributes:
        lifetime_months: Total system lifetime t_life in months.
        daily_windows: Daily active hour-of-day windows; the paper uses a
            single (20, 22) window (8-10 pm).
    """

    lifetime_months: float
    daily_windows: Tuple[Tuple[float, float], ...] = ((20.0, 22.0),)

    def __post_init__(self) -> None:
        # Written so that NaN fails each check: every comparison with
        # NaN is False.
        months = self.lifetime_months
        if not np.all((months >= 0) & np.isfinite(months)):
            raise CarbonModelError(
                f"lifetime must be finite and >= 0 months, got {months}"
            )
        for start, end in self.daily_windows:
            if not np.all((start >= 0.0) & (end > start) & (end <= 24.0)):
                raise CarbonModelError(
                    f"bad daily window ({start}, {end})"
                )

    @property
    def lifetime_seconds(self) -> float:
        return units.months_to_seconds(self.lifetime_months)

    @property
    def active_hours_per_day(self) -> float:
        return sum(end - start for start, end in self.daily_windows)

    @property
    def duty_cycle(self) -> float:
        """Fraction of wall-clock time the system is active."""
        return self.active_hours_per_day / 24.0

    @property
    def active_seconds(self) -> float:
        """Total active time over the lifetime."""
        return self.lifetime_seconds * self.duty_cycle

    def with_lifetime(self, lifetime_months: float) -> "UsageScenario":
        return UsageScenario(lifetime_months, self.daily_windows)


@dataclass(frozen=True)
class OperationalPower:
    """The time-independent P_operational of Equations 6-7, in watts.

    Components map one-to-one to Equation 6:

    - ``static_w``: P_static (core + memory standby leakage);
    - ``core_dynamic_w``: E_dynamic(M0) / (N_cycle * T_clk);
    - ``memory_w``: E_operational(eDRAM) / (N_cycle * T_clk), including
      refresh and access energy.
    """

    static_w: float = 0.0
    core_dynamic_w: float = 0.0
    memory_w: float = 0.0

    def __post_init__(self) -> None:
        for name in ("static_w", "core_dynamic_w", "memory_w"):
            if np.any(getattr(self, name) < 0):
                raise CarbonModelError(f"{name} must be >= 0")

    @property
    def total_w(self) -> float:
        return self.static_w + self.core_dynamic_w + self.memory_w

    @classmethod
    def from_energy_per_cycle(
        cls,
        core_energy_per_cycle_j: float,
        memory_energy_per_cycle_j: float,
        clock_hz: float,
        static_w: float = 0.0,
    ) -> "OperationalPower":
        """Build from per-cycle energies and a clock frequency.

        This is the Table II form: e.g. 1.42 pJ/cycle at 500 MHz is
        0.71 mW of core dynamic power.
        """
        if np.any(clock_hz <= 0):
            raise CarbonModelError(f"clock must be > 0, got {clock_hz}")
        return cls(
            static_w=static_w,
            core_dynamic_w=core_energy_per_cycle_j * clock_hz,
            memory_w=memory_energy_per_cycle_j * clock_hz,
        )


class OperationalCarbonModel:
    """Evaluates C_operational for a power draw and usage scenario."""

    def __init__(
        self,
        power: OperationalPower,
        ci_use: CarbonIntensity,
    ) -> None:
        self.power = power
        self.ci_use = ci_use

    def carbon_g(self, scenario: UsageScenario) -> float:
        """C_operational in gCO2e over the whole scenario (Eq. 8)."""
        return self.ci_use.integrate_power(
            self.power.total_w,
            scenario.lifetime_seconds,
            scenario.daily_windows,
        )

    def carbon_per_month_g(self, scenario: UsageScenario) -> float:
        """Average operational carbon per month of lifetime."""
        if scenario.lifetime_months == 0:
            return 0.0
        return self.carbon_g(scenario) / scenario.lifetime_months

    def energy_kwh(self, scenario: UsageScenario) -> float:
        """Total electrical energy consumed over the scenario."""
        return self.power.total_w * scenario.active_seconds / units.KWH

    def carbon_series_g(
        self, months: Sequence[float], scenario: UsageScenario
    ) -> List[float]:
        """C_operational accumulated at each lifetime in ``months``.

        Used by the Fig. 5 generator: the same daily windows, evaluated at
        increasing lifetimes.
        """
        return [
            self.carbon_g(scenario.with_lifetime(m)) for m in months
        ]


def operational_carbon_g(
    power_w: float,
    ci_use_g_per_kwh: float,
    lifetime_months: float,
    hours_per_day: float = 2.0,
) -> float:
    """Convenience closed form of Equation 8 for constant CI_use.

    >>> round(operational_carbon_g(9.71e-3, 380.0, 24.0), 2)  # all-Si
    5.39
    """
    scenario = UsageScenario(
        lifetime_months, daily_windows=((0.0, hours_per_day),)
    )
    model = OperationalCarbonModel(
        OperationalPower(static_w=power_w),
        ConstantCarbonIntensity(ci_use_g_per_kwh),
    )
    return model.carbon_g(scenario)
