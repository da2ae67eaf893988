"""Carbon-intensity models (CI_fab and CI_use).

Carbon intensity is expressed in gCO2e per kWh, the unit in which grid data
is published (Fig. 2c of the paper).  Two kinds of profile are provided:

- :class:`ConstantCarbonIntensity` — a fixed grid value (used for CI_fab
  and as the simplest CI_use model);
- :class:`DailyWindowProfile` — a day-periodic profile with per-window
  values, supporting the paper's 8-to-10 pm usage-window analysis
  (the indicator function of Equation 6).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro import units
from repro.errors import CarbonModelError

#: Grid carbon intensities used in the paper (gCO2e/kWh): US, coal-heavy,
#: solar, and Taiwanese grids (Fig. 2c, refs [4], [20]).
GRIDS: Dict[str, float] = {
    "us": 380.0,
    "coal": 820.0,
    "solar": 48.0,
    "taiwan": 563.0,
}


def grid_intensity(name: str) -> float:
    """Look up a named grid's carbon intensity in gCO2e/kWh."""
    try:
        return GRIDS[name.lower()]
    except KeyError:
        raise CarbonModelError(
            f"unknown grid {name!r}; known grids: {sorted(GRIDS)}"
        ) from None


class CarbonIntensity(abc.ABC):
    """Time-varying carbon intensity CI(t), in gCO2e/kWh."""

    @abc.abstractmethod
    def at(self, t_seconds: float) -> float:
        """CI value at absolute time ``t_seconds`` (from system birth)."""

    @abc.abstractmethod
    def mean_over_window(
        self, window_start_hour: float, window_end_hour: float
    ) -> float:
        """Average CI over a daily [start, end) hour-of-day window."""

    def integrate_power(
        self,
        power_watts: float,
        t_life_seconds: float,
        active_windows: Sequence[Tuple[float, float]],
    ) -> float:
        """Equation 1/7: integrate CI(t) * P(t) dt over the lifetime.

        ``P(t)`` is ``power_watts`` inside the daily ``active_windows``
        (hour-of-day pairs) and zero outside — the indicator-function form
        of Equation 6.  Returns grams CO2e.
        """
        if np.any(power_watts < 0):
            raise CarbonModelError(f"power must be >= 0, got {power_watts}")
        if np.any(t_life_seconds < 0):
            raise CarbonModelError(f"lifetime must be >= 0, got {t_life_seconds}")
        total_g = 0.0
        # The accumulation runs over the daily-window *table*, not over
        # batched model lanes; each term broadcasts over an array-valued
        # ``power_watts``, so the scalar fold is shape-stable.
        for start_h, end_h in active_windows:  # repro-lint: disable=RPL015 - sums the window table; terms broadcast over power_watts
            if (
                np.any(start_h < 0.0)
                or np.any(end_h < start_h)
                or np.any(end_h > 24.0)
            ):
                raise CarbonModelError(
                    f"bad daily window ({start_h}, {end_h}); need "
                    f"0 <= start <= end <= 24"
                )
            hours_per_day = end_h - start_h
            mean_ci = self.mean_over_window(start_h, end_h)  # g/kWh
            active_seconds = t_life_seconds * hours_per_day / 24.0
            energy_kwh = power_watts * active_seconds / units.KWH
            total_g += mean_ci * energy_kwh
        return total_g


@dataclass(frozen=True)
class ConstantCarbonIntensity(CarbonIntensity):
    """A constant CI(t) = value (gCO2e/kWh)."""

    value_g_per_kwh: float
    name: str = ""

    def __post_init__(self) -> None:
        value = self.value_g_per_kwh
        if not np.all((value >= 0) & np.isfinite(value)):  # NaN fails
            raise CarbonModelError(
                f"carbon intensity must be finite and >= 0, got {value}"
            )

    @classmethod
    def from_grid(cls, grid: str) -> "ConstantCarbonIntensity":
        return cls(grid_intensity(grid), name=grid)

    def at(self, t_seconds: float) -> float:
        return self.value_g_per_kwh

    def mean_over_window(
        self, window_start_hour: float, window_end_hour: float
    ) -> float:
        return self.value_g_per_kwh

    def scaled(self, factor: float) -> "ConstantCarbonIntensity":
        """A new profile scaled by ``factor`` (for uncertainty sweeps)."""
        if factor < 0:
            raise CarbonModelError(f"scale factor must be >= 0, got {factor}")
        suffix = f"x{factor:g}" if self.name else ""
        return ConstantCarbonIntensity(
            self.value_g_per_kwh * factor, name=f"{self.name}{suffix}"
        )


class DailyWindowProfile(CarbonIntensity):
    """Day-periodic CI profile defined by hourly breakpoints.

    Args:
        breakpoints: Sequence of ``(start_hour, ci_value)`` pairs sorted by
            hour; each value holds until the next breakpoint (wrapping at
            24 h).  Example — a grid that is dirtier in the evening::

                DailyWindowProfile([(0, 350.0), (18, 450.0), (22, 380.0)])
    """

    def __init__(
        self, breakpoints: Sequence[Tuple[float, float]], name: str = ""
    ) -> None:
        if not breakpoints:
            raise CarbonModelError("need at least one breakpoint")
        hours = [h for h, _v in breakpoints]
        if hours != sorted(hours) or len(set(hours)) != len(hours):
            raise CarbonModelError("breakpoint hours must be strictly increasing")
        if hours[0] != 0.0:  # repro-lint: disable=RPL004 - literal-input check
            raise CarbonModelError("first breakpoint must be at hour 0")
        if any(not (0.0 <= h < 24.0) for h in hours):
            raise CarbonModelError("breakpoint hours must lie in [0, 24)")
        if any(v < 0 for _h, v in breakpoints):
            raise CarbonModelError("carbon intensity values must be >= 0")
        self._breakpoints = list(breakpoints)
        self._starts = np.array([h for h, _v in self._breakpoints])
        self._values = np.array([v for _h, v in self._breakpoints])
        self.name = name

    def at(self, t_seconds: "float | np.ndarray") -> "float | np.ndarray":
        """CI at time(s) ``t_seconds``; accepts scalars or arrays.

        Pure selection (``searchsorted`` against the breakpoint hours),
        so array lanes are bit-identical to per-element scalar calls.
        """
        hour = (np.asarray(t_seconds, dtype=float) / units.HOUR) % 24.0
        idx = np.searchsorted(self._starts, hour, side="right") - 1
        value = self._values[idx]
        return float(value) if np.isscalar(t_seconds) else value

    def mean_over_window(
        self, window_start_hour: float, window_end_hour: float
    ) -> float:
        """Exact time-weighted mean over a daily hour-of-day window."""
        if window_end_hour <= window_start_hour:
            raise CarbonModelError("window end must be after start")
        edges = [h for h, _v in self._breakpoints] + [24.0]
        total = 0.0
        for i, (start_h, value) in enumerate(self._breakpoints):
            seg_start, seg_end = start_h, edges[i + 1]
            lo = max(seg_start, window_start_hour)
            hi = min(seg_end, window_end_hour)
            if hi > lo:
                total += value * (hi - lo)
        return total / (window_end_hour - window_start_hour)
