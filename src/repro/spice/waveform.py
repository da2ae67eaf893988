"""Source waveforms and simulated-waveform post-processing."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError

#: numpy renamed trapz -> trapezoid in 2.0; support both.
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


# ---------------------------------------------------------------------------
# Drive waveforms (inputs)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Dc:
    """A constant drive value."""

    value: float

    def at(self, t: float) -> float:
        return self.value

    def at_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`at` over an array of sample times."""
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.value)


@dataclass(frozen=True)
class Pulse:
    """SPICE-style periodic pulse.

    Attributes mirror the SPICE PULSE source: initial value, pulsed value,
    delay, rise time, fall time, pulse width, and period (0 = one-shot).
    """

    v1: float
    v2: float
    delay: float = 0.0
    rise: float = 1e-12
    fall: float = 1e-12
    width: float = 1e-9
    period: float = 0.0

    def __post_init__(self) -> None:
        if self.rise <= 0 or self.fall <= 0:
            raise AnalysisError("rise/fall times must be > 0")
        if self.width < 0:
            raise AnalysisError("pulse width must be >= 0")

    def at(self, t: float) -> float:
        if t < self.delay:
            return self.v1
        local = t - self.delay
        if self.period > 0:
            local = local % self.period
        if local < self.rise:
            return self.v1 + (self.v2 - self.v1) * local / self.rise
        local -= self.rise
        if local < self.width:
            return self.v2
        local -= self.width
        if local < self.fall:
            return self.v2 + (self.v1 - self.v2) * local / self.fall
        return self.v1

    def at_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`at` over an array of sample times.

        The branch expressions mirror the scalar method exactly, so the
        two paths agree to the last float64 bit (``np.select`` takes
        the first true condition, like the scalar if-chain).
        """
        t = np.asarray(t, dtype=float)
        local = t - self.delay
        if self.period > 0:
            local = np.mod(local, self.period)
        rise_seg = self.v1 + (self.v2 - self.v1) * local / self.rise
        after_rise = local - self.rise
        after_width = after_rise - self.width
        fall_seg = self.v2 + (self.v1 - self.v2) * after_width / self.fall
        return np.select(
            [
                t < self.delay,
                local < self.rise,
                after_rise < self.width,
                after_width < self.fall,
            ],
            [
                np.full(t.shape, self.v1),
                rise_seg,
                np.full(t.shape, self.v2),
                fall_seg,
            ],
            default=self.v1,
        )


@dataclass(frozen=True)
class PieceWiseLinear:
    """SPICE-style PWL source: linear interpolation through (t, v) points."""

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 1:
            raise AnalysisError("PWL needs at least one point")
        times = [t for t, _v in self.points]
        if times != sorted(times):
            raise AnalysisError("PWL times must be non-decreasing")

    def at(self, t: float) -> float:
        times = [p[0] for p in self.points]
        if t <= times[0]:
            return self.points[0][1]
        if t >= times[-1]:
            return self.points[-1][1]
        idx = bisect.bisect_right(times, t)
        t0, v0 = self.points[idx - 1]
        t1, v1 = self.points[idx]
        if t1 == t0:
            return v1
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def at_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`at` over an array of sample times.

        Strictly increasing breakpoints vectorize the scalar bisect +
        interpolation arithmetic term-for-term (bit-exact); duplicate
        times (step discontinuities) have bisect-direction semantics a
        plain interpolation cannot express, so that case evaluates
        through the scalar method.
        """
        t = np.asarray(t, dtype=float)
        raw_times = [p[0] for p in self.points]
        if len(raw_times) < 2 or any(
            a >= b for a, b in zip(raw_times, raw_times[1:])
        ):
            return np.array(
                [self.at(ti) for ti in t.ravel()]
            ).reshape(t.shape)
        times = np.array(raw_times)
        values = np.array([p[1] for p in self.points])
        idx = np.clip(
            np.searchsorted(times, t, side="right"), 1, times.size - 1
        )
        t0, v0 = times[idx - 1], values[idx - 1]
        t1, v1 = times[idx], values[idx]
        interior = v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        return np.where(
            t <= times[0],
            values[0],
            np.where(t >= times[-1], values[-1], interior),
        )


# ---------------------------------------------------------------------------
# Simulated waveforms (outputs)
# ---------------------------------------------------------------------------
class Crossing(NamedTuple):
    """A node passing through a threshold in one direction."""

    node: str
    threshold: float
    rising: bool = True


def crossed(a: float, b: float, rising: bool) -> bool:
    """True when consecutive samples ``a`` then ``b``, each already
    minus the threshold, cross it in the given direction."""
    return (a < 0 <= b) if rising else (a > 0 >= b)


class Waveform:
    """A sampled signal: times plus values, with measurement helpers."""

    def __init__(self, times: Sequence[float], values: Sequence[float]) -> None:
        self.times = np.asarray(times, dtype=float)
        self.values = np.asarray(values, dtype=float)
        if self.times.shape != self.values.shape:
            raise AnalysisError("times and values must have the same length")
        if self.times.size < 1:
            raise AnalysisError("waveform must contain at least one sample")

    def at(self, t: float) -> float:
        """Linearly interpolated value at time ``t``."""
        return float(np.interp(t, self.times, self.values))

    def final(self) -> float:
        return float(self.values[-1])

    def crossings(self, threshold: float, rising: bool = True) -> List[float]:
        """Times at which the signal crosses ``threshold``."""
        v = self.values - threshold
        out: List[float] = []
        for i in range(1, v.size):
            a, b = v[i - 1], v[i]
            if crossed(a, b, rising):  # implies a != b
                frac = -a / (b - a)
                out.append(
                    float(
                        self.times[i - 1]
                        + frac * (self.times[i] - self.times[i - 1])
                    )
                )
        return out

    def first_crossing(self, threshold: float, rising: bool = True) -> float:
        xs = self.crossings(threshold, rising)
        if not xs:
            direction = "rising" if rising else "falling"
            raise AnalysisError(
                f"signal never crosses {threshold} ({direction})"
            )
        return xs[0]

    def settle_value(self, fraction: float = 0.1) -> float:
        """Mean of the last ``fraction`` of samples."""
        if not (0.0 < fraction <= 1.0):
            raise AnalysisError("fraction must be in (0, 1]")
        n = max(1, int(self.values.size * fraction))
        return float(self.values[-n:].mean())

    def minimum(self) -> float:
        return float(self.values.min())

    def maximum(self) -> float:
        return float(self.values.max())

    def integral(self) -> float:
        """Trapezoidal integral of the signal over time."""
        return float(_trapezoid(self.values, self.times))


def delay_between(
    cause: Waveform,
    effect: Waveform,
    cause_threshold: float,
    effect_threshold: float,
    cause_rising: bool = True,
    effect_rising: bool = True,
) -> float:
    """Propagation delay: effect crossing minus cause crossing."""
    t0 = cause.first_crossing(cause_threshold, cause_rising)
    xs = [t for t in effect.crossings(effect_threshold, effect_rising) if t >= t0]
    if not xs:
        raise AnalysisError("effect never crosses threshold after cause")
    return xs[0] - t0
