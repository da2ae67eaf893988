"""tCDP trade-off maps and isolines (Fig. 6a).

The map answers: *under what combination of embodied-carbon overhead and
operational-energy benefit is the M3D design more carbon-efficient than the
all-Si baseline?*

Axes follow the paper exactly:

- x: scale factor on C_embodied of the candidate (M3D) design — x = 2.0
  means its embodied carbon is 2x higher;
- y: scale factor on E_operational of the candidate — y = 0.5 means its
  operational energy is 2x lower.

At each (x, y) the relative tCDP is

    ratio(x, y) = (x * C_emb_c + y * C_op_c) / (C_emb_b + C_op_b)

(equal execution times, as in the case study; a time ratio can be supplied
otherwise).  ``ratio < 1`` is the red region where the candidate wins; the
``ratio == 1`` contour is the tCDP isoline, which is a straight line

    x = (tC_b - y * C_op_c) / C_emb_c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import CarbonModelError


def batched_ratio_grid(
    cand_embodied_g: np.ndarray,
    cand_operational_g: np.ndarray,
    cand_execution_time_s: "float | np.ndarray",
    baseline_tcdp: "float | np.ndarray",
    emb_scales: np.ndarray,
    op_scales: np.ndarray,
) -> np.ndarray:
    """Relative-tCDP grids for a *batch* of candidate operating points.

    The kernel behind :meth:`TcdpTradeoffMap.ratio_grid`: the candidate
    components are arrays of shape ``(n,)`` and the result has shape
    ``(n, len(op_scales), len(emb_scales))``.  Element ``[s, i, j]`` uses
    exactly the same float operations, in the same order, as the scalar
    ``ratio_grid`` of entry ``s``.  The Monte Carlo sweep counts where
    this expression is below 1 without building the tensor
    (:func:`repro.core.uncertainty._mc_chunk_win_counts`).
    """
    x = np.asarray(emb_scales, dtype=float)
    y = np.asarray(op_scales, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise CarbonModelError("scale factors must be >= 0")
    emb = np.asarray(cand_embodied_g, dtype=float)
    op = np.asarray(cand_operational_g, dtype=float)
    t = np.asarray(cand_execution_time_s, dtype=float)
    if t.ndim:
        t = t[:, None, None]
    denom = np.asarray(baseline_tcdp, dtype=float)
    if denom.ndim:
        denom = denom[:, None, None]
    # One full (n, y, x) temporary; the scale/divide passes run in place.
    # Element-wise this is ((x*emb + y*op) * t) / tcdp_b exactly — the
    # same operations, in the same order, as the scalar ratio().
    grid = x[None, None, :] * emb[:, None, None]
    grid = grid + (y[None, :] * op[:, None])[:, :, None]
    np.multiply(grid, t, out=grid)
    np.divide(grid, denom, out=grid)
    return grid


def batched_ratio_points(
    cand_embodied_g: np.ndarray,
    cand_operational_g: np.ndarray,
    cand_execution_time_s: "float | np.ndarray",
    baseline_tcdp: "float | np.ndarray",
    emb_scales: np.ndarray,
    op_scales: np.ndarray,
) -> np.ndarray:
    """Element-wise relative tCDP for a batch of *paired* (x, y) points.

    The diagonal counterpart of :func:`batched_ratio_grid`: instead of
    the outer product of two scale axes, every batch element carries its
    own ``(emb_scale, op_scale)`` pair — the shape serving-layer point
    queries need, where request *i* asks for the ratio at its own map
    position.  All arguments broadcast together; element ``i`` performs
    exactly the same float operations, in the same order, as the scalar
    :meth:`TcdpTradeoffMap.ratio` — and as ``batched_ratio_grid``
    element ``[i, j, k]`` with matching scales — so coalescing point
    queries into one call is bit-identical to evaluating them one at a
    time.
    """
    x = np.asarray(emb_scales, dtype=float)
    y = np.asarray(op_scales, dtype=float)
    if np.any(x < 0) or np.any(y < 0):
        raise CarbonModelError("scale factors must be >= 0")
    emb = np.asarray(cand_embodied_g, dtype=float)
    op = np.asarray(cand_operational_g, dtype=float)
    t = np.asarray(cand_execution_time_s, dtype=float)
    denom = np.asarray(baseline_tcdp, dtype=float)
    # ((x*emb + y*op) * t) / tcdp_b — the exact op order of ratio().
    return ((x * emb) + (y * op)) * t / denom


@dataclass(frozen=True)
class TcdpOperatingPoint:
    """The carbon components entering the trade-off map (gCO2e).

    ``execution_time_s`` lets designs with different run times be
    compared; the case study uses equal times.
    """

    embodied_g: float
    operational_g: float
    execution_time_s: float = 1.0

    def __post_init__(self) -> None:
        if not (0 <= self.embodied_g < np.inf and 0 <= self.operational_g < np.inf):
            raise CarbonModelError(f"carbon components must be finite and >= 0: {self}")
        if not 0 < self.execution_time_s < np.inf:
            raise CarbonModelError("execution time must be finite and > 0")

    @property
    def total_g(self) -> float:
        return self.embodied_g + self.operational_g

    @property
    def tcdp(self) -> float:
        return self.total_g * self.execution_time_s


class TcdpTradeoffMap:
    """Relative-tCDP map of a candidate design vs a baseline (Fig. 6a)."""

    def __init__(
        self,
        candidate: TcdpOperatingPoint,
        baseline: TcdpOperatingPoint,
    ) -> None:
        self.check_points(candidate, baseline)
        self.candidate = candidate
        self.baseline = baseline

    @staticmethod
    def check_points(
        candidate: TcdpOperatingPoint, baseline: TcdpOperatingPoint
    ) -> None:
        """Raise :class:`CarbonModelError` unless the relative tCDP at
        the nominal point, ``candidate.tcdp / baseline.tcdp``, is finite.

        Finite components can still overflow it: a tiny baseline tCDP
        as the divisor, or a candidate tCDP past float64's range.
        """
        if baseline.tcdp == 0:
            raise CarbonModelError("baseline tCDP must be non-zero")
        if not candidate.tcdp / baseline.tcdp < np.inf:
            raise CarbonModelError(
                f"relative tCDP {candidate.tcdp} / {baseline.tcdp} is not finite"
            )

    def ratio(self, emb_scale: float, op_scale: float) -> float:
        """Relative tCDP at one (x, y) point; < 1 means candidate wins."""
        if emb_scale < 0 or op_scale < 0:
            raise CarbonModelError("scale factors must be >= 0")
        scaled = (
            emb_scale * self.candidate.embodied_g
            + op_scale * self.candidate.operational_g
        ) * self.candidate.execution_time_s
        return scaled / self.baseline.tcdp

    def ratio_grid(
        self,
        emb_scales: np.ndarray,
        op_scales: np.ndarray,
    ) -> np.ndarray:
        """Relative tCDP over a grid: shape (len(op_scales), len(emb_scales)).

        Row i, column j is ``ratio(emb_scales[j], op_scales[i])`` — the
        colormap of Fig. 6a (y-axis = operational scale, x = embodied).
        """
        return batched_ratio_grid(
            np.array([self.candidate.embodied_g]),
            np.array([self.candidate.operational_g]),
            self.candidate.execution_time_s,
            self.baseline.tcdp,
            emb_scales,
            op_scales,
        )[0]

    def isoline_emb_scale(self, op_scale: "float | np.ndarray"):
        """The ratio==1 contour: embodied scale x as a function of y.

        Returns NaN where no non-negative x can reach ratio 1 (i.e. the
        scaled operational term alone already exceeds the baseline tCDP).
        """
        y = np.asarray(op_scale, dtype=float)
        target = self.baseline.tcdp / self.candidate.execution_time_s
        with np.errstate(invalid="ignore"):
            x = (target - y * self.candidate.operational_g) / (
                self.candidate.embodied_g
            )
        x = np.where(x >= 0, x, np.nan)
        return float(x) if np.isscalar(op_scale) else x  # repro-lint: disable=RPL013 - scalar-in-scalar-out normalization; array path returned unchanged

    def isoline_op_scale(self, emb_scale: "float | np.ndarray"):
        """The ratio==1 contour solved the other way: y as a function of x."""
        x = np.asarray(emb_scale, dtype=float)
        target = self.baseline.tcdp / self.candidate.execution_time_s
        if self.candidate.operational_g == 0:
            raise CarbonModelError(
                "candidate has zero operational carbon; isoline is vertical"
            )
        y = (target - x * self.candidate.embodied_g) / (
            self.candidate.operational_g
        )
        y = np.where(y >= 0, y, np.nan)
        return float(y) if np.isscalar(emb_scale) else y  # repro-lint: disable=RPL013 - scalar-in-scalar-out normalization; array path returned unchanged

    def candidate_wins(self, emb_scale: float, op_scale: float) -> bool:
        """True in the red region (candidate more carbon-efficient)."""
        return self.ratio(emb_scale, op_scale) < 1.0

    def nominal_point(self) -> Tuple[float, float, float]:
        """(x=1, y=1) and its ratio — where the actual designs sit."""
        return (1.0, 1.0, self.ratio(1.0, 1.0))
