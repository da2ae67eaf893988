"""Die-per-wafer estimation (Equation 5 input).

The paper uses a die-per-wafer estimator [39] with horizontal & vertical
scribe spacing of 0.1 mm, edge clearance of 5 mm, and flat/notch height of
10 mm.  Two estimators are provided:

- :func:`dies_per_wafer` — the analytic formula

      DPW = pi*d'^2 / (4*S) - pi*d' / sqrt(2*S)

  with d' the wafer diameter reduced by the edge clearance and
  S = (H + s)(W + s) the scribed die area.  With the paper's parameters it
  reproduces the published counts (299,127 all-Si, 606,238 M3D) to
  < 0.15 %:

  ==========================================  =======  =========
  die                                         count    residual
  ==========================================  =======  =========
  Table II all-Si, 0.270 x 0.515 mm           298,996  -0.044 %
  Table II M3D, 0.159 x 0.334 mm              606,102  -0.022 %
  floorplanned all-Si (``build_case_study``)  298,934  -0.065 %
  floorplanned M3D (``build_case_study``)     607,113  +0.144 %
  ==========================================  =======  =========

- :func:`dies_per_wafer_grid` — an exact rectangle-packing count on a
  grid, with optional notch exclusion; useful for large dies where the
  analytic formula's edge correction is inaccurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import PhysicalDesignError


@dataclass(frozen=True)
class DieGeometry:
    """Die and wafer geometry, all lengths in millimeters.

    Defaults follow Sec. III-B step 5 of the paper.
    """

    die_height_mm: float
    die_width_mm: float
    scribe_mm: float = 0.1
    wafer_diameter_mm: float = 300.0
    edge_clearance_mm: float = 5.0
    notch_height_mm: float = 10.0

    def __post_init__(self) -> None:
        # Written so that NaN fails each check (every comparison with NaN
        # is False); the math.inf bound rejects infinities.
        sizes = (self.die_height_mm, self.die_width_mm, self.wafer_diameter_mm)
        if not all(0 < size < math.inf for size in sizes):
            raise PhysicalDesignError(f"sizes must be finite and > 0: {sizes}")
        gaps = (self.scribe_mm, self.edge_clearance_mm, self.notch_height_mm)
        if not all(0 <= gap < math.inf for gap in gaps):
            raise PhysicalDesignError(f"spacings must be finite and >= 0: {gaps}")
        usable = self.wafer_diameter_mm - self.edge_clearance_mm
        if usable <= max(self.pitch_height_mm, self.pitch_width_mm):
            raise PhysicalDesignError(
                "usable wafer diameter smaller than one die pitch"
            )

    @property
    def pitch_height_mm(self) -> float:
        """Die height plus scribe: the vertical placement pitch."""
        return self.die_height_mm + self.scribe_mm

    @property
    def pitch_width_mm(self) -> float:
        return self.die_width_mm + self.scribe_mm

    @property
    def scribed_area_mm2(self) -> float:
        """S = (H + s)(W + s), the area each die occupies on the wafer."""
        return self.pitch_height_mm * self.pitch_width_mm

    @property
    def die_area_mm2(self) -> float:
        return self.die_height_mm * self.die_width_mm

    @property
    def usable_diameter_mm(self) -> float:
        """Wafer diameter reduced by the edge clearance."""
        return self.wafer_diameter_mm - self.edge_clearance_mm


def dies_per_wafer(geometry: DieGeometry) -> int:
    """Analytic die-per-wafer count (anysilicon-style formula [39]).

    >>> g = DieGeometry(die_height_mm=0.270, die_width_mm=0.515)
    >>> dies_per_wafer(g)  # paper: 299,127
    298996
    """
    d = geometry.usable_diameter_mm
    s = geometry.scribed_area_mm2
    count = math.pi * d * d / (4.0 * s) - math.pi * d / math.sqrt(2.0 * s)
    return max(0, int(count))


def dies_per_wafer_grid(
    geometry: DieGeometry,
    exclude_notch: bool = True,
) -> int:
    """Exact grid-packing die count.

    Places a rectangular grid of die pitches with a corner at the wafer
    center and counts dies whose four corners all fall inside the usable
    circle, excluding a flat/notch band of ``notch_height_mm`` at the
    bottom when ``exclude_notch``.
    """
    radius = geometry.usable_diameter_mm / 2.0
    ph, pw = geometry.pitch_height_mm, geometry.pitch_width_mm
    notch_y = (
        -radius + geometry.notch_height_mm if exclude_notch else -radius - 1.0
    )

    def inside(x: float, y: float) -> bool:
        return x * x + y * y <= radius * radius and y >= notch_y

    count = 0
    n_cols = int(math.ceil(2.0 * radius / pw)) + 2
    n_rows = int(math.ceil(2.0 * radius / ph)) + 2
    for i in range(-n_cols, n_cols + 1):
        x0 = i * pw
        x1 = x0 + pw
        if max(abs(x0), abs(x1)) > radius:
            continue
        for j in range(-n_rows, n_rows + 1):
            y0 = j * ph
            y1 = y0 + ph
            if inside(x0, y0) and inside(x0, y1) and inside(x1, y0) and inside(
                x1, y1
            ):
                count += 1
    return count


def good_dies_per_wafer(geometry: DieGeometry, yield_fraction: float) -> float:
    """Expected number of good dies per wafer."""
    if not (0.0 < yield_fraction <= 1.0):
        raise PhysicalDesignError(
            f"yield must be in (0, 1], got {yield_fraction}"
        )
    return dies_per_wafer(geometry) * yield_fraction
