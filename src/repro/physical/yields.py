"""Yield models (Sec. III-B step 5).

The paper demonstrates with fixed yields (90 % for the Si eDRAM process,
50 % for the M3D process) but notes "designers can choose arbitrary yield
models".  Besides :class:`FixedYield` we provide the two classic
defect-density models:

- :class:`PoissonYield` — Y = exp(-A * D0);
- :class:`MurphyYield` — Y = ((1 - exp(-A*D0)) / (A*D0))^2,

with A the die area and D0 the defect density.  For M3D flows, per-tier
defect densities compound multiplicatively (each tier must yield).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import PhysicalDesignError


class YieldModel(abc.ABC):
    """Maps a die area (cm^2) to a yield fraction in (0, 1]."""

    @abc.abstractmethod
    def yield_fraction(self, die_area_cm2: float) -> float:
        """Expected fraction of good dies for the given die area."""

    def _check_area(self, die_area_cm2: float) -> None:
        if not (0 <= die_area_cm2 < math.inf):  # NaN fails both compares
            raise PhysicalDesignError(
                f"die area must be finite and >= 0, got {die_area_cm2}"
            )


@dataclass(frozen=True)
class FixedYield(YieldModel):
    """Area-independent yield (the paper's demonstration model)."""

    value: float

    def __post_init__(self) -> None:
        if not (0.0 < self.value <= 1.0):
            raise PhysicalDesignError(f"yield must be in (0, 1], got {self.value}")

    def yield_fraction(self, die_area_cm2: float) -> float:
        self._check_area(die_area_cm2)
        return self.value


@dataclass(frozen=True)
class PoissonYield(YieldModel):
    """Poisson defect model: Y = exp(-A * D0).

    Args:
        defect_density_per_cm2: D0, defects per cm^2.
    """

    defect_density_per_cm2: float

    def __post_init__(self) -> None:
        if not (0 <= self.defect_density_per_cm2 < math.inf):
            raise PhysicalDesignError("defect density must be finite and >= 0")

    def yield_fraction(self, die_area_cm2: float) -> float:
        self._check_area(die_area_cm2)
        return math.exp(-die_area_cm2 * self.defect_density_per_cm2)


@dataclass(frozen=True)
class MurphyYield(YieldModel):
    """Murphy's yield model: Y = ((1 - e^(-A D0)) / (A D0))^2."""

    defect_density_per_cm2: float

    def __post_init__(self) -> None:
        if not (0 <= self.defect_density_per_cm2 < math.inf):
            raise PhysicalDesignError("defect density must be finite and >= 0")

    def yield_fraction(self, die_area_cm2: float) -> float:
        self._check_area(die_area_cm2)
        ad0 = die_area_cm2 * self.defect_density_per_cm2
        # Exact-zero guard for the A*D0 -> 0 limit (yield -> 1); any
        # nonzero product takes the closed form below.
        if ad0 == 0.0:  # repro-lint: disable=RPL004 - exact limit guard
            return 1.0
        # expm1 avoids the catastrophic cancellation of 1 - e^-x at
        # small x (where the naive form underflows toward 0).
        return (-math.expm1(-ad0) / ad0) ** 2


@dataclass(frozen=True)
class CompoundTierYield(YieldModel):
    """M3D yield: the product of per-tier yield models.

    Every tier of a monolithic-3D stack must be defect-free for the die to
    work, so tier yields multiply.  This captures the paper's qualitative
    point that the M3D process's relative immaturity/complexity lowers
    yield.
    """

    tiers: Sequence[YieldModel]

    def __post_init__(self) -> None:
        if not self.tiers:
            raise PhysicalDesignError("need at least one tier")

    def yield_fraction(self, die_area_cm2: float) -> float:
        self._check_area(die_area_cm2)
        result = 1.0
        for tier in self.tiers:
            result *= tier.yield_fraction(die_area_cm2)
        return result
