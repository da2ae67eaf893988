"""Tests for the tCDP trade-off map and isoline (Fig. 6a)."""

import numpy as np
import pytest

from repro.core.isoline import TcdpOperatingPoint, TcdpTradeoffMap
from repro.errors import CarbonModelError


@pytest.fixture
def tradeoff_map():
    """Paper-scale operating points at 24 months (US grid)."""
    m3d = TcdpOperatingPoint(embodied_g=3.63, operational_g=4.70)
    si = TcdpOperatingPoint(embodied_g=3.11, operational_g=5.39)
    return TcdpTradeoffMap(candidate=m3d, baseline=si)


class TestOperatingPoint:
    def test_totals(self):
        p = TcdpOperatingPoint(3.0, 4.0, execution_time_s=2.0)
        assert p.total_g == 7.0
        assert p.tcdp == 14.0

    def test_validation(self):
        with pytest.raises(CarbonModelError):
            TcdpOperatingPoint(-1.0, 0.0)
        with pytest.raises(CarbonModelError):
            TcdpOperatingPoint(1.0, 1.0, execution_time_s=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["embodied_g", "operational_g", "execution_time_s"]
    )
    def test_non_finite_values_rejected(self, field, bad):
        values = {"embodied_g": 1.0, "operational_g": 1.0, "execution_time_s": 1.0}
        with pytest.raises(CarbonModelError, match="finite"):
            TcdpOperatingPoint(**{**values, field: bad})


class TestRatio:
    def test_nominal_point_matches_paper(self, tradeoff_map):
        x, y, ratio = tradeoff_map.nominal_point()
        assert (x, y) == (1.0, 1.0)
        assert ratio == pytest.approx(8.33 / 8.50, abs=0.005)
        assert ratio < 1.0  # M3D wins at 24 months

    def test_ratio_linear_in_scales(self, tradeoff_map):
        r1 = tradeoff_map.ratio(1.0, 1.0)
        r2 = tradeoff_map.ratio(2.0, 2.0)
        assert r2 == pytest.approx(2 * r1)

    def test_higher_embodied_hurts(self, tradeoff_map):
        assert tradeoff_map.ratio(2.0, 1.0) > tradeoff_map.ratio(1.0, 1.0)

    def test_lower_operational_helps(self, tradeoff_map):
        assert tradeoff_map.ratio(1.0, 0.5) < tradeoff_map.ratio(1.0, 1.0)

    def test_negative_scales_rejected(self, tradeoff_map):
        with pytest.raises(CarbonModelError):
            tradeoff_map.ratio(-0.1, 1.0)


class TestRatioGrid:
    def test_grid_matches_pointwise(self, tradeoff_map):
        xs = np.linspace(0.0, 2.0, 5)
        ys = np.linspace(0.0, 2.0, 7)
        grid = tradeoff_map.ratio_grid(xs, ys)
        assert grid.shape == (7, 5)
        for i, y in enumerate(ys):
            for j, x in enumerate(xs):
                assert grid[i, j] == pytest.approx(tradeoff_map.ratio(x, y))

    def test_grid_monotone(self, tradeoff_map):
        xs = np.linspace(0.1, 3.0, 10)
        ys = np.linspace(0.1, 3.0, 10)
        grid = tradeoff_map.ratio_grid(xs, ys)
        assert np.all(np.diff(grid, axis=1) > 0)  # worse with embodied
        assert np.all(np.diff(grid, axis=0) > 0)  # worse with operational


class TestIsoline:
    def test_isoline_points_have_ratio_one(self, tradeoff_map):
        ys = np.linspace(0.1, 1.5, 7)
        xs = tradeoff_map.isoline_emb_scale(ys)
        for x, y in zip(xs, ys):
            if not np.isnan(x):
                assert tradeoff_map.ratio(float(x), float(y)) == pytest.approx(1.0)

    def test_isoline_slopes_down(self, tradeoff_map):
        """More operational carbon leaves less embodied budget."""
        ys = np.linspace(0.1, 1.5, 7)
        xs = tradeoff_map.isoline_emb_scale(ys)
        valid = xs[~np.isnan(xs)]
        assert np.all(np.diff(valid) < 0)

    def test_isoline_nan_when_unreachable(self, tradeoff_map):
        # Operational term alone exceeds baseline tCDP at huge y.
        assert np.isnan(tradeoff_map.isoline_emb_scale(100.0))

    def test_inverse_isoline_consistent(self, tradeoff_map):
        y = 0.8
        x = tradeoff_map.isoline_emb_scale(y)
        y_back = tradeoff_map.isoline_op_scale(x)
        assert y_back == pytest.approx(y)

    def test_nominal_point_inside_win_region(self, tradeoff_map):
        """At 24 months the (1,1) point sits in the M3D-wins region."""
        assert tradeoff_map.candidate_wins(1.0, 1.0)
        # The isoline at y=1 lies slightly right of x=1.
        x_iso = tradeoff_map.isoline_emb_scale(1.0)
        assert x_iso > 1.0

    def test_zero_operational_candidate(self):
        m = TcdpTradeoffMap(
            TcdpOperatingPoint(2.0, 0.0), TcdpOperatingPoint(1.0, 1.0)
        )
        with pytest.raises(CarbonModelError):
            m.isoline_op_scale(1.0)
        assert m.isoline_emb_scale(5.0) == pytest.approx(1.0)
