"""Tests for the uncertainty analysis (Fig. 6b)."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.isoline import batched_ratio_grid
from repro.core.uncertainty import (
    IsolineUncertaintyAnalysis,
    MonteCarloSamples,
    ScenarioParameters,
    _mc_chunk_win_counts,
    batched_scenario_components,
    draw_monte_carlo_samples,
    monte_carlo_win_probability,
    paper_perturbations,
)
from repro.errors import CarbonModelError


def legacy_win_probability(nominal, emb_scales, op_scales, n_samples, rng):
    """The per-sample reference loop: rebuild :class:`ScenarioParameters`
    for each drawn sample and threshold its ``ratio_grid``."""
    x = np.asarray(emb_scales, dtype=float)
    y = np.asarray(op_scales, dtype=float)
    samples = draw_monte_carlo_samples(nominal, n_samples, rng=rng)
    wins = np.zeros((y.size, x.size), dtype=float)
    for i in range(samples.n):
        params = replace(
            nominal,
            lifetime_months=float(samples.lifetime_months[i]),
            ci_use_scale=nominal.ci_use_scale * float(samples.ci_scales[i]),
            candidate_yield=float(samples.yields[i]),
        )
        ratio = params.tradeoff_map().ratio_grid(x, y)
        wins += (ratio < 1.0).astype(float)
    return wins / n_samples


def sample_components(nominal, samples):
    """Per-sample (cand_emb, cand_op, base_tcdp), as the sweep builds them."""
    with np.errstate(all="ignore"):
        cand_emb, cand_op, base_emb, base_op = batched_scenario_components(
            nominal.candidate_wafer_g,
            nominal.candidate_dies_per_wafer,
            samples.yields,
            nominal.candidate_op_per_month_g,
            nominal.baseline_wafer_g,
            nominal.baseline_dies_per_wafer,
            nominal.baseline_yield,
            nominal.baseline_op_per_month_g,
            samples.lifetime_months,
            nominal.ci_use_scale * samples.ci_scales,
        )
        return cand_emb, cand_op, (base_emb + base_op) * 1.0


def dense_win_counts(nominal, x, y, samples):
    """The dense oracle: threshold the whole (samples, y, x) ratio tensor."""
    cand_emb, cand_op, base_tcdp = sample_components(nominal, samples)
    with np.errstate(all="ignore"):
        ratios = batched_ratio_grid(
            cand_emb, cand_op, nominal.execution_time_ratio, base_tcdp, x, y
        )
    return np.count_nonzero(ratios < 1.0, axis=0)


#: Paper case-study parameters at 24 months, US grid.
NOMINAL = ScenarioParameters(
    candidate_wafer_g=1100300.0,
    candidate_dies_per_wafer=606238.0,
    candidate_yield=0.50,
    candidate_op_per_month_g=0.1957,
    baseline_wafer_g=837060.0,
    baseline_dies_per_wafer=299127.0,
    baseline_yield=0.90,
    baseline_op_per_month_g=0.2246,
    lifetime_months=24.0,
)


@pytest.fixture
def nominal():
    return NOMINAL


class TestScenarioParameters:
    def test_points_reproduce_paper(self, nominal):
        c = nominal.candidate_point()
        b = nominal.baseline_point()
        assert c.embodied_g == pytest.approx(3.63, abs=0.01)
        assert b.embodied_g == pytest.approx(3.11, abs=0.01)
        assert c.operational_g == pytest.approx(4.70, abs=0.01)
        assert b.operational_g == pytest.approx(5.39, abs=0.01)

    def test_nominal_map_favors_candidate(self, nominal):
        assert nominal.tradeoff_map().ratio(1.0, 1.0) < 1.0

    def test_validation(self, nominal):
        from dataclasses import replace

        with pytest.raises(CarbonModelError):
            replace(nominal, candidate_yield=0.0)
        with pytest.raises(CarbonModelError):
            replace(nominal, lifetime_months=-1.0)
        with pytest.raises(CarbonModelError):
            replace(nominal, ci_use_scale=-0.5)

    @pytest.mark.parametrize(
        "field",
        [
            "lifetime_months",
            "ci_use_scale",
            "candidate_wafer_g",
            "candidate_op_per_month_g",
            "baseline_wafer_g",
            "baseline_op_per_month_g",
            "candidate_dies_per_wafer",
            "baseline_dies_per_wafer",
            "execution_time_ratio",
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_out_of_domain_scalars_rejected(self, nominal, field, bad):
        from dataclasses import replace

        with pytest.raises(CarbonModelError):
            replace(nominal, **{field: bad})

    @pytest.mark.parametrize(
        "field",
        ["candidate_dies_per_wafer", "baseline_dies_per_wafer", "execution_time_ratio"],
    )
    def test_zero_divisors_rejected(self, nominal, field):
        with pytest.raises(CarbonModelError, match="> 0"):
            replace(nominal, **{field: 0.0})

    @pytest.mark.parametrize(
        "changes",
        [
            {"candidate_yield": 5e-324},
            {"baseline_yield": 5e-324},
            {"lifetime_months": 1e300, "candidate_op_per_month_g": 1e10},
        ],
    )
    def test_finite_inputs_with_infinite_carbon_rejected(self, nominal, changes):
        """Each input is in range, but a derived component overflows."""
        with pytest.raises(CarbonModelError, match="finite"):
            replace(nominal, **changes)


class TestPaperPerturbations:
    def test_six_perturbations(self):
        perts = paper_perturbations()
        assert len(perts) == 6
        names = [p.name for p in perts]
        assert any("lifetime +6" in n for n in names)
        assert any("CI_use x3" in n for n in names)
        assert any("10%" in n for n in names)

    def test_perturbations_change_parameters(self, nominal):
        for pert in paper_perturbations():
            changed = pert.apply(nominal)
            assert changed != nominal

    def test_lifetime_never_negative(self, nominal):
        from dataclasses import replace

        short = replace(nominal, lifetime_months=2.0)
        minus = [
            p for p in paper_perturbations() if p.name.startswith("lifetime -")
        ][0]
        assert minus.apply(short).lifetime_months == 0.0


class TestIsolineFamilies:
    def test_isolines_for_all_perturbations(self, nominal):
        analysis = IsolineUncertaintyAnalysis(nominal)
        ys = np.linspace(0.1, 1.2, 5)
        isolines = analysis.isolines(ys)
        assert set(isolines) == {
            "nominal",
            "lifetime +6 mo",
            "lifetime -6 mo",
            "CI_use x3",
            "CI_use /3",
            "M3D yield 10%",
            "M3D yield 90%",
        }
        for arr in isolines.values():
            assert arr.shape == ys.shape

    def test_longer_lifetime_moves_isoline_right(self, nominal):
        """More use time -> more embodied budget for the efficient design."""
        analysis = IsolineUncertaintyAnalysis(nominal)
        iso = analysis.isolines(np.array([0.5]))
        assert iso["lifetime +6 mo"][0] > iso["nominal"][0]
        assert iso["lifetime -6 mo"][0] < iso["nominal"][0]

    def test_higher_yield_moves_isoline_right(self, nominal):
        """Better M3D yield shrinks its per-good-die embodied carbon,
        letting it tolerate a larger embodied scale."""
        analysis = IsolineUncertaintyAnalysis(nominal)
        iso = analysis.isolines(np.array([0.5]))
        assert iso["M3D yield 90%"][0] > iso["nominal"][0]
        assert iso["M3D yield 10%"][0] < iso["nominal"][0]

    def test_robust_regions_partition_grid(self, nominal):
        analysis = IsolineUncertaintyAnalysis(nominal)
        xs = np.linspace(0.1, 3.0, 12)
        ys = np.linspace(0.1, 3.0, 10)
        regions = analysis.robust_regions(xs, ys)
        total = (
            regions["candidate_always"].astype(int)
            + regions["baseline_always"].astype(int)
            + regions["uncertain"].astype(int)
        )
        assert np.all(total == 1)

    def test_extreme_corners_are_robust(self, nominal):
        """Tiny embodied+operational: candidate always wins; huge: never."""
        analysis = IsolineUncertaintyAnalysis(nominal)
        regions = analysis.robust_regions(
            np.array([0.01, 10.0]), np.array([0.01, 10.0])
        )
        assert regions["candidate_always"][0, 0]
        assert regions["baseline_always"][1, 1]

    def test_uncertain_band_exists(self, nominal):
        analysis = IsolineUncertaintyAnalysis(nominal)
        xs = np.linspace(0.1, 3.0, 40)
        ys = np.linspace(0.1, 3.0, 40)
        regions = analysis.robust_regions(xs, ys)
        assert regions["uncertain"].any()


class TestMonteCarlo:
    def test_probabilities_in_unit_interval(self, nominal):
        xs = np.linspace(0.5, 2.0, 4)
        ys = np.linspace(0.5, 2.0, 4)
        p = monte_carlo_win_probability(nominal, xs, ys, n_samples=50)
        assert p.shape == (4, 4)
        assert np.all((0.0 <= p) & (p <= 1.0))

    def test_deterministic_with_seed(self, nominal):
        xs = np.array([1.0])
        ys = np.array([1.0])
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        p1 = monte_carlo_win_probability(nominal, xs, ys, 30, rng=rng1)
        p2 = monte_carlo_win_probability(nominal, xs, ys, 30, rng=rng2)
        assert p1 == pytest.approx(p2)

    def test_extremes_are_certain(self, nominal):
        p = monte_carlo_win_probability(
            nominal, np.array([0.001, 50.0]), np.array([0.001, 50.0]), 100
        )
        assert p[0, 0] == pytest.approx(1.0)
        assert p[1, 1] == pytest.approx(0.0)

    def test_probability_decreases_with_embodied_scale(self, nominal):
        xs = np.array([0.5, 1.0, 2.0, 4.0])
        p = monte_carlo_win_probability(nominal, xs, np.array([1.0]), 200)
        row = p[0]
        assert all(row[i] >= row[i + 1] for i in range(len(row) - 1))

    def test_bad_sample_count(self, nominal):
        with pytest.raises(CarbonModelError):
            monte_carlo_win_probability(
                nominal, np.array([1.0]), np.array([1.0]), 0
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"yield_low": -0.5},
            {"yield_low": 0.0, "yield_high": 0.0},
            {"yield_high": 3.0},
            {"yield_low": 0.9, "yield_high": 0.1},
            {"yield_low": float("nan")},
            {"lifetime_sigma_months": float("nan")},
            {"lifetime_sigma_months": -1.0},
            {"ci_log_sigma": float("inf")},
        ],
    )
    def test_bad_sampling_distribution(self, nominal, kwargs):
        with pytest.raises(CarbonModelError):
            monte_carlo_win_probability(
                nominal, np.array([1.0]), np.array([1.0]), 10, **kwargs
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("axis", ["emb", "op"])
    def test_bad_axis_entry(self, nominal, axis, bad):
        good = np.array([0.5, 1.0])
        broken = np.array([0.5, bad])
        xs, ys = (broken, good) if axis == "emb" else (good, broken)
        with pytest.raises(CarbonModelError, match="finite"):
            monte_carlo_win_probability(nominal, xs, ys, 10)


@pytest.mark.smoke
class TestBatchedEngineEquivalence:
    """The batched Monte Carlo engine vs the legacy per-sample loop."""

    XS = np.linspace(0.05, 2.0, 9)
    YS = np.linspace(0.05, 2.0, 7)

    def test_batched_bit_identical_to_legacy(self, nominal):
        """Seeded-RNG equivalence: not approx — bit-for-bit equal."""
        fast = monte_carlo_win_probability(
            nominal, self.XS, self.YS, 200, rng=np.random.default_rng(7)
        )
        slow = legacy_win_probability(
            nominal, self.XS, self.YS, 200, rng=np.random.default_rng(7)
        )
        assert np.array_equal(fast, slow)

    def test_chunking_does_not_change_results(self, nominal):
        rng = lambda: np.random.default_rng(11)  # noqa: E731
        whole = monte_carlo_win_probability(
            nominal, self.XS, self.YS, 100, rng=rng()
        )
        chunked = monte_carlo_win_probability(
            nominal, self.XS, self.YS, 100, rng=rng(), chunk_size=7
        )
        assert np.array_equal(whole, chunked)

    def test_parallel_bit_identical_to_serial(self, nominal):
        serial = monte_carlo_win_probability(
            nominal, self.XS, self.YS, 100, rng=np.random.default_rng(3),
            jobs=1,
        )
        fanned = monte_carlo_win_probability(
            nominal, self.XS, self.YS, 100, rng=np.random.default_rng(3),
            jobs=2, chunk_size=25,
        )
        assert np.array_equal(serial, fanned)

    def test_sweep_cache_hit_returns_identical_grid(self, nominal, tmp_path):
        from repro.runtime.cache import SweepCache

        cache = SweepCache(root=tmp_path)
        first = monte_carlo_win_probability(
            nominal, self.XS, self.YS, 60, rng=np.random.default_rng(5),
            cache=cache,
        )
        assert (cache.hits, cache.misses) == (0, 1)
        second = monte_carlo_win_probability(
            nominal, self.XS, self.YS, 60, rng=np.random.default_rng(5),
            cache=cache,
        )
        assert (cache.hits, cache.misses) == (1, 1)
        assert np.array_equal(first, second)

    def test_sweep_cache_distinguishes_parameters(self, nominal, tmp_path):
        from dataclasses import replace

        from repro.runtime.cache import SweepCache

        cache = SweepCache(root=tmp_path)
        monte_carlo_win_probability(
            nominal, self.XS, self.YS, 40, rng=np.random.default_rng(5),
            cache=cache,
        )
        other = replace(nominal, lifetime_months=36.0)
        monte_carlo_win_probability(
            other, self.XS, self.YS, 40, rng=np.random.default_rng(5),
            cache=cache,
        )
        assert cache.misses == 2


scales = st.one_of(
    st.floats(0.0, 4.0),
    st.sampled_from([0.0, -0.0, 1.0]),
    st.floats(0.0, 1e300),
)


@st.composite
def chunk_payloads(draw):
    """A sample chunk and two scale axes for ``_mc_chunk_win_counts``.

    The axes are unsorted, may repeat entries, mix 0.0 and -0.0, and get
    a cluster of values a few ulps either side of one sample's
    break-even.  Zero wafer carbon (emb = 0), a random execution-time
    ratio, and samples whose carbon overflows are drawn too.
    """
    nominal = replace(
        NOMINAL,
        execution_time_ratio=draw(st.floats(0.5, 2.0)),
        candidate_wafer_g=draw(st.sampled_from([NOMINAL.candidate_wafer_g, 0.0])),
    )
    drawn = draw_monte_carlo_samples(
        nominal,
        draw(st.integers(1, 40)),
        rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
    )
    # (lifetime, CI scale, yield) triples that can overflow float64.
    extreme = draw(
        st.lists(
            st.tuples(
                st.floats(1e-3, 1e308),
                st.floats(0.0, np.inf),
                st.floats(5e-324, 1.0),
            ),
            max_size=3,
        )
    )
    samples = MonteCarloSamples(
        *(
            np.concatenate([column, [row[c] for row in extreme]])
            for c, column in enumerate(
                (drawn.lifetime_months, drawn.ci_scales, drawn.yields)
            )
        )
    )
    y = np.array(draw(st.lists(scales, min_size=1, max_size=6)))
    x = draw(st.lists(scales, min_size=1, max_size=8))
    s = draw(st.integers(0, samples.n - 1))
    i = draw(st.integers(0, y.size - 1))
    cand_emb, cand_op, base_tcdp = sample_components(nominal, samples)
    with np.errstate(all="ignore"):
        t = nominal.execution_time_ratio
        edge = (base_tcdp[s] / t - y[i] * cand_op[s]) / cand_emb[s]
    if 0.0 <= edge < np.inf:
        below = above = edge
        x.append(edge)
        for _ in range(3):
            below = np.nextafter(below, 0.0)
            above = np.nextafter(above, np.inf)
            x += [below, above]
    x += draw(st.lists(st.sampled_from(x), max_size=4))
    return nominal, np.array(draw(st.permutations(x)), dtype=float), y, samples


@pytest.mark.smoke
class TestBreakEvenCounts:
    """The threshold-count kernel against the dense ratio tensor."""

    @given(chunk_payloads())
    def test_counts_equal_dense_oracle(self, payload):
        nominal, x, y, samples = payload
        got = _mc_chunk_win_counts(payload)
        want = dense_win_counts(nominal, x, y, samples)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_overflowed_samples_lose_like_the_dense_tensor(self):
        """An infinite CI scale makes both the candidate and the baseline
        tCDP infinite, so the break-even guess is NaN and the bisection
        settles the sample; it loses everywhere, as in the tensor."""
        samples = MonteCarloSamples(
            np.array([24.0, 1e308, 24.0, 24.0]),
            np.array([np.inf, 1.0, 0.0, 1.0]),
            np.array([0.5, 0.5, 0.5, 5e-324]),
        )
        x = np.array([2.0, 0.0, 0.5, 1e300, 0.5])
        y = np.array([0.0, 1.0, 3.0])
        got = _mc_chunk_win_counts((NOMINAL, x, y, samples))
        assert np.array_equal(got, dense_win_counts(NOMINAL, x, y, samples))

    def test_empty_emb_axis(self):
        samples = draw_monte_carlo_samples(NOMINAL, 5)
        got = _mc_chunk_win_counts((NOMINAL, np.array([]), np.ones(3), samples))
        assert got.shape == (3, 0)


@pytest.fixture(scope="module")
def case_parameters():
    from repro.analysis.case_study import build_case_study
    from repro.analysis.sensitivity import case_study_parameters

    return case_study_parameters(build_case_study())


class TestPinnedWinMaps:
    """Win maps of the case study: 2000 samples on a 40 x 40 grid.

    The sha256 prefixes are copied from ``bench/references.json``
    (``model_sweep`` ``mc_digests``, seeds 0-2), against which the
    ``model_sweep`` benchmark checks every Monte Carlo run.
    """

    DIGESTS = {0: "13aabde595135ba5", 1: "30d86916b248c57a", 2: "2e894e16b1c8f5c8"}

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_win_map_digest(self, case_parameters, seed):
        axis = np.linspace(0.05, 2.0, 40)
        win = monte_carlo_win_probability(
            case_parameters, axis, axis, n_samples=2000,
            rng=np.random.default_rng(seed),
        )
        digest = hashlib.sha256(
            np.ascontiguousarray(win, dtype=np.float64).tobytes()
        ).hexdigest()
        assert digest[:16] == self.DIGESTS[seed]


class TestSampleDraws:
    def test_draw_shapes_and_bounds(self, nominal):
        samples = draw_monte_carlo_samples(
            nominal, 500, rng=np.random.default_rng(0)
        )
        assert samples.n == 500
        for arr in (
            samples.lifetime_months, samples.ci_scales, samples.yields
        ):
            assert arr.shape == (500,)
        assert np.all(samples.lifetime_months >= 0.0)
        assert np.all(samples.ci_scales > 0.0)
        assert np.all((0.10 <= samples.yields) & (samples.yields <= 0.90))

    def test_draws_deterministic_under_seed(self, nominal):
        a = draw_monte_carlo_samples(
            nominal, 64, rng=np.random.default_rng(9)
        )
        b = draw_monte_carlo_samples(
            nominal, 64, rng=np.random.default_rng(9)
        )
        assert np.array_equal(a.lifetime_months, b.lifetime_months)
        assert np.array_equal(a.ci_scales, b.ci_scales)
        assert np.array_equal(a.yields, b.yields)

    def test_chunk_slices_all_arrays(self, nominal):
        samples = draw_monte_carlo_samples(
            nominal, 10, rng=np.random.default_rng(0)
        )
        part = samples.chunk(2, 7)
        assert part.n == 5
        assert np.array_equal(part.yields, samples.yields[2:7])

    def test_validation(self, nominal):
        with pytest.raises(CarbonModelError):
            draw_monte_carlo_samples(nominal, 0)
        with pytest.raises(CarbonModelError):
            MonteCarloSamples(
                np.zeros(3), np.ones(2), np.full(3, 0.5)
            )


@pytest.mark.smoke
class TestNominalMapReuse:
    """The nominal trade-off map is built once and shared (bugfix)."""

    def test_tradeoff_map_is_memoized(self, nominal):
        assert nominal.tradeoff_map() is nominal.tradeoff_map()

    def test_analysis_reuses_nominal_map(self, nominal):
        analysis = IsolineUncertaintyAnalysis(nominal)
        assert analysis._nominal_map is nominal.tradeoff_map()

    def test_robust_regions_identical_to_fresh_reference(self, nominal):
        """Reusing the cached nominal map changes nothing in the output."""
        xs = np.linspace(0.1, 3.0, 12)
        ys = np.linspace(0.1, 3.0, 10)
        regions = IsolineUncertaintyAnalysis(nominal).robust_regions(xs, ys)

        # Reference: rebuild every map from scratch, bypassing the cache.
        from repro.core.uncertainty import _build_tradeoff_map

        grids = [_build_tradeoff_map.__wrapped__(nominal).ratio_grid(xs, ys)]
        for pert in paper_perturbations():
            changed = pert.apply(nominal)
            grids.append(
                _build_tradeoff_map.__wrapped__(changed).ratio_grid(xs, ys)
            )
        wins = np.stack([g < 1.0 for g in grids])
        assert np.array_equal(regions["candidate_always"], wins.all(axis=0))
        assert np.array_equal(regions["baseline_always"], ~wins.any(axis=0))
