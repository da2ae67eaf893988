"""Robust tCDP comparison under carbon-accounting uncertainty (Fig. 6b).

Section III-D: the tCDP isoline moves when the underlying assumptions move
— system lifetime (+/- 6 months), CI_use (x3 / /3), and M3D yield
(10 % / 90 %).  This module provides:

- :class:`ParameterPerturbation` — a named change to the scenario
  parameters;
- :class:`IsolineUncertaintyAnalysis` — rebuilds the trade-off map under
  each perturbation and reports the family of isolines, plus the
  *robust-win regions*: points where one design is better under every
  perturbation considered;
- :func:`monte_carlo_win_probability` — samples parameter distributions
  and estimates, per (x, y) grid point, the probability that the candidate
  design has better tCDP.

The Monte Carlo is *batched*: all samples are drawn up front with the
NumPy generator (:func:`draw_monte_carlo_samples`), and each sample's
break-even column on the sorted ``emb_scales`` axis is found per
``op_scales`` row instead of building the ``(samples, op_scales,
emb_scales)`` ratio tensor; the win counts are bit-identical to
thresholding that tensor.  Chunks optionally fan out over the
:mod:`repro.runtime.parallel` process pool, and sweeps are memoized
through a :class:`repro.runtime.cache.SweepCache`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import obs
from repro.core.isoline import TcdpOperatingPoint, TcdpTradeoffMap
from repro.errors import CarbonModelError

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.cache import SweepCache


#: The domain of each :class:`ScenarioParameters` field; NaN is in none.
_FIELD_DOMAINS = (
    ("in (0, 1]", lambda v: 0 < v <= 1, ("candidate_yield", "baseline_yield")),
    (
        "finite and >= 0",
        lambda v: 0 <= v < np.inf,
        ("candidate_wafer_g", "candidate_op_per_month_g", "baseline_wafer_g",
         "baseline_op_per_month_g", "lifetime_months", "ci_use_scale"),
    ),
    (
        "finite and > 0",
        lambda v: 0 < v < np.inf,
        ("candidate_dies_per_wafer", "baseline_dies_per_wafer", "execution_time_ratio"),
    ),
)


@dataclass(frozen=True)
class ScenarioParameters:
    """Everything that determines both designs' carbon components.

    Carbon components are reconstructed from first principles so that a
    perturbation (say, yield) propagates correctly:

    - embodied per good die = wafer carbon / (dies per wafer * yield);
    - operational = ci_use_scale * per-month op carbon * lifetime.
    """

    candidate_wafer_g: float
    candidate_dies_per_wafer: float
    candidate_yield: float
    candidate_op_per_month_g: float
    baseline_wafer_g: float
    baseline_dies_per_wafer: float
    baseline_yield: float
    baseline_op_per_month_g: float
    lifetime_months: float
    ci_use_scale: float = 1.0
    execution_time_ratio: float = 1.0  # candidate time / baseline time

    def __post_init__(self) -> None:
        for domain, contains, names in _FIELD_DOMAINS:
            for name in names:
                value = getattr(self, name)
                if not contains(value):
                    raise CarbonModelError(f"{name} must be {domain}, got {value}")
        # Finite inputs can still leave float64's range: the operating
        # points reject carbon that overflows (a subnormal yield), dies x
        # yield can round to 0, and a tiny baseline tCDP, the divisor of
        # every relative tCDP, can overflow the ratio.
        try:
            candidate, baseline = self.candidate_point(), self.baseline_point()
        except ZeroDivisionError as exc:
            raise CarbonModelError("dies per wafer x yield underflows to 0") from exc
        TcdpTradeoffMap.check_points(candidate, baseline)

    def candidate_point(self) -> TcdpOperatingPoint:
        emb = self.candidate_wafer_g / (
            self.candidate_dies_per_wafer * self.candidate_yield
        )
        op = (
            self.ci_use_scale
            * self.candidate_op_per_month_g
            * self.lifetime_months
        )
        return TcdpOperatingPoint(
            emb, op, execution_time_s=self.execution_time_ratio
        )

    def baseline_point(self) -> TcdpOperatingPoint:
        emb = self.baseline_wafer_g / (
            self.baseline_dies_per_wafer * self.baseline_yield
        )
        op = (
            self.ci_use_scale
            * self.baseline_op_per_month_g
            * self.lifetime_months
        )
        return TcdpOperatingPoint(emb, op, execution_time_s=1.0)

    def tradeoff_map(self) -> TcdpTradeoffMap:
        """The trade-off map for these parameters, memoized.

        Equal parameter sets (the frozen dataclass is hashable) share one
        map instance, so analyses that revisit the nominal scenario per
        perturbation build it exactly once.
        """
        return _build_tradeoff_map(self)


@functools.lru_cache(maxsize=1024)
def _build_tradeoff_map(params: ScenarioParameters) -> TcdpTradeoffMap:
    return TcdpTradeoffMap(params.candidate_point(), params.baseline_point())


@dataclass(frozen=True)
class ParameterPerturbation:
    """A named transformation of :class:`ScenarioParameters`."""

    name: str
    apply: Callable[[ScenarioParameters], ScenarioParameters]


def paper_perturbations(
    lifetime_delta_months: float = 6.0,
    ci_scale: float = 3.0,
    m3d_yield_low: float = 0.10,
    m3d_yield_high: float = 0.90,
) -> List[ParameterPerturbation]:
    """The exact perturbation set of Fig. 6b.

    Six perturbations: lifetime +/- 6 months (red dashed lines), CI_use
    x3 and /3 (green), and candidate (M3D) yield at 10 % and 90 % (purple).
    """
    if ci_scale <= 0:
        raise CarbonModelError("CI scale must be > 0")
    return [
        ParameterPerturbation(
            f"lifetime +{lifetime_delta_months:g} mo",
            lambda p: replace(
                p, lifetime_months=p.lifetime_months + lifetime_delta_months
            ),
        ),
        ParameterPerturbation(
            f"lifetime -{lifetime_delta_months:g} mo",
            lambda p: replace(
                p,
                lifetime_months=max(
                    0.0, p.lifetime_months - lifetime_delta_months
                ),
            ),
        ),
        ParameterPerturbation(
            f"CI_use x{ci_scale:g}",
            lambda p: replace(p, ci_use_scale=p.ci_use_scale * ci_scale),
        ),
        ParameterPerturbation(
            f"CI_use /{ci_scale:g}",
            lambda p: replace(p, ci_use_scale=p.ci_use_scale / ci_scale),
        ),
        ParameterPerturbation(
            f"M3D yield {m3d_yield_low:.0%}",
            lambda p: replace(p, candidate_yield=m3d_yield_low),
        ),
        ParameterPerturbation(
            f"M3D yield {m3d_yield_high:.0%}",
            lambda p: replace(p, candidate_yield=m3d_yield_high),
        ),
    ]


class IsolineUncertaintyAnalysis:
    """Family of tCDP isolines under parameter perturbations (Fig. 6b)."""

    def __init__(
        self,
        nominal: ScenarioParameters,
        perturbations: Optional[Sequence[ParameterPerturbation]] = None,
    ) -> None:
        self.nominal = nominal
        self.perturbations = (
            list(perturbations)
            if perturbations is not None
            else paper_perturbations()
        )
        # The nominal map is perturbation-independent: build it once and
        # reuse it across isolines(), robust_regions(), and repeat calls.
        self._nominal_map = nominal.tradeoff_map()

    def _perturbed_parameters(self) -> List[ScenarioParameters]:
        return [pert.apply(self.nominal) for pert in self.perturbations]

    def isolines(
        self, op_scales: np.ndarray
    ) -> Dict[str, np.ndarray]:
        """Embodied-scale isoline x(y) for nominal + each perturbation."""
        y = np.asarray(op_scales, dtype=float)
        result: Dict[str, np.ndarray] = {
            "nominal": self._nominal_map.isoline_emb_scale(y)
        }
        for pert, params in zip(
            self.perturbations, self._perturbed_parameters()
        ):
            result[pert.name] = params.tradeoff_map().isoline_emb_scale(y)
        return result

    def robust_regions(
        self,
        emb_scales: np.ndarray,
        op_scales: np.ndarray,
    ) -> Dict[str, np.ndarray]:
        """Boolean masks over the (y, x) grid.

        ``candidate_always`` — candidate wins under the nominal scenario
        *and* every perturbation; ``baseline_always`` — candidate loses
        everywhere; the rest is the uncertain band.  These are the
        "regions in which the M3D design maintains better tCDP vs. the
        all-Si design (and vice versa)" of Sec. III-D.
        """
        x = np.asarray(emb_scales, dtype=float)
        y = np.asarray(op_scales, dtype=float)
        nominal_grid = self._nominal_map.ratio_grid(x, y)
        perturbed = [
            params.tradeoff_map().ratio_grid(x, y)
            for params in self._perturbed_parameters()
        ]
        ratios = np.stack([nominal_grid] + perturbed, axis=0)
        candidate_always = np.all(ratios < 1.0, axis=0)
        baseline_always = np.all(ratios >= 1.0, axis=0)
        return {
            "candidate_always": candidate_always,
            "baseline_always": baseline_always,
            "uncertain": ~(candidate_always | baseline_always),
        }


@dataclass(frozen=True)
class MonteCarloSamples:
    """One batch of drawn scenario samples (all arrays of length n)."""

    lifetime_months: np.ndarray
    ci_scales: np.ndarray
    yields: np.ndarray

    def __post_init__(self) -> None:
        n = self.lifetime_months.size
        if self.ci_scales.size != n or self.yields.size != n:
            raise CarbonModelError("sample arrays must share one length")

    @property
    def n(self) -> int:
        return int(self.lifetime_months.size)

    def chunk(self, start: int, stop: int) -> "MonteCarloSamples":
        return MonteCarloSamples(
            self.lifetime_months[start:stop],
            self.ci_scales[start:stop],
            self.yields[start:stop],
        )


def draw_monte_carlo_samples(
    nominal: ScenarioParameters,
    n_samples: int,
    lifetime_sigma_months: float = 3.0,
    ci_log_sigma: float = 0.5,
    yield_low: float = 0.10,
    yield_high: float = 0.90,
    rng: Optional[np.random.Generator] = None,
) -> MonteCarloSamples:
    """Draw every sample for one Monte Carlo sweep in three batched calls.

    Lifetime ~ Normal(nominal, sigma) truncated at > 0, CI_use scale ~
    LogNormal(0, ci_log_sigma), candidate yield ~ Uniform[low, high].
    Drawing is separated from evaluation so the sweep, its chunked
    parallel path, the sweep cache, and the test oracles all consume the
    *same* sample set for a given generator state.
    """
    if n_samples <= 0:
        raise CarbonModelError(f"n_samples must be > 0, got {n_samples}")
    if not 0.0 < yield_low <= yield_high <= 1.0:  # NaN fails
        raise CarbonModelError(f"bad yield range [{yield_low}, {yield_high}]")
    if not (0.0 <= lifetime_sigma_months < np.inf and 0.0 <= ci_log_sigma < np.inf):
        raise CarbonModelError(f"bad sigmas {lifetime_sigma_months}, {ci_log_sigma}")
    if rng is None:
        rng = np.random.default_rng(0)
    lifetimes = np.maximum(
        1e-3,
        rng.normal(
            nominal.lifetime_months, lifetime_sigma_months, size=n_samples
        ),
    )
    ci_scales = np.exp(rng.normal(0.0, ci_log_sigma, size=n_samples))
    yields = rng.uniform(yield_low, yield_high, size=n_samples)
    return MonteCarloSamples(lifetimes, ci_scales, yields)


def batched_scenario_components(
    candidate_wafer_g: "float | np.ndarray",
    candidate_dies_per_wafer: "float | np.ndarray",
    candidate_yields: "float | np.ndarray",
    candidate_op_per_month_g: "float | np.ndarray",
    baseline_wafer_g: "float | np.ndarray",
    baseline_dies_per_wafer: "float | np.ndarray",
    baseline_yield: "float | np.ndarray",
    baseline_op_per_month_g: "float | np.ndarray",
    lifetime_months: "float | np.ndarray",
    ci_use_scales: "float | np.ndarray",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Carbon components for a batch of scenarios, as four arrays.

    Returns ``(cand_embodied_g, cand_operational_g, base_embodied_g,
    base_operational_g)``; every argument broadcasts, so callers can mix
    shared scalars (one nominal scenario, varying samples) with per-entry
    arrays (the serving layer, where each request carries its own base).
    Element-wise this performs the same float operations, in the same
    order, as :meth:`ScenarioParameters.candidate_point` /
    :meth:`ScenarioParameters.baseline_point` rebuilt per entry, which
    makes batched evaluation bit-identical to a per-scenario loop — the
    contract both the Monte Carlo sweep and the query server's request
    coalescing rely on.
    """
    ci_use = np.asarray(ci_use_scales, dtype=float)
    lifetimes = np.asarray(lifetime_months, dtype=float)
    cand_emb = np.asarray(candidate_wafer_g, dtype=float) / (
        np.asarray(candidate_dies_per_wafer, dtype=float)
        * np.asarray(candidate_yields, dtype=float)
    )
    cand_op = ci_use * candidate_op_per_month_g * lifetimes
    base_emb = np.asarray(baseline_wafer_g, dtype=float) / (
        np.asarray(baseline_dies_per_wafer, dtype=float)
        * np.asarray(baseline_yield, dtype=float)
    )
    base_op = ci_use * baseline_op_per_month_g * lifetimes
    return cand_emb, cand_op, base_emb, base_op


def _wins(x_at: np.ndarray, emb, y_op, t, denom) -> np.ndarray:
    """``batched_ratio_grid``'s element expression < 1, operation for
    operation; computed in place in the freshly gathered ``x_at``."""
    np.multiply(x_at, emb, out=x_at)
    x_at += y_op
    x_at *= t
    x_at /= denom
    return x_at < 1.0


def _mc_chunk_win_counts(
    payload: Tuple[ScenarioParameters, np.ndarray, np.ndarray, MonteCarloSamples],
) -> np.ndarray:
    """Win counts over one sample chunk: shape (op_scales, emb_scales).

    Entry ``[i, j]`` counts the samples ``s`` where element ``[s, i, j]``
    of :func:`~repro.core.isoline.batched_ratio_grid`,
    ``fl(fl(fl(fl(x_j*emb_s) + fl(y_i*op_s)) * t) / d_s)``, is below 1:

    - *Prefix.*  IEEE rounding is monotone and every operand is >= 0,
      with ``t`` finite and > 0 (the input checks ensure it), so the
      ratio never falls as ``x`` grows; an overflowed sample loses on
      the whole axis or a suffix of it.  Over the sorted unique
      ``emb_scales``, each ``(s, i)`` wins on a prefix of length ``k``.
    - *Guess, then verify.*  ``k`` is the insertion point of the
      closed-form break-even ``(d/t - y*op) / emb``.  The exact
      expression must win at ``k - 1`` and lose at ``k``; pairs where it
      does not are settled by a fixed-round bisection on it.
    - *Count.*  A per-row histogram of ``k``, summed from the right,
      counts the winners at each unique ``x``; ``inverse`` maps them
      back to the caller's axis.

    The largest temporaries are ``(chunk, y)``, and the counts equal the
    tests' oracle ``np.count_nonzero(batched_ratio_grid(...) < 1, 0)``.
    """
    nominal, x, y, samples = payload
    xs, inverse = np.unique(x, return_inverse=True)
    nx = xs.size
    if nx == 0:
        return np.zeros((y.size, 0), dtype=np.intp)
    t = np.asarray(nominal.execution_time_ratio, dtype=float)
    # Overflowed samples (and emb = 0) make inf or NaN components and
    # guesses; the verify step settles them like any other.
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
        base_tcdp = (base_emb + base_op) * 1.0  # baseline execution time is 1 s
        emb, denom = cand_emb[:, None], base_tcdp[:, None]
        y_op = y[None, :] * cand_op[:, None]
        guess = denom / t - y_op
        guess /= emb
        k = np.searchsorted(xs, guess)
        below = _wins(xs.take(k - 1, mode="clip"), emb, y_op, t, denom)
        at = _wins(xs.take(k, mode="clip"), emb, y_op, t, denom)
        s_bad, i_bad = np.nonzero(~(((k == 0) | below) & ((k == nx) | ~at)))
        bad = (cand_emb[s_bad], y_op[s_bad, i_bad], t, base_tcdp[s_bad])
        lo, hi = np.zeros_like(s_bad), np.full_like(s_bad, nx)
        for _ in range(nx.bit_length()):
            mid = (lo + hi) // 2  # == lo == hi once settled
            win = _wins(xs.take(mid, mode="clip"), *bad) & (lo < hi)
            lo = np.where(win, mid + 1, lo)
            hi = np.where(win, hi, mid)
        k[s_bad, i_bad] = lo
    hist = np.bincount(
        (k + np.arange(y.size) * (nx + 1)).ravel(), minlength=y.size * (nx + 1)
    ).reshape(y.size, nx + 1)
    wins_at = np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1]
    return wins_at[:, inverse]


def _default_chunk_size(n_samples: int, rows: int) -> int:
    """Samples per chunk bounding each (chunk, op_scales) temporary of
    the kernel to ~2 MiB."""
    budget = 1 << 18  # float64 elements
    return max(1, min(n_samples, budget // max(1, rows)))


def monte_carlo_win_probability(
    nominal: ScenarioParameters,
    emb_scales: np.ndarray,
    op_scales: np.ndarray,
    n_samples: int = 1000,
    lifetime_sigma_months: float = 3.0,
    ci_log_sigma: float = 0.5,
    yield_low: float = 0.10,
    yield_high: float = 0.90,
    rng: Optional[np.random.Generator] = None,
    jobs: Optional[int] = 1,
    chunk_size: Optional[int] = None,
    cache: "Union[SweepCache, None, bool]" = None,
) -> np.ndarray:
    """Probability (per grid point) that the candidate has better tCDP.

    Samples lifetime ~ Normal(nominal, sigma) truncated at > 0, CI_use
    scale ~ LogNormal(0, ci_log_sigma), and candidate yield ~ Uniform
    [yield_low, yield_high]; then counts, per sample and ``op_scales``
    row, the ``emb_scales`` entries where the candidate wins (see
    :func:`_mc_chunk_win_counts`).  Every axis entry must be finite and
    >= 0; samples whose carbon components overflow count as losses.

    Args:
        jobs: fan sample chunks out over the runtime process pool
            (``1`` = in-process, ``None`` = one worker per CPU).  The
            result is identical for any ``jobs``/``chunk_size``.
        chunk_size: samples per evaluation chunk; ``None`` auto-sizes to
            bound peak memory.
        cache: a :class:`repro.runtime.cache.SweepCache`, ``True`` for
            the default cache directory, or ``None``/``False`` to skip
            memoization.  The key covers the scenario, both grid axes,
            and the drawn samples, so a hit is exact; the generator is
            advanced identically either way.

    Returns:
        Array of shape (len(op_scales), len(emb_scales)) of win
        probabilities in [0, 1].
    """
    x = np.asarray(emb_scales, dtype=float)
    y = np.asarray(op_scales, dtype=float)
    for axis in (x, y):
        if not np.all((axis >= 0) & np.isfinite(axis)):  # NaN fails
            raise CarbonModelError("scale factors must be finite and >= 0")
    metrics = obs.get_metrics()
    with obs.span(
        "mc.win_probability", samples=n_samples, grid=x.size * y.size
    ) as sp:
        samples = draw_monte_carlo_samples(
            nominal,
            n_samples,
            lifetime_sigma_months=lifetime_sigma_months,
            ci_log_sigma=ci_log_sigma,
            yield_low=yield_low,
            yield_high=yield_high,
            rng=rng,
        )

        sweep_cache = None
        payload = None
        if cache is not None and cache is not False:
            from repro.runtime.cache import SweepCache

            sweep_cache = (
                cache if isinstance(cache, SweepCache) else SweepCache()
            )
            payload = {
                "kind": "monte-carlo-win-probability",
                "nominal": sorted(
                    (k, v) for k, v in vars(nominal).items()
                ),
                "emb_scales": x,
                "op_scales": y,
                "lifetime_months": samples.lifetime_months,
                "ci_scales": samples.ci_scales,
                "yields": samples.yields,
            }
            hit = sweep_cache.get(payload)
            if hit is not None:
                sp.set(cache="hit")
                return hit

        chunk = (
            chunk_size
            if chunk_size is not None
            else _default_chunk_size(n_samples, y.size)
        )
        if chunk < 1:
            raise CarbonModelError(f"chunk_size must be >= 1, got {chunk}")
        bounds = list(range(0, n_samples, chunk))
        chunks = [
            (nominal, x, y, samples.chunk(start, start + chunk))
            for start in bounds
        ]
        metrics.counter("mc.samples").inc(n_samples)
        metrics.counter("mc.batches").inc(len(chunks))
        sp.set(batches=len(chunks))
        if jobs == 1 or len(chunks) == 1:
            counts = []
            for i, c in enumerate(chunks):
                with obs.span("mc.batch", index=i, samples=c[3].n):
                    counts.append(_mc_chunk_win_counts(c))
        else:
            from repro.runtime.parallel import map_parallel

            counts = map_parallel(
                _mc_chunk_win_counts, chunks, jobs=jobs, label="mc.batch"
            )
        wins = np.sum(counts, axis=0, dtype=float)
        probability = wins / n_samples
        if sweep_cache is not None and payload is not None:
            sweep_cache.put(payload, probability)
        return probability
