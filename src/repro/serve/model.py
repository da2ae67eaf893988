"""The serving-side model stack: queries, contexts, and evaluators.

A *point query* is the paper's headline deliverable as an API: given a
(grid, lifetime, CI_use scale, M3D yield, map position) design point,
report C_embodied / C_operational / tCDP for both implementations,
where the point sits relative to the Fig. 6a isoline, the Fig. 6b
robustness verdict under the six paper perturbations, and the Fig. 5
tCDP-ratio-vs-lifetime trajectory with its crossover month.

Two evaluators produce byte-identical responses:

- :func:`evaluate_point_scalar` — the *scalar oracle*: one
  request walked through the existing scalar model stack
  (:class:`~repro.core.uncertainty.ScenarioParameters`,
  :class:`~repro.core.isoline.TcdpTradeoffMap`,
  :func:`~repro.core.uncertainty.paper_perturbations`), exactly as a
  naive one-request-at-a-time server would;
- :func:`evaluate_points_batched` — the coalesced tensor path: a whole
  batch of concurrent queries evaluated as one
  ``(scenarios, batch, 1 + months)`` tensor by one call each of
  :func:`~repro.core.uncertainty.batched_scenario_components` and
  :func:`~repro.core.isoline.batched_ratio_points`, amortizing the
  per-call dispatch cost the scalar stack pays per request.

The float operations agree element for element (the same contract the
batched Monte Carlo sweep honors against its per-sample test oracle), so
the request batcher can coalesce freely: clients cannot tell, bit for bit,
how large a batch their query rode in.  ``tests/serve/test_model.py``
pins this differentially and the ``serve_mix`` workload of
``python -m bench`` re-checks served responses against it.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.isoline import batched_ratio_points
from repro.core.uncertainty import (
    ScenarioParameters,
    batched_scenario_components,
    monte_carlo_win_probability,
    paper_perturbations,
)
from repro.errors import CarbonModelError

__all__ = [
    "QueryError",
    "PointQuery",
    "GridQuery",
    "ScenarioBase",
    "ModelContext",
    "evaluate_point_scalar",
    "evaluate_points_batched",
    "evaluate_grid",
    "LIFETIME_AXIS_MONTHS",
    "SUPPORTED_GRIDS",
]

#: Carbon-intensity grids the server accepts (the repo's named grids).
SUPPORTED_GRIDS = ("us", "coal", "solar", "taiwan")

#: Fixed month axis for the Fig. 5 trajectory in point responses.  A
#: shared axis keeps the batched evaluation rectangular; 1..24 months
#: matches the paper's lifetime horizon.
LIFETIME_AXIS_MONTHS = tuple(float(m) for m in range(1, 25))

#: Clock range accepted by queries (MHz).  Fig. 4 sweeps 100-1000 MHz.
_CLOCK_MHZ_RANGE = (50.0, 2000.0)

#: Cap on explicit grid-tile axes, bounding per-request tensor size.
MAX_GRID_AXIS_POINTS = 256

#: Cap on Monte Carlo samples per grid request.
MAX_MC_SAMPLES = 100_000


class QueryError(ValueError):
    """A request payload that fails validation (served as HTTP 400)."""


def _finite_number(value: Any, what: str) -> float:
    """``value`` as a finite float; JSON's ``NaN``/``Infinity`` and
    integers too large for a float are a :class:`QueryError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(f"{what} must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (-math.inf < number < math.inf):  # NaN fails too
        raise QueryError(f"{what} must be finite, got {value}")
    return number


def _require_number(
    payload: Dict[str, Any], key: str, default: float
) -> float:
    return _finite_number(payload.get(key, default), repr(key))


@dataclass(frozen=True)
class PointQuery:
    """One validated ``POST /v1/tcdp`` design-point query."""

    grid: str = "us"
    clock_mhz: float = 500.0
    lifetime_months: float = 24.0
    ci_use_scale: float = 1.0
    candidate_yield: Optional[float] = None
    emb_scale: float = 1.0
    op_scale: float = 1.0

    _FIELDS = (
        "grid",
        "clock_mhz",
        "lifetime_months",
        "ci_use_scale",
        "candidate_yield",
        "emb_scale",
        "op_scale",
    )

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "PointQuery":
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise QueryError(
                f"unknown field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(cls._FIELDS)})"
            )
        grid = payload.get("grid", "us")
        if grid not in SUPPORTED_GRIDS:
            raise QueryError(
                f"unknown grid {grid!r} (one of: {', '.join(SUPPORTED_GRIDS)})"
            )
        clock_mhz = _require_number(payload, "clock_mhz", 500.0)
        if not (_CLOCK_MHZ_RANGE[0] <= clock_mhz <= _CLOCK_MHZ_RANGE[1]):
            raise QueryError(
                f"clock_mhz must be within {_CLOCK_MHZ_RANGE}, "
                f"got {clock_mhz}"
            )
        lifetime = _require_number(payload, "lifetime_months", 24.0)
        if not (0.0 < lifetime <= 1200.0):
            raise QueryError(
                f"lifetime_months must be in (0, 1200], got {lifetime}"
            )
        ci = _require_number(payload, "ci_use_scale", 1.0)
        if not (0.0 < ci <= 1000.0):
            raise QueryError(f"ci_use_scale must be in (0, 1000], got {ci}")
        cand_yield: Optional[float] = None
        if payload.get("candidate_yield") is not None:
            cand_yield = _require_number(payload, "candidate_yield", 0.5)
            if not (0.0 < cand_yield <= 1.0):
                raise QueryError(
                    f"candidate_yield must be in (0, 1], got {cand_yield}"
                )
        emb_scale = _require_number(payload, "emb_scale", 1.0)
        op_scale = _require_number(payload, "op_scale", 1.0)
        if emb_scale < 0 or op_scale < 0:
            raise QueryError("emb_scale and op_scale must be >= 0")
        if emb_scale == 0 and op_scale == 0:
            raise QueryError("emb_scale and op_scale cannot both be 0")
        return cls(
            grid=grid,
            clock_mhz=clock_mhz,
            lifetime_months=lifetime,
            ci_use_scale=ci,
            candidate_yield=cand_yield,
            emb_scale=emb_scale,
            op_scale=op_scale,
        )


@dataclass(frozen=True)
class GridQuery:
    """One validated ``POST /v1/grid`` trade-off-map-tile query."""

    grid: str = "us"
    clock_mhz: float = 500.0
    lifetime_months: float = 24.0
    ci_use_scale: float = 1.0
    candidate_yield: Optional[float] = None
    emb_scales: Tuple[float, ...] = ()
    op_scales: Tuple[float, ...] = ()
    include_ratio_map: bool = True
    mc_samples: int = 0
    mc_seed: int = 0

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "GridQuery":
        known = {
            "grid",
            "clock_mhz",
            "lifetime_months",
            "ci_use_scale",
            "candidate_yield",
            "emb_scales",
            "op_scales",
            "include_ratio_map",
            "mc_samples",
            "mc_seed",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise QueryError(
                f"unknown field(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(sorted(known))})"
            )
        point = PointQuery.from_payload(
            {
                k: payload[k]
                for k in (
                    "grid",
                    "clock_mhz",
                    "lifetime_months",
                    "ci_use_scale",
                    "candidate_yield",
                )
                if k in payload
            }
        )
        include_map = payload.get("include_ratio_map", True)
        if not isinstance(include_map, bool):
            raise QueryError("include_ratio_map must be a boolean")
        mc_samples = payload.get("mc_samples", 0)
        if (
            isinstance(mc_samples, bool)
            or not isinstance(mc_samples, int)
            or not (0 <= mc_samples <= MAX_MC_SAMPLES)
        ):
            raise QueryError(
                f"mc_samples must be an integer in [0, {MAX_MC_SAMPLES}]"
            )
        mc_seed = payload.get("mc_seed", 0)
        if (
            isinstance(mc_seed, bool)
            or not isinstance(mc_seed, int)
            or mc_seed < 0
        ):
            raise QueryError("mc_seed must be a non-negative integer")
        return cls(
            grid=point.grid,
            clock_mhz=point.clock_mhz,
            lifetime_months=point.lifetime_months,
            ci_use_scale=point.ci_use_scale,
            candidate_yield=point.candidate_yield,
            emb_scales=cls._axis(payload, "emb_scales"),
            op_scales=cls._axis(payload, "op_scales"),
            include_ratio_map=include_map,
            mc_samples=mc_samples,
            mc_seed=mc_seed,
        )

    @staticmethod
    def _axis(payload: Dict[str, Any], key: str) -> Tuple[float, ...]:
        """Parse a scale axis: an explicit list or a linspace spec."""
        spec = payload.get(key)
        if spec is None:
            return tuple(np.linspace(0.05, 2.0, 40).tolist())
        if isinstance(spec, dict):
            extra = sorted(set(spec) - {"start", "stop", "n"})
            if extra:
                raise QueryError(
                    f"{key}: unknown axis field(s): {', '.join(extra)}"
                )
            start = _require_number(spec, "start", 0.05)
            stop = _require_number(spec, "stop", 2.0)
            n = spec.get("n", 40)
            if (
                isinstance(n, bool)
                or not isinstance(n, int)
                or not (2 <= n <= MAX_GRID_AXIS_POINTS)
            ):
                raise QueryError(
                    f"{key}.n must be an integer in "
                    f"[2, {MAX_GRID_AXIS_POINTS}]"
                )
            if not (0.0 <= start < stop):
                raise QueryError(f"{key}: need 0 <= start < stop")
            return tuple(np.linspace(start, stop, n).tolist())
        if isinstance(spec, list):
            if not (1 <= len(spec) <= MAX_GRID_AXIS_POINTS):
                raise QueryError(
                    f"{key} must have 1..{MAX_GRID_AXIS_POINTS} entries"
                )
            values = tuple(_finite_number(v, f"{key} entries") for v in spec)
            if min(values) < 0:
                raise QueryError(f"{key} entries must be >= 0")
            return values
        raise QueryError(
            f"{key} must be a list of scales or "
            f"{{'start':..,'stop':..,'n':..}}"
        )


@dataclass(frozen=True)
class ScenarioBase:
    """The per-(grid, clock) nominal scenario a query perturbs.

    Derived once from the Sec. III case study (the same extraction as
    ``fig6b_isoline_uncertainty``): wafer-level embodied carbon, die
    counts, demonstration yields, per-month operational carbon for both
    implementations, and the execution-time ratio.
    """

    grid: str
    clock_mhz: float
    candidate_wafer_g: float
    candidate_dies_per_wafer: float
    candidate_yield: float
    candidate_op_per_month_g: float
    baseline_wafer_g: float
    baseline_dies_per_wafer: float
    baseline_yield: float
    baseline_op_per_month_g: float
    execution_time_ratio: float

    def scenario(self, query: PointQuery) -> ScenarioParameters:
        """The scalar-stack parameters for one query over this base.

        A query that parses but whose carbon components leave float64's
        range (a subnormal yield) is a :class:`QueryError`.
        """
        try:
            return ScenarioParameters(
                candidate_wafer_g=self.candidate_wafer_g,
                candidate_dies_per_wafer=self.candidate_dies_per_wafer,
                candidate_yield=(
                    query.candidate_yield
                    if query.candidate_yield is not None
                    else self.candidate_yield
                ),
                candidate_op_per_month_g=self.candidate_op_per_month_g,
                baseline_wafer_g=self.baseline_wafer_g,
                baseline_dies_per_wafer=self.baseline_dies_per_wafer,
                baseline_yield=self.baseline_yield,
                baseline_op_per_month_g=self.baseline_op_per_month_g,
                lifetime_months=query.lifetime_months,
                ci_use_scale=query.ci_use_scale,
                execution_time_ratio=self.execution_time_ratio,
            )
        except CarbonModelError as exc:
            raise QueryError(
                f"the model has no finite answer for this query: {exc}"
            ) from exc


@functools.lru_cache(maxsize=64)
def _build_base(grid: str, clock_mhz: float) -> ScenarioBase:
    """Build one nominal scenario from the case study (memoized)."""
    from repro.analysis.case_study import build_case_study
    from repro.core.operational import UsageScenario

    case = build_case_study(
        clock_hz=clock_mhz * 1e6,
        scenario=UsageScenario(lifetime_months=24.0),
        grid=grid,
    )
    per_month_m3d = case.m3d.total_carbon.operational.carbon_per_month_g(
        case.m3d.total_carbon.scenario.with_lifetime(1.0)
    )
    per_month_si = case.all_si.total_carbon.operational.carbon_per_month_g(
        case.all_si.total_carbon.scenario.with_lifetime(1.0)
    )
    return ScenarioBase(
        grid=grid,
        clock_mhz=clock_mhz,
        candidate_wafer_g=case.m3d.embodied.per_wafer_g,
        candidate_dies_per_wafer=float(case.m3d.dies_per_wafer),
        candidate_yield=case.m3d.yield_fraction,
        candidate_op_per_month_g=per_month_m3d,
        baseline_wafer_g=case.all_si.embodied.per_wafer_g,
        baseline_dies_per_wafer=float(case.all_si.dies_per_wafer),
        baseline_yield=case.all_si.yield_fraction,
        baseline_op_per_month_g=per_month_si,
        execution_time_ratio=(
            case.m3d.execution_time_s / case.all_si.execution_time_s
        ),
    )


class ModelContext:
    """Everything the handlers share: warm bases and the sweep cache.

    One instance lives for the whole server process.  Building a base is
    a full case-study construction, so :meth:`warm` runs at startup —
    the first request never pays it — and further (grid, clock) pairs
    are memoized on first use.
    """

    def __init__(
        self,
        grids: Sequence[str] = SUPPORTED_GRIDS,
        clock_mhz: float = 500.0,
        sweep_cache: Optional[Any] = None,
    ) -> None:
        unknown = sorted(set(grids) - set(SUPPORTED_GRIDS))
        if unknown:
            raise QueryError(f"unknown grid(s): {', '.join(unknown)}")
        self.grids = tuple(grids)
        self.clock_mhz = float(clock_mhz)
        self.sweep_cache = sweep_cache
        self._lock = threading.Lock()

    def warm(self) -> int:
        """Pre-build every configured base; returns the count built."""
        for grid in self.grids:
            self.base(grid, self.clock_mhz)
        return len(self.grids)

    def base(self, grid: str, clock_mhz: float) -> ScenarioBase:
        # The lru_cache is not re-entrant under free threading; serialize
        # builds so concurrent cold paths cannot race.
        with self._lock:
            return _build_base(grid, clock_mhz)


# ---------------------------------------------------------------------------
# Point evaluation: scalar oracle vs batched tensor path
# ---------------------------------------------------------------------------
#: The six Fig. 6b perturbations, shared by both evaluators.
_PERTURBATIONS = paper_perturbations()
_PERTURBATION_NAMES = tuple(pert.name for pert in _PERTURBATIONS)


def _finite(value: float) -> Optional[float]:
    """A JSON-safe float: ``None`` where the model says NaN."""
    return None if np.isnan(value) else float(value)


def _crossover(row: Sequence[float]) -> Optional[int]:
    """The first axis month whose ratio is below 1, else ``None``."""
    for month, month_ratio in zip(LIFETIME_AXIS_MONTHS, row):
        if month_ratio < 1.0:
            return int(month)
    return None


def _point_response(
    query: PointQuery,
    cand_yield: float,
    cand_emb: float,
    cand_op: float,
    base_emb: float,
    base_op: float,
    time_ratio: float,
    iso_emb: float,
    iso_op: float,
    sheet: np.ndarray,
) -> Dict[str, Any]:
    """Assemble the response dict (field order fixed for byte equality).

    ``sheet`` is a ``(7, 1 + months)`` array of tCDP ratios, one row per
    scenario — nominal first, then the six paper perturbations.  Column
    0 is at the query's own lifetime; the other columns follow the
    lifetime axis, and their envelope across rows is the Fig. 5
    trajectory under Fig. 6b uncertainty, whose crossings give the
    robust crossover window.
    """
    at_query = sheet[:, 0]
    months = sheet[:, 1:]
    ratio = float(at_query[0])
    month_ratios = months[0].tolist()
    envelope_lo = months.min(axis=0).tolist()
    envelope_hi = months.max(axis=0).tolist()
    cand_tcdp = (cand_emb + cand_op) * time_ratio
    base_tcdp = (base_emb + base_op) * 1.0
    # Finite inputs can still leave float64's range: a scale near the
    # largest float overflows the ratio, a subnormal one underflows it.
    if not (
        ratio > 0.0
        and math.isfinite(1.0 / ratio)
        and math.isfinite(cand_tcdp)
        and math.isfinite(base_tcdp)
        and not math.isinf(iso_emb)
        and not math.isinf(iso_op)
        and np.isfinite(sheet).all()
    ):
        raise QueryError(
            "the model has no finite answer for this query "
            f"(tcdp_ratio {ratio!r}, candidate tCDP {cand_tcdp!r} g*s)"
        )
    return {
        "schema": "ppatc-point/1",
        "query": {
            "grid": query.grid,
            "clock_mhz": query.clock_mhz,
            "lifetime_months": query.lifetime_months,
            "ci_use_scale": query.ci_use_scale,
            "candidate_yield": cand_yield,
            "emb_scale": query.emb_scale,
            "op_scale": query.op_scale,
        },
        "candidate": {
            "embodied_g": float(cand_emb),
            "operational_g": float(cand_op),
            "tcdp_gs": float(cand_tcdp),
        },
        "baseline": {
            "embodied_g": float(base_emb),
            "operational_g": float(base_op),
            "tcdp_gs": float(base_tcdp),
        },
        "tcdp_ratio": ratio,
        "candidate_wins": ratio < 1.0,
        "carbon_efficiency_advantage": 1.0 / ratio,
        "isoline": {
            "emb_scale_at_query_op": _finite(iso_emb),
            "op_scale_at_query_emb": _finite(iso_op),
        },
        "robustness": {
            "ratios": dict(zip(_PERTURBATION_NAMES, at_query[1:].tolist())),
            "robust_win": bool(at_query.max() < 1.0),
            "robust_loss": bool(at_query.min() >= 1.0),
        },
        "lifetime": {
            "months": list(LIFETIME_AXIS_MONTHS),
            "tcdp_ratio_by_month": month_ratios,
            "envelope_lo": envelope_lo,
            "envelope_hi": envelope_hi,
            "crossover_months": _crossover(month_ratios),
            "best_case_crossover_months": _crossover(envelope_lo),
            "worst_case_crossover_months": _crossover(envelope_hi),
        },
    }


def evaluate_point_scalar(
    context: ModelContext, query: PointQuery
) -> Dict[str, Any]:
    """Scalar oracle: one query through the scalar stack.

    Every quantity is produced by the pre-existing public model API —
    :class:`ScenarioParameters` objects, one :class:`TcdpTradeoffMap`
    per scenario and per lifetime month — exactly as a server without a
    batcher would compute it.
    """
    base = context.base(query.grid, query.clock_mhz)
    params = base.scenario(query)
    tmap = params.tradeoff_map()
    candidate = params.candidate_point()
    baseline = params.baseline_point()
    # Column 0 is the query's own lifetime; then one Fig. 5 trajectory
    # per scenario: set the lifetime to each axis month, then apply the
    # perturbation to that month-scenario (so "lifetime +6 mo" asks what
    # month m looks like if the lifetime estimate is 6 months optimistic).
    columns = [params] + [
        replace(params, lifetime_months=month)
        for month in LIFETIME_AXIS_MONTHS
    ]
    scenarios = [columns] + [
        [pert.apply(p) for p in columns] for pert in _PERTURBATIONS
    ]
    sheet = np.array(
        [
            [p.tradeoff_map().ratio(query.emb_scale, query.op_scale) for p in row]
            for row in scenarios
        ]
    )
    return _point_response(
        query,
        params.candidate_yield,
        candidate.embodied_g,
        candidate.operational_g,
        baseline.embodied_g,
        baseline.operational_g,
        base.execution_time_ratio,
        tmap.isoline_emb_scale(query.op_scale),
        tmap.isoline_op_scale(query.emb_scale),
        sheet,
    )


def evaluate_points_batched(
    context: ModelContext, queries: Sequence[PointQuery]
) -> List[Any]:
    """Coalesced tensor path: N queries in one batched evaluation.

    Returns one response per query, in order.  A query the model has no
    finite answer for gets its :class:`QueryError` in place of a
    response, so it fails alone and its batch-mates are still answered.

    Builds one ``(7, n, 1 + months)`` scenario tensor — nominal plus the
    six paper perturbations, per query, at the query's own lifetime and
    along the lifetime axis — and runs
    :func:`batched_scenario_components` / :func:`batched_ratio_points`
    once each.  Element-wise the float operations match the scalar
    stack, so responses are byte-identical to
    :func:`evaluate_point_scalar` regardless of batch size.
    """
    bases = [context.base(q.grid, q.clock_mhz) for q in queries]
    # One (fields, 1, n, 1) table; each field broadcasts over the
    # scenario rows and the lifetime columns.
    (
        lts, cis, yields, xs, ys,
        cand_wafer, cand_dies, cand_op_pm,
        base_wafer, base_dies, base_yield, base_op_pm,
        t_ratio,
    ) = np.array(
        [
            (
                q.lifetime_months,
                q.ci_use_scale,
                b.candidate_yield
                if q.candidate_yield is None
                else q.candidate_yield,
                q.emb_scale,
                q.op_scale,
                b.candidate_wafer_g,
                b.candidate_dies_per_wafer,
                b.candidate_op_per_month_g,
                b.baseline_wafer_g,
                b.baseline_dies_per_wafer,
                b.baseline_yield,
                b.baseline_op_per_month_g,
                b.execution_time_ratio,
            )
            for q, b in zip(queries, bases)
        ]
    ).T[:, None, :, None]

    # Column 0 is each query's own lifetime, columns 1.. the axis months.
    # Rows: nominal, then the paper perturbations in paper_perturbations()
    # order (+6mo, -6mo, CIx3, CI/3, yield low/high), applied per column
    # exactly as the scalar oracle's pert.apply(...) does.
    lifetimes = np.concatenate(
        [
            lts,
            np.broadcast_to(
                LIFETIME_AXIS_MONTHS,
                lts.shape[:2] + (len(LIFETIME_AXIS_MONTHS),),
            ),
        ],
        axis=2,
    )
    scen_lts = np.concatenate(
        [lifetimes, lifetimes + 6.0, np.maximum(0.0, lifetimes - 6.0)]
        + [lifetimes] * 4
    )
    scen_cis = np.concatenate([cis, cis, cis, cis * 3.0, cis / 3.0, cis, cis])
    scen_yields = np.concatenate(
        [yields] * 5
        + [np.full_like(yields, 0.10), np.full_like(yields, 0.90)]
    )
    cand_emb, cand_op, base_emb, base_op = batched_scenario_components(
        cand_wafer,
        cand_dies,
        scen_yields,
        cand_op_pm,
        base_wafer,
        base_dies,
        base_yield,
        base_op_pm,
        scen_lts,
        scen_cis,
    )
    base_tcdp = (base_emb + base_op) * 1.0
    ratios = batched_ratio_points(
        cand_emb, cand_op, t_ratio, base_tcdp, xs, ys
    )

    # Isoline position (nominal scenario at the query lifetime only),
    # matching the scalar isoline_emb_scale / isoline_op_scale op order.
    nominal_emb = cand_emb[0, :, 0]
    nominal_op = cand_op[0, :, 0]
    target = base_tcdp[0, :, 0] / t_ratio[0, :, 0]
    with np.errstate(invalid="ignore"):
        iso_emb = (target - ys[0, :, 0] * nominal_op) / nominal_emb
    iso_emb = np.where(iso_emb >= 0, iso_emb, np.nan)
    iso_op = (target - xs[0, :, 0] * nominal_emb) / nominal_op
    iso_op = np.where(iso_op >= 0, iso_op, np.nan)

    responses: List[Any] = []
    for query, scalars, sheet in zip(
        queries,
        zip(
            yields[0, :, 0].tolist(),
            nominal_emb.tolist(),
            nominal_op.tolist(),
            # Baseline embodied carbon is scenario-independent (the
            # perturbations touch lifetime/CI/candidate yield only),
            # so it stays un-broadcast at (1, n, 1).
            base_emb[0, :, 0].tolist(),
            base_op[0, :, 0].tolist(),
            t_ratio[0, :, 0].tolist(),
            iso_emb.tolist(),
            iso_op.tolist(),
        ),
        ratios.transpose(1, 0, 2),
    ):
        try:
            responses.append(_point_response(query, *scalars, sheet))
        except QueryError as exc:
            responses.append(exc)
    return responses


# ---------------------------------------------------------------------------
# Grid (trade-off-map tile) evaluation
# ---------------------------------------------------------------------------
def evaluate_grid(
    context: ModelContext, query: GridQuery
) -> Dict[str, Any]:
    """One Fig. 6a trade-off-map tile, optionally with a Fig. 6b
    Monte Carlo win-probability overlay.

    Tiles are already tensor evaluations (one ``batched_ratio_grid``
    call), so they dispatch inline rather than through the point
    batcher; the Monte Carlo overlay is memoized through the server's
    shared warm :class:`~repro.runtime.cache.SweepCache` when one is
    configured.
    """
    point = PointQuery(
        grid=query.grid,
        clock_mhz=query.clock_mhz,
        lifetime_months=query.lifetime_months,
        ci_use_scale=query.ci_use_scale,
        candidate_yield=query.candidate_yield,
    )
    base = context.base(query.grid, query.clock_mhz)
    params = base.scenario(point)
    tmap = params.tradeoff_map()
    xs = np.array(query.emb_scales)
    ys = np.array(query.op_scales)
    response: Dict[str, Any] = {
        "schema": "ppatc-grid/1",
        "query": {
            "grid": query.grid,
            "clock_mhz": query.clock_mhz,
            "lifetime_months": query.lifetime_months,
            "ci_use_scale": query.ci_use_scale,
            "candidate_yield": params.candidate_yield,
            "emb_scales": xs.tolist(),
            "op_scales": ys.tolist(),
        },
        "nominal_ratio": float(tmap.ratio(1.0, 1.0)),
        "isoline_emb_scale": [
            _finite(v) for v in np.atleast_1d(tmap.isoline_emb_scale(ys))
        ],
    }
    if query.include_ratio_map:
        grid = tmap.ratio_grid(xs, ys)
        if not np.isfinite(grid).all():
            raise QueryError(
                "the model has no finite answer for this tile: an input "
                "leaves float64's range"
            )
        response["ratio_map"] = grid.tolist()
        response["candidate_win_fraction"] = float(
            np.count_nonzero(grid < 1.0) / grid.size
        )
    if query.mc_samples > 0:
        probability = monte_carlo_win_probability(
            params,
            xs,
            ys,
            n_samples=query.mc_samples,
            rng=np.random.default_rng(query.mc_seed),
            jobs=1,
            cache=context.sweep_cache,
        )
        response["win_probability"] = probability.tolist()
        response["mc_samples"] = query.mc_samples
        response["mc_seed"] = query.mc_seed
    return response
