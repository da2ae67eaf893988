"""Model-layer contract: validation, and scalar/batched bit-equality.

The load-bearing test is differential: the batched tensor evaluator
must produce byte-identical JSON to the scalar model stack for any
batch composition, because the server's request coalescing relies on
being invisible to clients.
"""

import json
import random

import numpy as np
import pytest

from repro.core.isoline import TcdpTradeoffMap
from repro.core.uncertainty import monte_carlo_win_probability
from repro.serve.model import (
    LIFETIME_AXIS_MONTHS,
    GridQuery,
    ModelContext,
    PointQuery,
    QueryError,
    evaluate_grid,
    evaluate_point_scalar,
    evaluate_points_batched,
)


def canonical(payload) -> str:
    return json.dumps(payload, separators=(",", ":"))


def random_queries(seed: int, n: int):
    rng = random.Random(seed)
    queries = []
    for _ in range(n):
        payload = {
            "grid": rng.choice(["us", "coal", "solar", "taiwan"]),
            "lifetime_months": rng.uniform(0.5, 60.0),
            "ci_use_scale": rng.uniform(0.05, 8.0),
            "emb_scale": rng.uniform(0.0, 4.0),
            "op_scale": rng.uniform(0.0, 4.0),
        }
        if rng.random() < 0.4:
            payload["candidate_yield"] = rng.uniform(0.05, 1.0)
        queries.append(PointQuery.from_payload(payload))
    return queries


# ---------------------------------------------------------------------------
# Query validation
# ---------------------------------------------------------------------------
def test_point_query_defaults():
    query = PointQuery.from_payload({})
    assert query.grid == "us"
    assert query.lifetime_months == 24.0
    assert query.emb_scale == 1.0
    assert query.candidate_yield is None


@pytest.mark.parametrize(
    "payload",
    [
        {"grid": "mars"},
        {"unknown_field": 1},
        {"lifetime_months": 0.0},
        {"lifetime_months": -3},
        {"lifetime_months": "soon"},
        {"ci_use_scale": 0.0},
        {"candidate_yield": 0.0},
        {"candidate_yield": 1.5},
        {"emb_scale": -0.1},
        {"clock_mhz": 5.0},
        {"clock_mhz": True},
        {"emb_scale": float("nan")},
        {"emb_scale": float("inf")},
        {"op_scale": float("inf")},
        {"op_scale": float("-inf")},
        {"emb_scale": 10**400},
        {"emb_scale": 0, "op_scale": 0},
        {"emb_scale": 0.0, "op_scale": -0.0},
    ],
)
def test_point_query_rejects(payload):
    with pytest.raises(QueryError):
        PointQuery.from_payload(payload)


def test_grid_query_axis_specs():
    query = GridQuery.from_payload(
        {
            "emb_scales": {"start": 0.0, "stop": 2.0, "n": 5},
            "op_scales": [0.5, 1.0],
        }
    )
    assert query.emb_scales == tuple(np.linspace(0.0, 2.0, 5).tolist())
    assert query.op_scales == (0.5, 1.0)
    default = GridQuery.from_payload({})
    assert len(default.emb_scales) == 40


@pytest.mark.parametrize(
    "payload",
    [
        {"emb_scales": {"start": 2.0, "stop": 1.0, "n": 5}},
        {"emb_scales": {"start": 0.0, "stop": 1.0, "n": 1}},
        {"emb_scales": {"start": 0.0, "stop": 1.0, "n": 10_000}},
        {"emb_scales": {"start": 0.0, "stop": 1.0, "n": 5, "step": 2}},
        {"emb_scales": "wide"},
        {"emb_scales": [-1.0]},
        {"emb_scales": ["a"]},
        {"mc_samples": -1},
        {"mc_samples": 10**9},
        {"mc_seed": "x"},
        {"include_ratio_map": "yes"},
        {"emb_scales": [0.5, float("nan")]},
        {"op_scales": [float("inf")]},
        {"op_scales": [10**400]},
        {"emb_scales": {"start": 0.0, "stop": float("inf"), "n": 5}},
        {"emb_scales": {"start": float("nan"), "stop": 1.0, "n": 5}},
    ],
)
def test_grid_query_rejects(payload):
    with pytest.raises(QueryError):
        GridQuery.from_payload(payload)


def test_context_rejects_unknown_grid():
    with pytest.raises(QueryError):
        ModelContext(grids=("us", "jupiter"))


# ---------------------------------------------------------------------------
# Scalar vs batched bit-equality
# ---------------------------------------------------------------------------
def edge_queries():
    """Inputs at the edges of the batched tensor: lifetimes where the
    -6 month perturbation clips at 0, yield 1, one scale at 0, every
    grid, and duplicates within one batch."""
    queries = []
    for grid in ("us", "coal", "solar", "taiwan"):
        for lifetime in (0.25, 3.0, 5.999, 6.0, 6.5):
            for emb, op in ((1.0, 1.0), (0.0, 1.3), (0.7, 0.0)):
                queries.append(
                    PointQuery.from_payload(
                        {
                            "grid": grid,
                            "lifetime_months": lifetime,
                            "emb_scale": emb,
                            "op_scale": op,
                        }
                    )
                )
        queries.append(
            PointQuery.from_payload({"grid": grid, "candidate_yield": 1.0})
        )
    return queries + queries[:5]


@pytest.mark.smoke
def test_batched_matches_scalar_bit_for_bit(warm_context):
    queries = random_queries(seed=101, n=48) + edge_queries()
    scalar = [evaluate_point_scalar(warm_context, q) for q in queries]
    batched = evaluate_points_batched(warm_context, queries)
    assert len(batched) == len(queries)
    for expected, got in zip(scalar, batched):
        assert canonical(expected) == canonical(got)


def test_single_element_batch_matches_scalar(warm_context):
    (query,) = random_queries(seed=7, n=1)
    scalar = evaluate_point_scalar(warm_context, query)
    (batched,) = evaluate_points_batched(warm_context, [query])
    assert canonical(scalar) == canonical(batched)


def test_batch_result_independent_of_batch_composition(warm_context):
    queries = random_queries(seed=55, n=16)
    alone = [
        evaluate_points_batched(warm_context, [q])[0] for q in queries
    ]
    together = evaluate_points_batched(warm_context, queries)
    reversed_batch = evaluate_points_batched(
        warm_context, list(reversed(queries))
    )
    for i in range(len(queries)):
        assert canonical(alone[i]) == canonical(together[i])
        assert canonical(together[i]) == canonical(
            reversed_batch[len(queries) - 1 - i]
        )


# ---------------------------------------------------------------------------
# Response semantics
# ---------------------------------------------------------------------------
def test_point_response_schema_and_ratio(warm_context):
    query = PointQuery.from_payload(
        {"grid": "us", "lifetime_months": 24.0}
    )
    response = evaluate_point_scalar(warm_context, query)
    assert response["schema"] == "ppatc-point/1"
    # The nominal ratio must equal the core trade-off map exactly.
    base = warm_context.base("us", 500.0)
    tmap = base.scenario(query).tradeoff_map()
    assert response["tcdp_ratio"] == tmap.ratio(1.0, 1.0)
    assert response["candidate_wins"] == (response["tcdp_ratio"] < 1.0)
    assert response["query"]["candidate_yield"] == base.candidate_yield
    assert len(response["robustness"]["ratios"]) == 6
    assert len(response["lifetime"]["months"]) == len(LIFETIME_AXIS_MONTHS)
    lifetime = response["lifetime"]
    for lo, mid, hi in zip(
        lifetime["envelope_lo"],
        lifetime["tcdp_ratio_by_month"],
        lifetime["envelope_hi"],
    ):
        assert lo <= mid <= hi


def test_isoline_nan_serializes_as_none(warm_context):
    # A huge op_scale pushes the embodied isoline negative -> NaN -> null.
    query = PointQuery.from_payload({"op_scale": 900.0})
    response = evaluate_point_scalar(warm_context, query)
    assert response["isoline"]["emb_scale_at_query_op"] is None
    assert "NaN" not in canonical(response)


def test_crossover_months_consistency(warm_context):
    query = PointQuery.from_payload(
        {"grid": "coal", "op_scale": 0.3}
    )
    response = evaluate_point_scalar(warm_context, query)
    lifetime = response["lifetime"]
    crossover = lifetime["crossover_months"]
    if crossover is not None:
        index = lifetime["months"].index(float(crossover))
        assert lifetime["tcdp_ratio_by_month"][index] < 1.0
        assert all(
            r >= 1.0
            for r in lifetime["tcdp_ratio_by_month"][:index]
        )
    best = lifetime["best_case_crossover_months"]
    worst = lifetime["worst_case_crossover_months"]
    if crossover is not None and best is not None:
        assert best <= crossover
    if worst is not None and crossover is not None:
        assert crossover <= worst


def test_yield_override_changes_embodied_only(warm_context):
    base_resp = evaluate_point_scalar(
        warm_context, PointQuery.from_payload({})
    )
    low_yield = evaluate_point_scalar(
        warm_context, PointQuery.from_payload({"candidate_yield": 0.1})
    )
    assert (
        low_yield["candidate"]["embodied_g"]
        > base_resp["candidate"]["embodied_g"]
    )
    assert (
        low_yield["candidate"]["operational_g"]
        == base_resp["candidate"]["operational_g"]
    )
    assert (
        low_yield["baseline"]["embodied_g"]
        == base_resp["baseline"]["embodied_g"]
    )


# ---------------------------------------------------------------------------
# Grid evaluation
# ---------------------------------------------------------------------------
def test_grid_matches_core_tradeoff_map(warm_context):
    query = GridQuery.from_payload(
        {
            "grid": "us",
            "emb_scales": {"start": 0.1, "stop": 2.0, "n": 7},
            "op_scales": {"start": 0.1, "stop": 2.0, "n": 5},
        }
    )
    response = evaluate_grid(warm_context, query)
    assert response["schema"] == "ppatc-grid/1"
    base = warm_context.base("us", 500.0)
    params = base.scenario(PointQuery.from_payload({"grid": "us"}))
    tmap = params.tradeoff_map()
    assert isinstance(tmap, TcdpTradeoffMap)
    expected = tmap.ratio_grid(
        np.array(query.emb_scales), np.array(query.op_scales)
    )
    assert response["ratio_map"] == expected.tolist()
    assert response["nominal_ratio"] == tmap.ratio(1.0, 1.0)
    iso = tmap.isoline_emb_scale(np.array(query.op_scales))
    for got, exp in zip(response["isoline_emb_scale"], iso):
        if np.isnan(exp):
            assert got is None
        else:
            assert got == exp


def test_grid_monte_carlo_matches_core_and_uses_cache(
    warm_context, tmp_path
):
    from repro.runtime.cache import SweepCache

    cache = SweepCache(tmp_path / "sweeps")
    context = ModelContext(grids=("us",), sweep_cache=cache)
    query = GridQuery.from_payload(
        {
            "grid": "us",
            "emb_scales": [0.5, 1.0, 1.5],
            "op_scales": [0.5, 1.0],
            "include_ratio_map": False,
            "mc_samples": 300,
            "mc_seed": 9,
        }
    )
    response = evaluate_grid(context, query)
    base = context.base("us", 500.0)
    params = base.scenario(PointQuery.from_payload({"grid": "us"}))
    expected = monte_carlo_win_probability(
        params,
        np.array([0.5, 1.0, 1.5]),
        np.array([0.5, 1.0]),
        n_samples=300,
        rng=np.random.default_rng(9),
        jobs=1,
    )
    assert response["win_probability"] == expected.tolist()
    assert "ratio_map" not in response
    # Same seed -> same drawn samples -> SweepCache hit, same bytes.
    again = evaluate_grid(context, query)
    assert canonical(again) == canonical(response)
    assert cache.hits >= 1
