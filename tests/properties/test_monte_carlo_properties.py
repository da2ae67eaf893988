"""Property test: the Monte Carlo win map over the whole float range.

Every input the sweep takes (the scenario's fields, the sampling
distribution, both scale axes) starts from a plausible value, and any
few of them are then replaced by an arbitrary float64, NaN and the
infinities included.  Each call either returns a finite map of
probabilities in [0, 1] or raises :class:`CarbonModelError`.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.uncertainty import ScenarioParameters, monte_carlo_win_probability
from repro.errors import CarbonModelError

carbon = st.floats(0.0, 1e7)
PLAUSIBLE = {
    "candidate_wafer_g": carbon,
    "candidate_dies_per_wafer": st.floats(1.0, 1e7),
    "candidate_yield": st.floats(0.01, 1.0),
    "candidate_op_per_month_g": carbon,
    "baseline_wafer_g": carbon,
    "baseline_dies_per_wafer": st.floats(1.0, 1e7),
    "baseline_yield": st.floats(0.01, 1.0),
    "baseline_op_per_month_g": carbon,
    "lifetime_months": st.floats(0.0, 240.0),
    "ci_use_scale": st.floats(0.0, 10.0),
    "execution_time_ratio": st.floats(0.1, 10.0),
    "lifetime_sigma_months": st.floats(0.0, 10.0),
    "ci_log_sigma": st.floats(0.0, 3.0),
    "yield_low": st.floats(0.01, 0.5),
    "yield_high": st.floats(0.5, 1.0),
}
SAMPLING = ("lifetime_sigma_months", "ci_log_sigma", "yield_low", "yield_high")
AXIS_LENGTH = 4


@st.composite
def sweep_inputs(draw):
    values = {name: draw(strategy) for name, strategy in PLAUSIBLE.items()}
    for axis in ("emb_scales", "op_scales"):
        values[axis] = draw(
            st.lists(st.floats(0.0, 4.0), min_size=AXIS_LENGTH, max_size=AXIS_LENGTH)
        )
    targets = list(PLAUSIBLE) + [
        (axis, i) for axis in ("emb_scales", "op_scales") for i in range(AXIS_LENGTH)
    ]
    for target in draw(st.lists(st.sampled_from(targets), max_size=3, unique=True)):
        if isinstance(target, tuple):
            values[target[0]][target[1]] = draw(st.floats())
        else:
            values[target] = draw(st.floats())
    return values


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(values=sweep_inputs(), n_samples=st.integers(1, 30))
def test_win_map_is_a_finite_probability_or_a_typed_error(values, n_samples):
    emb_scales = np.array(values.pop("emb_scales"))
    op_scales = np.array(values.pop("op_scales"))
    sampling = {name: values.pop(name) for name in SAMPLING}
    try:
        probability = monte_carlo_win_probability(
            ScenarioParameters(**values),
            emb_scales,
            op_scales,
            n_samples=n_samples,
            rng=np.random.default_rng(0),
            **sampling,
        )
    except CarbonModelError:
        return
    assert probability.shape == (AXIS_LENGTH, AXIS_LENGTH)
    assert np.all(np.isfinite(probability))
    assert np.all((0.0 <= probability) & (probability <= 1.0))
