"""Suite-wide test configuration: Hypothesis is deterministic by default.

The ``deterministic`` profile derandomizes Hypothesis: each test draws
its examples from a seed derived from the test itself, so every run of
the suite tries the same inputs, and no example database is read or
written between runs.  It also drops the per-example wall-clock deadline,
whose verdict depends on how busy the host is.

Random exploration uses Hypothesis's own pytest option and its built-in
``default`` profile:

    python -m pytest --hypothesis-profile=default

The SPICE timing of the Si and M3D sub-arrays is a session fixture, so
the suite characterizes each design once.  So is the lint report of the
live ``src/repro`` tree, which every live-tree lint assertion reads.

The obs tracer and metrics registry are process-global, so every test
that touches them runs inside ``clean_obs``: prior enabled state is
restored and all records and metrics are dropped afterwards, keeping
tests order-independent.
"""

from pathlib import Path

import pytest
from hypothesis import settings

from repro import obs

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, print_blob=True
)
settings.load_profile("deterministic")


@pytest.fixture
def clean_obs():
    """Yield with observability reset; restore prior state on exit."""
    tracer = obs.get_tracer()
    metrics = obs.get_metrics()
    prior = (tracer.enabled, metrics.enabled)
    obs.disable()
    obs.reset()
    yield
    tracer.enabled, metrics.enabled = prior
    obs.reset()


def _characterize(tech):
    from repro.edram.bitcell import m3d_bitcell, si_bitcell
    from repro.edram.subarray import SubArrayDesign
    from repro.edram.timing import characterize

    cell = {"si": si_bitcell, "m3d": m3d_bitcell}[tech]()
    return characterize(SubArrayDesign(cell))


@pytest.fixture(scope="session")
def si_timing():
    """SPICE timing of the Si sub-array, characterized once per session."""
    return _characterize("si")


@pytest.fixture(scope="session")
def m3d_timing():
    """SPICE timing of the M3D sub-array, characterized once per session."""
    return _characterize("m3d")


@pytest.fixture(scope="session")
def live_lint_report():
    """Lint report of ``src/repro`` against the committed baseline,
    built once per session."""
    from repro.quality import BASELINE_FILENAME, Baseline, LintEngine

    repo_root = Path(__file__).resolve().parent.parent
    baseline = Baseline.load(repo_root / BASELINE_FILENAME)
    engine = LintEngine(baseline=baseline)
    return engine.lint_paths([repo_root / "src" / "repro"], root=repo_root)
