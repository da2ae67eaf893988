"""Shared fixtures for the serving-layer tests.

The server enables the process-global metrics registry, so every test
that boots one runs inside the suite's ``clean_obs`` fixture; the shared
``ModelContext`` is session-scoped because warming four grids builds
four full case studies.
"""

import pytest


@pytest.fixture(scope="session")
def warm_context():
    """One warmed ModelContext shared by every model-layer test."""
    from repro.serve.model import ModelContext

    context = ModelContext()
    context.warm()
    return context
