"""Suite-wide test configuration: Hypothesis is deterministic by default.

The ``deterministic`` profile derandomizes Hypothesis: each test draws
its examples from a seed derived from the test itself, so every run of
the suite tries the same inputs, and no example database is read or
written between runs.  It also drops the per-example wall-clock deadline,
whose verdict depends on how busy the host is.

Random exploration uses Hypothesis's own pytest option and its built-in
``default`` profile:

    python -m pytest --hypothesis-profile=default
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, print_blob=True
)
settings.load_profile("deterministic")
