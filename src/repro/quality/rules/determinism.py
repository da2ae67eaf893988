"""RPL002 — determinism of model code.

Every figure and artifact must be bit-reproducible under a fixed seed:
PR 2's content-addressed manifest hashes artifact bytes, so a single
unseeded RNG draw or wall-clock read inside model code silently breaks
the reproducibility contract without failing any test.

This rule flags, in model code:

- ``np.random.default_rng()`` with no seed;
- legacy ``np.random.*`` global-state functions;
- ``random.*`` module functions (shared global state; a seeded
  ``random.Random(seed)`` instance is fine);
- wall-clock reads (``time.time``/``perf_counter``/``monotonic`` and
  ``datetime.now``/``utcnow``/``today``) and ``uuid.uuid4``.

The ``runtime`` and ``obs`` packages are exempt: perf counters,
benchmark harnesses, and the tracing layer measure wall time on
purpose.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.quality.findings import Finding, Severity
from repro.quality.rules.base import (
    Rule,
    classify_nondeterministic_call,
    register,
)

#: Path components whose files may legitimately read clocks / entropy.
EXEMPT_COMPONENTS: FrozenSet[str] = frozenset({"runtime", "obs"})


@register
class DeterminismRule(Rule):
    """Flag nondeterminism sources (RNG, clocks) outside ``runtime/``."""

    rule_id = "RPL002"
    severity = Severity.ERROR
    summary = "no unseeded RNG or wall-clock reads in model code"

    def check(self, ctx) -> Iterator[Finding]:
        if EXEMPT_COMPONENTS.intersection(ctx.parts[:-1]):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            reason = classify_nondeterministic_call(node)
            if reason is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"{reason} in model code breaks seeded "
                    f"reproducibility; thread a seeded generator / "
                    f"timestamp in from the caller",
                )
