"""RPL009 — blocking calls inside ``async def`` bodies.

The serve stack is a single asyncio event loop: every coroutine that
blocks the thread stalls *all* in-flight requests, the batcher's window
timer, and the graceful-drain path at once.  The type system cannot see
this — a sync call inside ``async def`` is perfectly legal Python — so
the rule classifies call sites by shape and follows them transitively:

- **Directly blocking:** ``time.sleep``, sync file I/O (``open``,
  ``Path.read_text``/``write_text``), subprocess and socket calls, and
  ``.get``/``.put`` on :class:`~repro.runtime.cache.SweepCache` /
  :class:`~repro.runtime.cache.ResultCache`-shaped receivers (a disk
  round-trip per call).

- **Transitively blocking:** a sync helper reached from the coroutine
  is followed through module-level defs and ``from`` imports (the same
  cross-module walk and ``MAX_CALL_DEPTH`` budget as RPL006's return
  units); if anything down the chain blocks — or the chain lands in the
  heavy ``repro.core`` / ``repro.cpu`` compute packages, a full model
  evaluation on the loop — the finding carries the call-site chain as a
  witness: ``calls evaluate_grid() [line 266] -> cache.get() ...``.

The fix is ``await loop.run_in_executor(None, ...)`` (or restructuring
so the blocking work happens off-loop); work wrapped in a lambda or a
nested ``def`` handed to an executor is invisible to the rule by
construction, because nested scopes are not entered.  Deliberate
on-loop work (the batcher evaluates batches on the loop thread by
design) should carry a ``# repro-lint: disable=RPL009`` pragma with a
justification.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.quality.concurrency import blocking_witness
from repro.quality.findings import Finding, Severity
from repro.quality.flow import context_info, get_program, walk_scope
from repro.quality.rules.base import Rule, register


@register
class AsyncBlockingRule(Rule):
    """``async def`` bodies must not block the event loop."""

    rule_id = "RPL009"
    severity = Severity.ERROR
    summary = "no blocking calls inside async def without run_in_executor"

    def check(self, ctx) -> Iterator[Finding]:
        async_defs = [
            node for node in ctx.nodes if isinstance(node, ast.AsyncFunctionDef)
        ]
        if not async_defs:
            return
        program = get_program(ctx)
        info = context_info(ctx, program)
        for node in async_defs:
            awaited: Set[int] = set()
            calls = []
            for sub in walk_scope(node.body):
                if isinstance(sub, ast.Await) and isinstance(
                    sub.value, ast.Call
                ):
                    awaited.add(id(sub.value))
                elif isinstance(sub, ast.Call):
                    calls.append(sub)
            for call in calls:
                if id(call) in awaited:
                    continue  # awaited calls yield to the loop
                witness = blocking_witness(program, call, info)
                if witness is None:
                    continue
                yield self.finding(
                    ctx,
                    call,
                    (
                        f"blocking call in async def "
                        f"'{node.name}': {witness.describe()}; move it off "
                        f"the event loop (run_in_executor)"
                    ),
                    symbol=node.name,
                )
