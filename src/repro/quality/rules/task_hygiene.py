"""RPL010 — orphaned tasks and unawaited coroutines.

``asyncio.create_task()`` returns a handle; if nothing keeps it, two
distinct failures follow.  First, CPython holds tasks weakly — a
dropped handle can be garbage-collected mid-flight and the work simply
stops.  Second, an exception inside the task is stored on the handle
and only surfaces when someone awaits it or reads ``.exception()``;
with the handle dropped, it is logged (at best) at interpreter exit,
long after the batch it belonged to was served.  The serve stack's
worker/waiter tasks all keep their handles for exactly this reason.

The rule flags, per scope:

- a bare-statement ``create_task(...)`` / ``ensure_future(...)`` whose
  result is discarded outright;
- a local name bound to ``create_task(...)`` that is never read again
  in the scope — assigned and forgotten is the same orphan with an
  extra step (storing on ``self.<attr>`` or passing the task straight
  into ``gather``/``asyncio.wait``/a list is consumption, and is not
  flagged);
- a bare-statement call of an ``async def`` defined in or imported into
  the module — the coroutine object is created and dropped without ever
  being awaited, so the body never runs at all.

The fix is to keep the handle (await it, gather it, store it and cancel
it on shutdown) or attach ``add_done_callback`` so failures surface.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.quality.concurrency import walk_scope
from repro.quality.findings import Finding, Severity
from repro.quality.flow import context_info, get_program
from repro.quality.rules.base import Rule, dotted_name, register

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

_SPAWNERS = frozenset({"create_task", "ensure_future"})


def _spawner_name(call: ast.Call) -> Optional[str]:
    name = dotted_name(call.func)
    if name is None:
        return None
    last = name.split(".")[-1]
    return last if last in _SPAWNERS else None


def _is_async_callee(call: ast.Call, info) -> Optional[str]:
    """The name of a resolvable ``async def`` this call invokes."""
    func = call.func
    if isinstance(func, ast.Name):
        target = info.functions.get(func.id)
        if isinstance(target, ast.AsyncFunctionDef):
            return func.id
    return None


@register
class TaskHygieneRule(Rule):
    """Task handles must be kept; coroutines must be awaited."""

    rule_id = "RPL010"
    severity = Severity.ERROR
    summary = "create_task results must be kept; coroutines must be awaited"

    def check(self, ctx) -> Iterator[Finding]:
        source_hint = ctx.source
        if (
            "create_task" not in source_hint
            and "ensure_future" not in source_hint
            and "async def" not in source_hint
        ):
            return
        program = get_program(ctx)
        info = context_info(ctx, program)
        scopes: List[Tuple[str, List[ast.stmt]]] = [
            ("<module>", ctx.tree.body)
        ]
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node.name, node.body))
        for scope_name, body in scopes:
            yield from self._check_scope(ctx, info, scope_name, body)

    # ------------------------------------------------------------------
    def _check_scope(
        self, ctx, info, scope_name: str, body: List[ast.stmt]
    ) -> Iterator[Finding]:
        nodes = list(walk_scope(body))
        loads: Dict[str, int] = {}
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Load, ast.Del)
            ):
                loads[node.id] = loads.get(node.id, 0) + 1
        for node in nodes:
            if isinstance(node, ast.Expr) and isinstance(
                node.value, ast.Call
            ):
                call = node.value
                spawner = _spawner_name(call)
                if spawner is not None:
                    yield self.finding(
                        ctx,
                        node,
                        (
                            f"orphaned task: {spawner}() result discarded in "
                            f"'{scope_name}'; keep the handle (await/gather/"
                            f"store + cancel) or add_done_callback so "
                            f"failures surface"
                        ),
                        symbol=scope_name,
                    )
                    continue
                callee = _is_async_callee(call, info)
                if callee is not None:
                    yield self.finding(
                        ctx,
                        node,
                        (
                            f"unawaited coroutine: '{callee}' is async def "
                            f"but the call in '{scope_name}' drops the "
                            f"coroutine without awaiting it — the body "
                            f"never runs"
                        ),
                        symbol=scope_name,
                    )
            elif isinstance(node, ast.Assign):
                call = node.value
                if not isinstance(call, ast.Call):
                    continue
                spawner = _spawner_name(call)
                if spawner is None:
                    continue
                if len(node.targets) != 1 or not isinstance(
                    node.targets[0], ast.Name
                ):
                    continue  # attribute/tuple stores keep the handle
                name = node.targets[0].id
                if loads.get(name, 0) == 0:
                    yield self.finding(
                        ctx,
                        node,
                        (
                            f"orphaned task: '{name}' = {spawner}(...) in "
                            f"'{scope_name}' is never read again; the "
                            f"handle can be garbage-collected mid-flight "
                            f"and its exception is silently dropped"
                        ),
                        symbol=scope_name,
                    )
