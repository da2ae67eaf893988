"""RPL008 — parallel-safety of callables handed to the process pool.

:func:`repro.runtime.parallel.map_parallel` and the raw
``ProcessPoolExecutor`` fan work out to *worker processes*.  That
imposes two hard constraints the type system cannot see:

- **Picklability.**  The callable crosses the process boundary by
  pickle, so it must be addressable as ``module.name`` at import time:
  lambdas and functions nested inside another function fail with
  ``PicklingError`` (or worse, only fail once the pool actually spawns,
  which the serial fallback in ``runtime/parallel.py`` can mask on
  sandboxed machines).

- **No shared mutable state.**  Each worker re-imports the module, so a
  worker sees — and mutates — its *own copy* of module-level state.  A
  submitted function that mutates a module-level container, or leans on
  a module-level live resource (an open
  :class:`~repro.runtime.cache.ResultCache` /
  :class:`~repro.runtime.cache.SweepCache`, a
  :class:`~repro.obs.trace.Tracer` or metrics registry), silently
  diverges from the parent: the mutation never comes back, the cache
  hit-rate statistics lie, the trace loses spans.

The rule flags, at each ``map_parallel(...)`` / ``pool.map(...)`` /
``pool.submit(...)`` call site (where ``pool`` is provably a
``ProcessPoolExecutor``):

- a ``lambda`` or locally nested ``def`` passed as the callable;
- a local name bound to a ``lambda``;
- ``functools.partial`` wrapping any of the above;
- a module-level function that mutates module-level state (``global``
  rebinding, ``X.append/update/...``, ``X[k] = v``) or reads a
  module-level name bound to a live resource.

Callables that arrive as *parameters* are skipped — the constraint then
belongs to the caller's call site, where the same rule checks it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Union

from repro.quality.findings import Finding, Severity
from repro.quality.rules.base import Rule, dotted_name, register

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Constructors whose module-level instances are per-process resources.
#: VectorEngine/CortexM0 carry live simulator state (lane masks, toggle
#: journals, memory images) that diverges silently across workers.
_RESOURCE_FACTORIES = {
    "ResultCache",
    "SweepCache",
    "Tracer",
    "MetricsRegistry",
    "VectorEngine",
    "CortexM0",
    "open",
    "get_tracer",
    "get_metrics",
}

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "remove",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "add",
    "discard",
    "appendleft",
}

#: Executor methods whose first argument is the submitted callable.
_SUBMIT_METHODS = {"map", "submit"}


def _is_mutable_literal(node: ast.expr) -> bool:
    return isinstance(
        node,
        (
            ast.List,
            ast.Dict,
            ast.Set,
            ast.ListComp,
            ast.DictComp,
            ast.SetComp,
        ),
    )


def _is_resource_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None:
        return False
    return name.split(".")[-1] in _RESOURCE_FACTORIES


class _ModuleState:
    """Module-level defs plus the mutable/resource globals they may touch."""

    def __init__(self, tree: ast.Module, nodes: List[ast.AST]) -> None:
        self.functions: Dict[str, _FuncDef] = {}
        self.mutable_globals: Set[str] = set()
        self.resource_globals: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                value = stmt.value
                if value is None:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if _is_resource_call(value):
                        self.resource_globals.add(target.id)
                    elif _is_mutable_literal(value):
                        self.mutable_globals.add(target.id)
        # A module-level mutable only matters when something in the
        # module actually mutates it — read-only tables are fine to
        # re-import per worker.
        self.mutated_globals: Set[str] = {
            name
            for name in self.mutable_globals
            if _is_mutated_somewhere(nodes, name)
        }


def _is_mutated_somewhere(nodes: List[ast.AST], name: str) -> bool:
    for node in nodes:
        if isinstance(node, (ast.Global,)) and name in node.names:
            return True
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            target = node.func.value
            if (
                isinstance(target, ast.Name)
                and target.id == name
                and node.func.attr in _MUTATING_METHODS
            ):
                return True
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                if target.value.id == name:
                    return True
    return False


@register
class ParallelSafetyRule(Rule):
    """Callables crossing the process-pool boundary must be safe."""

    rule_id = "RPL008"
    severity = Severity.ERROR
    summary = "process-pool callables must be top-level and share-nothing"

    def check(self, ctx) -> Iterator[Finding]:
        state = _ModuleState(ctx.tree, ctx.nodes)
        # Walk each scope, tracking local context needed to classify
        # the callable argument at each fan-out call site.
        yield from self._check_scope(ctx, state, ctx.tree.body, scope=None)
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(
                    ctx, state, node.body, scope=node
                )

    # ------------------------------------------------------------------
    def _check_scope(
        self,
        ctx,
        state: _ModuleState,
        body,
        scope: Optional[_FuncDef],
    ) -> Iterator[Finding]:
        local_lambdas: Set[str] = set()
        nested_defs: Set[str] = set()
        params: Set[str] = set()
        executors: Set[str] = set()
        if scope is not None:
            args = scope.args
            for arg in (
                list(args.posonlyargs)
                + list(args.args)
                + list(args.kwonlyargs)
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                params.add(arg.arg)
        nodes = list(_walk_scope(body))
        # Pass 1: collect the scope's bindings (lambda names, nested
        # defs, executor instances) so call-site classification below is
        # independent of statement order.
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if scope is not None:
                    nested_defs.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if isinstance(node.value, ast.Lambda):
                            local_lambdas.add(target.id)
                        elif _is_executor_ctor(node.value):
                            executors.add(target.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if (
                        item.optional_vars is not None
                        and isinstance(item.optional_vars, ast.Name)
                        and _is_executor_ctor(item.context_expr)
                    ):
                        executors.add(item.optional_vars.id)
        # Pass 2: classify the callable at each fan-out call site.
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            callable_arg = _submitted_callable(node, executors)
            if callable_arg is None:
                continue
            reason = self._classify(
                callable_arg,
                state,
                params=params,
                local_lambdas=local_lambdas,
                nested_defs=nested_defs,
            )
            if reason is not None:
                yield self.finding(
                    ctx,
                    node,
                    f"process-pool callable {reason}",
                    symbol=scope.name if scope is not None else "",
                )

    # ------------------------------------------------------------------
    def _classify(
        self,
        func: ast.expr,
        state: _ModuleState,
        params: Set[str],
        local_lambdas: Set[str],
        nested_defs: Set[str],
    ) -> Optional[str]:
        """A human-readable problem with the submitted callable, if any."""
        if isinstance(func, ast.Lambda):
            return "is a lambda: not picklable by ProcessPoolExecutor"
        if isinstance(func, ast.Call):
            name = dotted_name(func.func)
            if name is not None and name.split(".")[-1] == "partial":
                if func.args:
                    return self._classify(
                        func.args[0],
                        state,
                        params,
                        local_lambdas,
                        nested_defs,
                    )
            return None
        if isinstance(func, ast.Name):
            if func.id in local_lambdas:
                return (
                    f"'{func.id}' is bound to a lambda: not picklable by "
                    f"ProcessPoolExecutor"
                )
            if func.id in nested_defs:
                return (
                    f"'{func.id}' is a nested function: not picklable by "
                    f"ProcessPoolExecutor (define it at module level)"
                )
            if func.id in params:
                return None  # the caller's call site owns this check
            target = state.functions.get(func.id)
            if target is not None:
                return self._inspect_worker(target, state)
            return None
        return None  # attribute access: resolved module, assumed top-level

    # ------------------------------------------------------------------
    def _inspect_worker(
        self, func: _FuncDef, state: _ModuleState
    ) -> Optional[str]:
        """Shared-state hazards inside a module-level worker function."""
        local = _local_names(func)
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                bad = [n for n in node.names if n in state.mutable_globals
                       or n in state.resource_globals]
                if bad:
                    return (
                        f"'{func.name}' rebinds module-level "
                        f"'{bad[0]}' via global: workers mutate their own "
                        f"copy, the parent never sees it"
                    )
            if isinstance(node, ast.Name) and node.id not in local:
                if node.id in state.resource_globals:
                    return (
                        f"'{func.name}' closes over module-level live "
                        f"resource '{node.id}': each worker re-creates it "
                        f"on import, state diverges silently"
                    )
                if node.id in state.mutated_globals:
                    return (
                        f"'{func.name}' closes over module-level mutable "
                        f"'{node.id}': worker-side mutations never "
                        f"propagate back to the parent"
                    )
        return None


def _local_names(func: _FuncDef) -> Set[str]:
    names: Set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _walk_scope(body) -> Iterator[ast.AST]:
    """All nodes of a scope without entering nested function bodies."""
    stack = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue  # nested scope checked separately
        if isinstance(node, ast.Lambda):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_executor_ctor(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None:
        return False
    return name.split(".")[-1] == "ProcessPoolExecutor"


def _submitted_callable(
    call: ast.Call, executors: Set[str]
) -> Optional[ast.expr]:
    """The callable argument of a fan-out call, if this is one."""
    name = dotted_name(call.func)
    if name is not None and name.split(".")[-1] == "map_parallel":
        if call.args:
            return call.args[0]
        for keyword in call.keywords:
            if keyword.arg == "func":
                return keyword.value
        return None
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _SUBMIT_METHODS
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id in executors
        and call.args
    ):
        return call.args[0]
    return None
