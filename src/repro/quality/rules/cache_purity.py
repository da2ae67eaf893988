"""RPL003 — purity of cached functions.

``functools.lru_cache`` memoizes on arguments alone, and
:class:`~repro.runtime.cache.SweepCache` persists results to disk keyed
on an explicit payload.  Either way, a cached function that reads
ambient state — environment variables, module-level mutables, RNG,
clocks — returns stale or irreproducible values the moment that state
changes, and no test will catch it because the first call looks right.

A function is *checked* when any of these hold:

- it is decorated with ``lru_cache`` / ``functools.lru_cache(...)`` /
  ``functools.cache``;
- its body references ``SweepCache`` *and* round-trips it with
  ``.get``/``.put`` (it computes a value that a sweep cache persists);
- its ``def`` line carries a ``# repro-lint: cache-pure`` pragma
  (opt-in for e.g. callbacks registered with a cache elsewhere).

Inside a checked function the rule flags:

- reads of ``os.environ`` / ``os.getenv``;
- any nondeterministic call (same detector as RPL002);
- loads of module-level lowercase names bound to mutable displays
  (``list``/``dict``/``set`` literals, comprehensions, or constructor
  calls).  ALL_CAPS module names are treated as frozen-by-convention
  lookup tables and are not flagged.

The ``obs`` package is exempt (mirroring RPL002): the tracing layer's
whole job is to read clocks and accumulate mutable state, and nothing
in it is memoized on arguments.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

from repro.quality.findings import Finding, Severity
from repro.quality.rules.base import (
    Rule,
    classify_nondeterministic_call,
    dotted_name,
    function_local_names,
    register,
)

_CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}

#: Path components whose files are never treated as memoized model code.
EXEMPT_COMPONENTS = frozenset({"obs"})
_MUTABLE_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
}


_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _is_cache_decorator(node: ast.AST) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = dotted_name(node)
    if name is None:
        return False
    return name.split(".")[-1] in _CACHE_DECORATORS


def _uses_sweep_cache(func: _FuncDef) -> bool:
    """True when ``func`` itself round-trips a :class:`SweepCache`.

    Requires both a ``SweepCache`` reference *and* a ``.get``/``.put``
    call — a benchmark driver that merely constructs a cache and hands
    it to the real compute function is not itself cached, and its
    wall-clock timing reads are fine.
    """
    mentions = False
    round_trips = False
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id == "SweepCache":
            mentions = True
        elif isinstance(node, ast.Attribute) and node.attr == "SweepCache":
            mentions = True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "put")
        ):
            round_trips = True
    return mentions and round_trips


def _module_level_mutables(tree: ast.Module) -> Set[str]:
    """Lowercase module-level names bound to mutable displays."""
    mutables: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        if not _is_mutable_display(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.isupper():
                mutables.add(target.id)
    return mutables


def _is_mutable_display(value: ast.expr) -> bool:
    if isinstance(
        value,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
    ):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is not None:
            return name.split(".")[-1] in _MUTABLE_CONSTRUCTORS
    return False


@register
class CachePurityRule(Rule):
    """Flag ambient-state reads inside memoized functions."""

    rule_id = "RPL003"
    severity = Severity.ERROR
    summary = "cached functions must be pure"

    def check(self, ctx) -> Iterator[Finding]:
        if EXEMPT_COMPONENTS.intersection(ctx.parts[:-1]):
            return
        mutables = _module_level_mutables(ctx.tree)
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_checked(ctx, node):
                continue
            yield from self._check_body(ctx, node, mutables)

    # ------------------------------------------------------------------
    def _is_checked(self, ctx, func: _FuncDef) -> bool:
        if any(_is_cache_decorator(d) for d in func.decorator_list):
            return True
        lines = [func.lineno] + [d.lineno for d in func.decorator_list]
        if any(ctx.pragmas.is_cache_pure(line) for line in lines):
            return True
        return _uses_sweep_cache(func)

    # ------------------------------------------------------------------
    def _check_body(
        self, ctx, func: _FuncDef, mutables: Set[str]
    ) -> Iterator[Finding]:
        local_names = function_local_names(func)
        ambient = mutables - local_names
        prefix = f"cached function '{func.name}'"
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func) or ""
                if name in ("os.getenv", "getenv"):
                    yield self.finding(
                        ctx,
                        node,
                        f"{prefix} reads the environment via {name}(); "
                        f"pass the value as an argument instead",
                        symbol=func.name,
                    )
                    continue
                reason = classify_nondeterministic_call(node)
                if reason is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"{prefix} is impure: {reason}",
                        symbol=func.name,
                    )
            elif isinstance(node, ast.Attribute):
                if node.attr == "environ" and dotted_name(node) == "os.environ":
                    yield self.finding(
                        ctx,
                        node,
                        f"{prefix} reads os.environ; pass the value as an "
                        f"argument instead",
                        symbol=func.name,
                    )
            elif isinstance(node, ast.Name):
                if (
                    isinstance(node.ctx, ast.Load)
                    and node.id in ambient
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{prefix} reads module-level mutable '{node.id}'; "
                        f"cached results go stale when it changes",
                        symbol=func.name,
                    )
