"""RPL012 — iteration-order nondeterminism feeding unit-carrying sums.

The paper's reproduction gate is *bit-identical* results — scalar vs
batched, serial vs N-lane, run vs re-run.  Float addition is not
associative, so the same multiset of ``_j`` / ``_gco2`` terms summed in
two different orders produces two different bit patterns.  Any
accumulation whose order the runtime does not pin is therefore a direct
bit-identity hazard:

- ``set`` / ``frozenset`` iteration order depends on insertion history
  and hash seeding;
- ``os.listdir`` / ``os.scandir`` / ``Path.iterdir/glob/rglob`` return
  filesystem order, which differs across machines and filesystems;
- ``dict.values()/keys()/items()`` order is insertion order — stable
  only if every code path builds the dict in the same order, an
  invariant nothing enforces once dicts are filled from parallel
  workers or merged caches.

The rule piggybacks on the RPL006 unit lattice to stay quiet on
non-numeric code: a ``sum(...)`` or ``acc += ...`` loop over one of the
iterables above is flagged **only when** a unit suffix resolves
somewhere in the flow — on the summed expression, the loop
accumulator, or the assignment target (``total_j = sum(...)``).
Counting filenames in a set is fine; summing ``embodied_gco2`` over one
is not.

The fix — and the rule's escape hatch — is to pin the order:
``sorted(...)`` around the iterable exempts the site, as does
``math.fsum`` (exact, hence order-independent).  A site whose order is
provably fixed by construction can carry a ``# repro-lint:
disable=RPL012`` pragma saying why.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.quality.concurrency import walk_scope
from repro.quality.dimensions import resolve_unit
from repro.quality.findings import Finding, Severity
from repro.quality.rules.base import Rule, dotted_name, register

_FS_CALLS = {
    "os.listdir": "os.listdir() (filesystem order)",
    "os.scandir": "os.scandir() (filesystem order)",
}

_FS_METHODS = {"iterdir", "glob", "rglob"}

_DICT_VIEWS = {"values", "keys", "items"}


def _walk_with_statement(
    body: Sequence[ast.stmt],
) -> Iterator[Tuple[ast.AST, ast.stmt]]:
    """Each node of a scope with its innermost enclosing statement.

    Nested ``def`` bodies are their own scopes and are not entered;
    lambda bodies are, since they hold no statements of their own.
    """
    stack: List[Tuple[ast.AST, ast.stmt]] = [(stmt, stmt) for stmt in body]
    while stack:
        node, stmt = stack.pop()
        yield node, stmt
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.iter_child_nodes(node):
            stack.append(
                (child, child if isinstance(child, ast.stmt) else stmt)
            )


def _set_like_names(nodes) -> Set[str]:
    """Scope-local names bound to set-valued expressions."""
    names: Set[str] = set()
    for node in nodes:
        if not isinstance(node, ast.Assign):
            continue
        if not _is_set_expr(node.value):
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] in ("set", "frozenset"):
            return True
    return False


def _nondet_reason(node: ast.expr, set_names: Set[str]) -> Optional[str]:
    """Why iterating ``node`` has no pinned order, if it doesn't."""
    if isinstance(node, ast.Set):
        return "a set display"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Name) and node.id in set_names:
        return f"'{node.id}' (bound to a set in this scope)"
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None:
            last = name.split(".")[-1]
            if last == "sorted":
                return None  # order pinned; deterministic
            if last in ("set", "frozenset"):
                return f"{last}(...)"
            if name in _FS_CALLS:
                return _FS_CALLS[name]
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in _FS_METHODS:
                return f".{attr}() (filesystem order)"
            if attr in _DICT_VIEWS:
                receiver = dotted_name(node.func.value) or "<dict>"
                return (
                    f"{receiver}.{attr}() (insertion-order dependent)"
                )
    return None


def _unit_mention(expr: Optional[ast.expr]) -> Optional[str]:
    """A unit suffix resolving anywhere in ``expr``, as ``_<suffix>``."""
    if expr is None:
        return None
    for node in ast.walk(expr):
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            continue
        unit = resolve_unit(name)
        if unit is not None:
            return f"'{name}' (_{unit.suffix})"
    return None


def _target_unit(stmt: ast.stmt) -> Optional[str]:
    """A unit suffix on the statement's assignment target, if any."""
    targets = []
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is None:
            continue
        unit = resolve_unit(name)
        if unit is not None:
            return f"'{name}' (_{unit.suffix})"
    return None


@register
class IterOrderRule(Rule):
    """Unit-carrying accumulation needs a pinned iteration order."""

    rule_id = "RPL012"
    severity = Severity.ERROR
    summary = "no unit-carrying sums over unordered iterables"

    def check(self, ctx) -> Iterator[Finding]:
        scopes = [ctx.tree.body]
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(node.body)
        for body in scopes:
            located = list(_walk_with_statement(body))
            set_names = _set_like_names(node for node, _ in located)
            for node, stmt in located:
                if isinstance(node, ast.Call):
                    yield from self._check_sum(ctx, node, stmt, set_names)
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    yield from self._check_loop(ctx, node, set_names)

    # ------------------------------------------------------------------
    def _check_sum(
        self, ctx, node: ast.Call, stmt: ast.stmt, set_names: Set[str]
    ) -> Iterator[Finding]:
        """A ``sum(...)`` call site, checked in its innermost statement."""
        name = dotted_name(node.func)
        if name is None:
            return
        last = name.split(".")[-1]
        if last != "sum" or not node.args:
            return  # ``math.fsum`` is exact, hence order-independent
        iterable = node.args[0]
        element: Optional[ast.expr] = iterable
        if isinstance(iterable, (ast.GeneratorExp, ast.ListComp)):
            element = iterable.elt
            iterable = iterable.generators[0].iter
        reason = _nondet_reason(iterable, set_names)
        if reason is None:
            return
        unit = _unit_mention(element) or _target_unit(stmt)
        if unit is None and element is not iterable:
            unit = _unit_mention(iterable)
        if unit is None:
            return
        yield self.finding(
            ctx,
            node,
            (
                f"iteration-order nondeterminism: sum over {reason} "
                f"feeds unit-carrying {unit}; float addition is not "
                f"associative, so the result is not bit-stable — "
                f"sort the iterable (sorted(...)) or use math.fsum"
            ),
        )

    # ------------------------------------------------------------------
    def _check_loop(
        self, ctx, stmt: ast.stmt, set_names: Set[str]
    ) -> Iterator[Finding]:
        """``for x in <unordered>: acc += ...`` accumulation loops."""
        reason = _nondet_reason(stmt.iter, set_names)
        if reason is None:
            return
        for inner in walk_scope(stmt.body):
            if not isinstance(inner, ast.AugAssign):
                continue
            if not isinstance(inner.op, (ast.Add, ast.Sub)):
                continue
            unit = _target_unit(inner) or _unit_mention(inner.value)
            if unit is None:
                continue
            yield self.finding(
                ctx,
                inner,
                (
                    f"iteration-order nondeterminism: accumulation "
                    f"over {reason} feeds unit-carrying {unit}; "
                    f"iterate in sorted order to keep the sum "
                    f"bit-stable"
                ),
            )
