"""Rule base class, registry, and shared AST helpers.

Rules are small classes with a ``check(ctx)`` generator; the registry
maps rule ids to classes so the CLI can select subsets by id and the
engine can instantiate the default set in a deterministic order.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Type

from repro.quality.findings import Finding, Severity
from repro.quality.flow import parameters

#: rule id -> rule class, in registration order.
RULE_REGISTRY: Dict[str, Type["Rule"]] = {}


def register(cls: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    rule_id = cls.rule_id
    if rule_id in RULE_REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    RULE_REGISTRY[rule_id] = cls
    return cls


class Rule:
    """One lint rule.  Subclasses set the class attributes and ``check``."""

    rule_id: str = "RPL000"
    severity: Severity = Severity.ERROR
    summary: str = ""

    def check(self, ctx) -> Iterator[Finding]:  # pragma: no cover - abstract
        raise NotImplementedError
        yield  # makes every subclass's check a generator by contract

    # ------------------------------------------------------------------
    def finding(
        self, ctx, node: ast.AST, message: str, symbol: str = ""
    ) -> Finding:
        """Build a finding anchored at an AST node within ``ctx``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(ctx.lines):
            snippet = ctx.lines[line - 1].strip()
        return Finding(
            rule=self.rule_id,
            message=message,
            path=ctx.rel_path,
            line=line,
            col=col,
            severity=self.severity,
            snippet=snippet,
            symbol=symbol,
        )


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [RULE_REGISTRY[rule_id]() for rule_id in sorted(RULE_REGISTRY)]


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_NP_RNG_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}
_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
}


def classify_nondeterministic_call(call: ast.Call) -> Optional[str]:
    """A human-readable reason if the call is a determinism hazard.

    Recognized hazards: unseeded ``default_rng()``, any legacy
    ``np.random.*`` global-state function, any ``random.*`` module
    function (shared global state; ``random.Random(seed)`` is fine),
    wall-clock reads (``time.time`` and friends, ``datetime.now``/
    ``utcnow``/``today``), and ``uuid.uuid4``.
    """
    name = dotted_name(call.func)
    if name is None:
        return None
    parts = name.split(".")
    last = parts[-1]
    if last == "default_rng" and not call.args and not call.keywords:
        return f"unseeded RNG: {name}() without a seed"
    if len(parts) >= 2:
        head, owner = parts[0], parts[-2]
        if owner == "random" and head in ("np", "numpy") and (
            last not in _NP_RNG_OK
        ):
            return f"legacy numpy global RNG: {name}()"
        if parts[:-1] == ["random"]:
            if last == "Random" and (call.args or call.keywords):
                return None
            return f"shared global RNG state: {name}()"
    if name in _WALL_CLOCK:
        return f"wall-clock read: {name}()"
    if last in ("now", "utcnow", "today") and (
        "datetime" in parts[:-1] or "date" in parts[:-1]
    ):
        return f"wall-clock read: {name}()"
    if last == "uuid4":
        return f"nondeterministic id: {name}()"
    return None


def function_local_names(func: ast.AST) -> set:
    """Names bound inside a function: params plus every Store target."""
    bound = set()
    args = getattr(func, "args", None)
    if args is not None:
        bound.update(arg.arg for arg in parameters(args))
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound
