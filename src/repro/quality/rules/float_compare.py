"""RPL004 — float equality comparisons in model code.

``x == 0.3`` is almost never what an analytical model means: values
arrive through chains of float arithmetic, and exact equality silently
becomes unreachable (or worse, platform-dependent).  The rule flags
``==`` / ``!=`` where either operand is a float literal (including
signed literals and ``float(...)`` casts) and suggests
``math.isclose`` or an explicit tolerance.

Comparisons with no float literal are not flagged — integer sentinels,
string matches, and variable-vs-variable comparisons stay untouched.
An *intentional* exact comparison (e.g. testing against an untouched
default value) should carry a ``# repro-lint: disable=RPL004`` pragma
with a justifying comment.

The ``runtime`` package is exempt (benchmark comparators implement
tolerance logic themselves).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.quality.findings import Finding, Severity
from repro.quality.rules.base import Rule, dotted_name, register
from repro.quality.rules.determinism import EXEMPT_COMPONENTS


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        return _is_float_literal(node.operand)
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name == "float"
    return False


@register
class FloatEqualityRule(Rule):
    """Flag ``==``/``!=`` against float literals in model code."""

    rule_id = "RPL004"
    severity = Severity.WARNING
    summary = "no float == / != in model code"

    def check(self, ctx) -> Iterator[Finding]:
        if EXEMPT_COMPONENTS.intersection(ctx.parts[:-1]):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(lhs) or _is_float_literal(rhs):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx,
                        node,
                        f"float '{symbol}' comparison; use math.isclose "
                        f"or an explicit tolerance (pragma-disable with a "
                        f"justification if exact comparison is intended)",
                    )
