"""RPL001 — unit-suffix dimensional consistency.

Identifiers in this repo carry their unit as a suffix (``energy_j``,
``die_area_cm2``).  This rule performs lightweight dimensional analysis
over those suffixes:

- adding or subtracting quantities whose suffixes disagree in dimension
  *or* scale (``x_j + y_kwh``, ``a_mm2 - b_cm2``) is flagged;
- ordering/equality comparisons between incompatible suffixed
  quantities are flagged;
- returning an expression with an inferable suffix from a function
  whose own name carries a different suffix (``def area_cm2(): return
  w_mm2``) is flagged.

Multiplication and division are never checked — they are exactly how
unit conversions and derived quantities are formed.  Names containing
``_per_`` are rates and are exempt (see
:func:`repro.quality.dimensions.suffix_of`).
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Union

from repro.quality.dimensions import UnitSuffix, suffix_of
from repro.quality.findings import Finding, Severity
from repro.quality.rules.base import Rule, dotted_name, register

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _infer_suffix(node: Optional[ast.AST]) -> Optional[UnitSuffix]:
    """The unit suffix of an expression, when the AST makes it evident."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return suffix_of(node.id)
    if isinstance(node, ast.Attribute):
        return suffix_of(node.attr)
    if isinstance(node, ast.Subscript):
        return _infer_suffix(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        return _infer_suffix(node.operand)
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None:
            return suffix_of(name.split(".")[-1])
        return None
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub)
    ):
        left = _infer_suffix(node.left)
        right = _infer_suffix(node.right)
        if left is not None and right is not None and left.compatible(right):
            return left
        return None
    return None


def _describe(a: UnitSuffix, b: UnitSuffix) -> str:
    if a.dimension != b.dimension:
        return (
            f"mixes dimensions {a.dimension} (_{a.suffix}) and "
            f"{b.dimension} (_{b.suffix})"
        )
    return (
        f"mixes {a.dimension} scales _{a.suffix} and _{b.suffix} "
        f"(convert explicitly first)"
    )


@register
class UnitConsistencyRule(Rule):
    """Flag arithmetic/comparison/return mixing incompatible unit suffixes."""

    rule_id = "RPL001"
    severity = Severity.ERROR
    summary = "unit-suffix dimensional consistency"

    def check(self, ctx) -> Iterator[Finding]:
        for node in ctx.nodes:
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_binop(ctx, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_returns(ctx, node)

    # ------------------------------------------------------------------
    def _check_binop(self, ctx, node: ast.BinOp) -> Iterator[Finding]:
        left = _infer_suffix(node.left)
        right = _infer_suffix(node.right)
        if left is None or right is None or left.compatible(right):
            return
        op = "+" if isinstance(node.op, ast.Add) else "-"
        yield self.finding(
            ctx,
            node,
            f"'{op}' {_describe(left, right)}",
        )

    # ------------------------------------------------------------------
    _CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)

    def _check_compare(self, ctx, node: ast.Compare) -> Iterator[Finding]:
        operands = [node.left] + list(node.comparators)
        for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, self._CMP_OPS):
                continue
            left = _infer_suffix(lhs)
            right = _infer_suffix(rhs)
            if left is None or right is None or left.compatible(right):
                continue
            yield self.finding(
                ctx,
                node,
                f"comparison {_describe(left, right)}",
            )

    # ------------------------------------------------------------------
    def _check_returns(self, ctx, func: _FuncDef) -> Iterator[Finding]:
        declared = suffix_of(func.name)
        if declared is None:
            return
        for node in _own_returns(func):
            returned = _infer_suffix(node.value)
            if returned is not None and not returned.compatible(declared):
                yield self.finding(
                    ctx,
                    node,
                    f"function '{func.name}' declares _{declared.suffix} "
                    f"but returns a _{returned.suffix} expression "
                    f"({_describe(declared, returned)})",
                    symbol=func.name,
                )


def _own_returns(func: _FuncDef) -> Iterator[ast.Return]:
    """``return <expr>`` statements of ``func``, excluding nested defs."""
    stack: list = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Return) and node.value is not None:
            yield node
        stack.extend(ast.iter_child_nodes(node))
