"""Shape/broadcast abstract interpretation for vectorization safety.

The ROADMAP's design-space-exploration item needs every stage of the
model stack (``physical``, ``fab``, ``core.embodied``, ``core.tcdp``)
to accept parameter *arrays* so a sweep evaluates thousands of design
points in one batched call.  Nothing in plain Python marks which
functions are actually array-polymorphic: a stray ``float()``, a
``math.exp``, an ``if x > y:`` on model data, or a Python-scalar
accumulation silently poisons batching and surfaces as a runtime crash
or — worse — a wrong-but-plausible tensor result.

This module follows model *data* instead of names.  It is the second
lattice on :mod:`repro.quality.flow`'s statement walker
(:class:`~repro.quality.flow.ScopeWalker`) and
interprocedural :class:`~repro.quality.flow.Program`:

- **Lattice.**  Each tracked value is a :class:`ShapeValue` — a
  broadcast shape (``"lanes"`` for values that broadcast with the
  function's parameters, ``"scalar"`` for data forced down to a Python
  scalar) plus a *witness chain* recording how the value reached the
  hazard site.  ``None`` is the lattice top (not model data).

- **Seeding.**  Parameters are seeded as array-capable ``lanes`` data
  when they are numerically annotated (``float``/``int``/``ndarray``/
  ``ArrayLike``) or carry a unit suffix the RPL001 table resolves
  (``die_area_mm2``).  ``self``/``cls`` and un-annotated, un-suffixed
  params stay untracked so object plumbing does not pollute the pass.

- **NumPy-ufunc knowledge.**  Elementwise ufuncs (``np.exp``,
  ``np.maximum``, ``np.where``, ...) preserve the ``lanes`` shape;
  reductions (``np.sum``, ``np.mean``, ...) collapse to ``scalar``
  data without a finding (they are the *intended* array-aware
  spelling); shape predicates (``np.isscalar``, ``np.ndim``, ``.shape``
  attribute reads) drop out of the lattice entirely, which is what
  makes ``float(x) if np.isscalar(x) else x`` guards cheap to exempt.

- **Interprocedural capability.**  :func:`capability` is a
  per-function :class:`Capability` ("array" / "scalar") summary on the
  lint run's one :class:`repro.quality.flow.Program`, which resolves
  callees through the on-disk import walk and memoizes the result, so
  a ``core`` pipeline calling a ``physical`` helper that hides a
  ``math.exp`` two modules away is seen as the cross-module contract
  drift it is (RPL016).

Recorded event streams feed the four vectorization rules in
:mod:`repro.quality.rules.vectorization`:

- :class:`CoercionEvent` -> RPL013 (scalar coercion on data);
- :class:`BranchEvent` -> RPL014 (data-dependent control flow);
- :class:`FoldEvent` -> RPL015 (shape-unstable accumulation);
- :class:`HelperCallEvent` -> RPL016 (array-contract drift).

Raise-only validation guards (``if x <= 0: raise ...``) are *not*
recorded: arrays fail loudly there (ambiguous-truth ``ValueError``),
so they are a driveability limit the dynamic ``repro vectorcheck``
gate classifies, not a silent-corruption hazard for the static pass.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.quality.dimensions import resolve_unit
from repro.quality.flow import (
    MAX_CALL_DEPTH,
    ModuleInfo,
    Program,
    ScopeWalker,
    Step,
    _expr_text,
    _FuncDef,
    context_info,
    get_program,
    render_chain,
)

#: Broadcast-shape lattice points for tracked model data.
LANES = "lanes"
SCALAR = "scalar"

# ---------------------------------------------------------------------------
# Lattice values
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ShapeValue:
    """Model data at one program point: broadcast shape + witness chain.

    ``shape`` is ``"lanes"`` while the value still broadcasts with the
    function's array-capable parameters and ``"scalar"`` once something
    collapsed it (a reduction or a recorded coercion).  ``chain`` is
    most-recent-step-first, exactly like
    :class:`repro.quality.flow.Inferred`.
    """

    shape: str
    chain: Tuple[Step, ...] = ()

    @property
    def lanes(self) -> bool:
        return self.shape == LANES

    def derived(self, note: str, line: int) -> "ShapeValue":
        return ShapeValue(self.shape, (Step(note, line),) + self.chain)

    def collapsed(self, note: str, line: int) -> "ShapeValue":
        return ShapeValue(SCALAR, (Step(note, line),) + self.chain)

    def describe(self) -> str:
        """``parameter 'x_j' [line 3] <- ...`` provenance witness."""
        return render_chain(self.chain) or "<model data>"


# ---------------------------------------------------------------------------
# Events recorded for the rules
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CoercionEvent:
    """``float()``/``int()``/``round()``/``math.*`` applied to data."""

    node: ast.Call
    func_text: str
    value: ShapeValue


@dataclass(frozen=True)
class BranchEvent:
    """``if``/``while``/ternary whose test depends on model data."""

    node: ast.AST
    construct: str
    value: ShapeValue


@dataclass(frozen=True)
class FoldEvent:
    """A Python-scalar reduction collapsing a broadcastable value."""

    node: ast.AST
    op_text: str
    value: ShapeValue


@dataclass(frozen=True)
class HelperCallEvent:
    """An array-capable caller handing data to a scalar-only helper."""

    node: ast.Call
    callee: str
    capability: "Capability"
    value: ShapeValue


@dataclass
class FunctionShapes:
    """Everything the vectorization rules need about one scope."""

    name: str
    node: Optional[_FuncDef]
    seeded: Tuple[str, ...] = ()
    coercions: List[CoercionEvent] = field(default_factory=list)
    branches: List[BranchEvent] = field(default_factory=list)
    folds: List[FoldEvent] = field(default_factory=list)
    helper_calls: List[HelperCallEvent] = field(default_factory=list)

    def direct_hazards(self) -> int:
        """Silent-corruption hazards in this scope's own body."""
        return len(self.coercions) + len(self.branches) + len(self.folds)


@dataclass(frozen=True)
class Capability:
    """Inferred vectorization contract of one function.

    ``kind`` is ``"array"`` (body is free of silent scalar hazards) or
    ``"scalar"``; for scalar functions ``reason``/``where`` name the
    first offending site so RPL016 messages can point through the call
    edge at the real culprit.
    """

    kind: str
    reason: str = ""
    where: str = ""


# ---------------------------------------------------------------------------
# Parameter seeding
# ---------------------------------------------------------------------------
#: Annotation tokens that mark a parameter as numeric model data.
_NUMERIC_ANNOTATION = re.compile(
    r"\b(float|int|complex|ndarray|NDArray|ArrayLike|FloatArray)\b"
)


def seeds_param(arg: ast.arg) -> bool:
    """True when a parameter should enter the lattice as model data."""
    if arg.arg in ("self", "cls"):
        return False
    if arg.annotation is not None:
        try:
            text = ast.unparse(arg.annotation)
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return False
        return bool(_NUMERIC_ANNOTATION.search(text))
    return resolve_unit(arg.arg) is not None


# ---------------------------------------------------------------------------
# NumPy / math / builtin knowledge tables
# ---------------------------------------------------------------------------
#: Elementwise ufuncs and shape-preserving constructors: lanes -> lanes.
UFUNC_ELEMENTWISE = frozenset({
    "abs", "absolute", "add", "arccos", "arcsin", "arctan", "arctan2",
    "array", "asarray", "atleast_1d", "broadcast_to", "cbrt", "ceil",
    "clip", "copy", "cos", "cosh", "deg2rad", "divide", "exp", "exp2",
    "expm1", "fabs", "floor", "floor_divide", "fmax", "fmin",
    "full_like", "hypot", "isfinite", "isnan", "log", "log10", "log1p",
    "log2", "maximum", "minimum", "mod", "multiply", "nan_to_num",
    "negative", "ones_like", "power", "rad2deg", "reciprocal",
    "remainder", "rint", "round", "sign", "sin", "sinh", "sqrt",
    "square", "subtract", "tan", "tanh", "true_divide", "where",
    "zeros_like",
})

#: Reductions: lanes -> scalar data, but array-aware (no finding).
UFUNC_COLLAPSING = frozenset({
    "all", "amax", "amin", "any", "argmax", "argmin", "count_nonzero",
    "dot", "inner", "max", "mean", "median", "min", "nanmax", "nanmean",
    "nanmin", "nansum", "norm", "percentile", "prod", "ptp", "quantile",
    "std", "sum", "trapezoid", "trapz", "var", "vdot",
})

#: Shape predicates: consume data, return untracked bookkeeping values.
SHAPE_PREDICATES = frozenset({
    "isscalar", "iterable", "ndim", "shape", "size",
})

#: Builtins that coerce data to a Python scalar (RPL013).
_COERCING_BUILTINS = frozenset({"float", "int", "round", "bool"})

#: Builtins that fold an iterable to a Python scalar (RPL015).
_FOLDING_BUILTINS = frozenset({"sum", "min", "max"})

#: Builtins that neither track nor corrupt: results leave the lattice.
_NEUTRAL_BUILTINS = frozenset({
    "all", "any", "dict", "divmod", "enumerate", "format", "frozenset",
    "getattr", "hasattr", "id", "isinstance", "issubclass", "iter",
    "len", "list", "map", "next", "print", "range", "repr", "reversed",
    "set", "sorted", "str", "tuple", "type", "zip",
})


def _is_numpy(dotted: Optional[str]) -> bool:
    return dotted is not None and (
        dotted == "numpy" or dotted.startswith("numpy.")
    )


def _is_scipy(dotted: Optional[str]) -> bool:
    return dotted is not None and (
        dotted == "scipy" or dotted.startswith("scipy.")
    )


# ---------------------------------------------------------------------------
# The cross-module capability summary
# ---------------------------------------------------------------------------
def capability(
    program: Program, info: ModuleInfo, func_name: str, depth: int = 0
) -> Optional[Capability]:
    """The memoized vectorization contract of one function, if known."""
    return program.summary(
        "capability",
        info,
        func_name,
        lambda: _capability_uncached(program, info, func_name, depth),
    )


def _capability_uncached(
    program: Program, info: ModuleInfo, func_name: str, depth: int
) -> Optional[Capability]:
    func = info.functions.get(func_name)
    if func is None:
        hop = program.resolve(info, func_name)
        return capability(program, *hop, depth) if hop is not None else None
    if depth >= MAX_CALL_DEPTH:
        return None
    shapes = ShapeAnalyzer(info, program, depth=depth + 1).analyze_function(
        func
    )
    if not shapes.seeded:
        return None  # no model-data params: nothing to contract
    hazard = _first_hazard(info, shapes)
    if hazard is not None:
        reason, line = hazard
        return Capability("scalar", reason, _site(info, line))
    return Capability("array", where=_site(info, func.lineno))


def _site(info: ModuleInfo, line: int) -> str:
    name = info.path.name if info.path is not None else "<mem>"
    return f"{name}:{line}"


def _first_hazard(
    info: ModuleInfo, shapes: FunctionShapes
) -> Optional[Tuple[str, int]]:
    """(reason, line) of the earliest silent hazard, if any."""
    events: List[Tuple[int, str]] = []
    for c in shapes.coercions:
        events.append((c.node.lineno, f"{c.func_text} coercion"))
    for b in shapes.branches:
        line = getattr(b.node, "lineno", 0)
        events.append((line, f"{b.construct} on data"))
    for f in shapes.folds:
        line = getattr(f.node, "lineno", 0)
        events.append((line, f"{f.op_text} fold"))
    for h in shapes.helper_calls:
        events.append((h.node.lineno, f"calls scalar-only '{h.callee}'"))
    if not events:
        return None
    line, reason = min(events)
    return reason, line


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------
class ShapeAnalyzer(ScopeWalker):
    """Walk one scope in program order, tracking model data per name."""

    UNMATCHED_TARGET_GETS_VALUE = True

    def __init__(
        self, info: ModuleInfo, program: Program, depth: int = 0
    ) -> None:
        super().__init__(info, program, depth)
        self._shapes = FunctionShapes(name="<none>", node=None)

    # ------------------------------------------------------------------
    def analyze_function(self, func: _FuncDef) -> FunctionShapes:
        args = func.args
        params = (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        )
        seeded = tuple(arg.arg for arg in params if seeds_param(arg))
        self._shapes = FunctionShapes(
            name=func.name, node=func, seeded=seeded
        )
        env: Dict[str, ShapeValue] = {}
        for arg in params:
            if arg.arg in seeded:
                env[arg.arg] = ShapeValue(
                    LANES, (Step(f"parameter '{arg.arg}'", arg.lineno),)
                )
        self._walk_root(func.body, env)
        return self._shapes

    # ------------------------------------------------------------------
    # Walker hooks
    # ------------------------------------------------------------------
    def _join(
        self, a: Dict[str, ShapeValue], b: Dict[str, ShapeValue]
    ) -> Dict[str, ShapeValue]:
        """May-analysis union: data on either path stays tracked."""
        out: Dict[str, ShapeValue] = {}
        for name in set(a) | set(b):
            va, vb = a.get(name), b.get(name)
            if va is None:
                out[name] = vb  # type: ignore[assignment]
            elif vb is None or va.lanes or va.shape == vb.shape:
                out[name] = va
            else:
                out[name] = vb
        return out

    def _visit(
        self, expr: ast.expr, env: Dict[str, ShapeValue]
    ) -> Optional[ShapeValue]:
        return self._eval(expr, env)

    def _test(
        self, stmt: Union[ast.If, ast.While], env: Dict[str, ShapeValue]
    ) -> None:
        test = self._eval(stmt.test, env)
        if test is None or not test.lanes:
            return
        if isinstance(stmt, ast.If):
            if not _raise_only(stmt):
                self._shapes.branches.append(BranchEvent(stmt, "if", test))
        else:
            self._shapes.branches.append(BranchEvent(stmt, "while", test))

    def _loop_header(
        self, stmt: Union[ast.For, ast.AsyncFor], env: Dict[str, ShapeValue]
    ) -> Dict[str, ShapeValue]:
        iter_value = self._eval(stmt.iter, env)
        env_body = dict(env)
        # One element of a lanes-shaped iterable is per-lane data.
        element = (
            iter_value.collapsed(
                f"element of {_expr_text(stmt.iter)}", stmt.lineno
            )
            if iter_value is not None
            else None
        )
        self._assign(stmt.target, stmt.iter, element, env_body, stmt)
        if (
            iter_value is not None
            and iter_value.lanes
            and _accumulates(stmt.body)
        ):
            self._shapes.folds.append(
                FoldEvent(stmt, "Python-scalar '+='", iter_value)
            )
        return env_body

    def _bind(
        self,
        target: ast.Name,
        value_node: ast.expr,
        value: Optional[ShapeValue],
        env: Dict[str, ShapeValue],
        stmt: ast.stmt,
    ) -> None:
        if value is not None:
            env[target.id] = value.derived(
                f"'{target.id}' = {_expr_text(value_node)}",
                getattr(stmt, "lineno", target.lineno),
            )
        else:
            env.pop(target.id, None)

    def _aug_assign(
        self, stmt: ast.AugAssign, env: Dict[str, ShapeValue]
    ) -> None:
        value = self._eval(stmt.value, env)
        if not isinstance(stmt.target, ast.Name):
            return
        name = stmt.target.id
        if name in self._untracked:
            return
        current = env.get(name)
        merged = self._pick(value, current)
        if merged is not None:
            env[name] = merged.derived(
                f"'{name}' {_aug_op(stmt.op)}= {_expr_text(stmt.value)}",
                stmt.lineno,
            )

    # ------------------------------------------------------------------
    # Expression evaluation (the abstract transfer function)
    # ------------------------------------------------------------------
    def _eval(
        self, node: Optional[ast.expr], env: Dict[str, ShapeValue]
    ) -> Optional[ShapeValue]:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Subscript):
            self._eval(node.slice, env)
            value = self._eval(node.value, env)
            if value is None:
                return None
            return value.derived(
                f"subscript of {_expr_text(node.value)}", node.lineno
            )
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, env)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            if isinstance(node.target, ast.Name) and value is not None:
                env[node.target.id] = value
            return value
        if isinstance(node, ast.IfExp):
            test = self._eval(node.test, env)
            if test is not None and test.lanes:
                self._shapes.branches.append(
                    BranchEvent(node, "ternary", test)
                )
            body = self._eval(node.body, env)
            orelse = self._eval(node.orelse, env)
            return self._pick(body, orelse)
        if isinstance(node, ast.BoolOp):
            values = [self._eval(v, env) for v in node.values]
            return self._first_data(values)
        if isinstance(node, ast.Compare):
            operands = [self._eval(node.left, env)] + [
                self._eval(c, env) for c in node.comparators
            ]
            # ``x is None`` / ``x in table`` are identity/membership
            # checks on the *object*, not elementwise data comparisons:
            # they stay well-defined for arrays, so they leave the
            # lattice.  Ordering/equality of lanes data is a lanes mask.
            if all(
                isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn))
                for op in node.ops
            ):
                return None
            return self._first_data(operands)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            return self._pick(left, right)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node, env)
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._eval(elt, env)
            return None
        return None

    def _eval_comprehension(
        self,
        node: Union[ast.ListComp, ast.SetComp, ast.GeneratorExp],
        env: Dict[str, ShapeValue],
    ) -> Optional[ShapeValue]:
        if not node.generators:
            return None
        source = self._eval(node.generators[0].iter, env)
        if source is None:
            return None
        return source.derived(
            f"comprehension over {_expr_text(node.generators[0].iter)}",
            node.lineno,
        )

    # ------------------------------------------------------------------
    def _first_data(
        self, values: Sequence[Optional[ShapeValue]]
    ) -> Optional[ShapeValue]:
        best: Optional[ShapeValue] = None
        for value in values:
            if value is None:
                continue
            if value.lanes:
                return value
            best = best or value
        return best

    def _pick(
        self, a: Optional[ShapeValue], b: Optional[ShapeValue]
    ) -> Optional[ShapeValue]:
        return self._first_data((a, b))

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _eval_call(
        self, node: ast.Call, env: Dict[str, ShapeValue]
    ) -> Optional[ShapeValue]:
        arg_values = [self._eval(arg, env) for arg in node.args]
        for kw in node.keywords:
            arg_values.append(self._eval(kw.value, env))
        data = self._first_data(arg_values)
        func = node.func
        if isinstance(func, ast.Name):
            return self._call_by_name(node, func.id, arg_values, data)
        if isinstance(func, ast.Attribute):
            return self._call_by_attribute(node, func, data, env)
        return data

    def _call_by_name(
        self,
        node: ast.Call,
        name: str,
        arg_values: Sequence[Optional[ShapeValue]],
        data: Optional[ShapeValue],
    ) -> Optional[ShapeValue]:
        if name == "abs":
            return data
        if name in _COERCING_BUILTINS:
            first = arg_values[0] if arg_values else None
            if first is not None and first.lanes:
                self._shapes.coercions.append(
                    CoercionEvent(node, f"{name}()", first)
                )
            if first is None:
                return None
            return first.collapsed(f"{name}()", node.lineno)
        if name in _FOLDING_BUILTINS:
            # Folding is the single-iterable form; ``max(a, b)`` is a
            # per-pair selection RPL014 territory does not cover.
            first = arg_values[0] if arg_values else None
            folds = name == "sum" or len(node.args) == 1
            if first is not None and first.lanes and folds:
                self._shapes.folds.append(
                    FoldEvent(node, f"built-in {name}()", first)
                )
            if first is None:
                return None
            return first.collapsed(f"built-in {name}()", node.lineno)
        if name in _NEUTRAL_BUILTINS:
            return None
        symbol = self.info.imports.get(name)
        if symbol is not None and symbol.module:
            if symbol.module == "math":
                return self._math_call(node, symbol.original, data)
            if _is_numpy(symbol.module):
                return self._numpy_call(node, symbol.original, data)
            if _is_scipy(symbol.module):
                return data  # scipy.special etc. are ufunc-like
        if name in self.info.functions or symbol is not None:
            return self._capability_call(node, self.info, name, name, data)
        if data is None:
            return None
        return data.derived(f"return of {name}()", node.lineno)

    def _call_by_attribute(
        self,
        node: ast.Call,
        func: ast.Attribute,
        data: Optional[ShapeValue],
        env: Dict[str, ShapeValue],
    ) -> Optional[ShapeValue]:
        root = func.value
        attrs = [func.attr]
        while isinstance(root, ast.Attribute):
            attrs.append(root.attr)
            root = root.value
        if isinstance(root, ast.Name):
            dotted = self.info.module_aliases.get(root.id)
            if dotted == "math":
                return self._math_call(node, func.attr, data)
            if _is_numpy(dotted):
                return self._numpy_call(node, func.attr, data)
            if _is_scipy(dotted):
                return data
            if dotted is not None:
                return self._module_attr_call(node, dotted, func.attr, data)
            receiver = env.get(root.id)
            if receiver is not None and len(attrs) == 1:
                # Method call on tracked data: ``x.sum()``-style numpy
                # methods follow the same elementwise/reduction split.
                merged = self._pick(receiver, data)
                if func.attr in UFUNC_COLLAPSING:
                    return receiver.collapsed(
                        f".{func.attr}()", node.lineno
                    )
                if func.attr in SHAPE_PREDICATES:
                    return None
                return merged
        if data is None:
            return None
        return data.derived(
            f"return of {_expr_text(func)}()", node.lineno
        )

    # ------------------------------------------------------------------
    def _math_call(
        self, node: ast.Call, fn: str, data: Optional[ShapeValue]
    ) -> Optional[ShapeValue]:
        if data is None:
            return None
        if fn != "fsum" and data.lanes:
            self._shapes.coercions.append(
                CoercionEvent(node, f"math.{fn}()", data)
            )
        return data.collapsed(f"math.{fn}()", node.lineno)

    def _numpy_call(
        self, node: ast.Call, fn: str, data: Optional[ShapeValue]
    ) -> Optional[ShapeValue]:
        if data is None:
            return None
        if fn in SHAPE_PREDICATES:
            return None
        if fn in UFUNC_COLLAPSING:
            return data.collapsed(f"np.{fn}()", node.lineno)
        if fn in UFUNC_ELEMENTWISE:
            return data.derived(f"np.{fn}()", node.lineno)
        return data  # unknown numpy call: stay conservative, no event

    def _module_attr_call(
        self,
        node: ast.Call,
        dotted: str,
        fn: str,
        data: Optional[ShapeValue],
    ) -> Optional[ShapeValue]:
        target = self.program.load_module(self.info, dotted, 0)
        if target is not None:
            return self._capability_call(node, target, fn, fn, data)
        if data is None:
            return None
        return data.derived(f"return of {dotted}.{fn}()", node.lineno)

    def _capability_call(
        self,
        node: ast.Call,
        info: ModuleInfo,
        func_name: str,
        display: str,
        data: Optional[ShapeValue],
    ) -> Optional[ShapeValue]:
        cap = capability(self.program, info, func_name, self.depth)
        if data is None:
            return None
        if cap is not None and cap.kind == "scalar":
            if data.lanes:
                self._shapes.helper_calls.append(
                    HelperCallEvent(node, display, cap, data)
                )
            return data.collapsed(
                f"return of scalar-only {display}()", node.lineno
            )
        return data.derived(f"return of {display}()", node.lineno)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def _raise_only(stmt: ast.If) -> bool:
    """A validation guard: every branch statement raises, no ``else``.

    Arrays hitting such a guard fail *loudly* (ambiguous truth value),
    so the guard is a driveability limit for ``repro vectorcheck``, not
    a silent-corruption hazard for RPL014.
    """
    return bool(stmt.body) and not stmt.orelse and all(
        isinstance(s, ast.Raise) for s in stmt.body
    )


def _accumulates(stmts: Sequence[ast.stmt]) -> bool:
    """True when a loop body contains an augmented accumulation."""
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                break
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub, ast.Mult)
            ):
                return True
    return False


_AUG_OPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%", ast.Pow: "**",
}


def _aug_op(op: ast.operator) -> str:
    return _AUG_OPS.get(type(op), "?")


# ---------------------------------------------------------------------------
# Engine entry point
# ---------------------------------------------------------------------------
def analyze_shape_scopes(ctx) -> List[FunctionShapes]:
    """Analyze every function scope of a file, cached on ``ctx``.

    Four rules consume the same streams, so the per-file analysis runs
    once per file.
    """
    scopes = ctx.analyses.get("shapes")
    if scopes is not None:
        return scopes
    program = get_program(ctx)
    analyzer = ShapeAnalyzer(context_info(ctx, program), program)
    scopes = [
        analyzer.analyze_function(node)
        for node in ctx.nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    ctx.analyses["shapes"] = scopes
    return scopes


__all__ = [
    "LANES",
    "SCALAR",
    "ShapeValue",
    "CoercionEvent",
    "BranchEvent",
    "FoldEvent",
    "HelperCallEvent",
    "FunctionShapes",
    "Capability",
    "ShapeAnalyzer",
    "analyze_shape_scopes",
    "capability",
    "seeds_param",
]
