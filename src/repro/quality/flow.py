"""Dataflow unit-inference engine: propagate units through code.

RPL001 reads units off identifier suffixes *at the point of use*, so
``eol = lifetime_months; total = eol + use_hours`` sails through — the
intermediate ``eol`` carries no suffix.  This module follows values
instead of names:

- **Lattice.**  Each tracked value is an :class:`Inferred` — a
  ``(dimension, scale)`` unit (simple :class:`~repro.quality.dimensions.
  UnitSuffix` or rate :class:`~repro.quality.dimensions.CompositeUnit`)
  plus a *witness chain* recording how the unit was derived.  ``None``
  is the lattice top (nothing known); joining incompatible units at a
  control-flow merge drops back to ``None``.

- **Intraprocedural abstract interpretation.**  :class:`ScopeWalker`
  walks a scope in program order with an environment mapping local
  names to lattice values: ``if``/``try`` branches are walked on
  environment copies and joined, loops are joined with their entry
  state, tuple unpacking is split per target, and ``global``/
  ``nonlocal`` names leave the environment.  The walker is
  lattice-parametric.  :class:`FlowAnalyzer` supplies the unit lattice
  (a must-join) and its transfer function, and
  :class:`repro.quality.shapes.ShapeAnalyzer` supplies the broadcast
  shape lattice (a may-union).  Units are seeded from suffixed names
  (params and locals), from literals scaled by :mod:`repro.units`
  constants (``3 * units.KWH`` is an energy in joules), and from
  call-site return units.

- **Conversion algebra.**  Multiplying or dividing by a
  :mod:`repro.units` constant rescales within a dimension
  (``e_kwh * units.KWH`` -> joules, ``e_j / units.KWH`` -> kWh);
  composite rates cancel against their denominator
  (``ci_gco2_per_kwh * energy_kwh`` -> gCO2e); a small product/quotient
  table handles the physical identities the models lean on
  (power x time -> energy, energy / time -> power, mass / area ->
  a per-area rate).

- **Interprocedural call graph.**  One :class:`Program` per lint run
  holds one :class:`ModuleInfo` per module, resolves callees
  (``from repro.x import f`` and ``import m as alias``) through the same
  on-disk package walk RPL005 uses, and memoizes per-function
  summaries with a cycle guard.  Three summaries share it: return
  units here (so ``total_j = source_energy_j(...) + standby_kwh`` is
  checked even when ``source_energy_j`` lives two modules away),
  vectorization capabilities in :mod:`repro.quality.shapes` and
  blocking witnesses in :mod:`repro.quality.concurrency`.

Rules RPL006 (inferred-unit mismatch) and RPL007 (lossy rebinding) in
:mod:`repro.quality.rules.flow_units` consume the recorded
:class:`OperandCheck` / :class:`RebindEvent` streams.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.quality.dimensions import (
    CONSTANT_TABLE,
    CompositeUnit,
    UnitLike,
    UnitSuffix,
    resolve_unit,
    suffix_for,
)

#: Recursion budget for call-graph return-unit inference.
MAX_CALL_DEPTH = 3

#: Witness chains are capped at this many rendered steps.
MAX_CHAIN_STEPS = 4

_S = TypeVar("_S")


# ---------------------------------------------------------------------------
# Lattice values
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Step:
    """One link in a witness chain: how a unit moved or originated."""

    note: str
    line: int

    def render(self) -> str:
        return f"{self.note} [line {self.line}]"


def render_chain(chain: Sequence[Step]) -> str:
    """A witness chain as text, most recent step first, capped."""
    steps = " <- ".join(step.render() for step in chain[:MAX_CHAIN_STEPS])
    if len(chain) > MAX_CHAIN_STEPS:
        steps += " <- ..."
    return steps


@dataclass(frozen=True)
class Inferred:
    """A lattice value: a unit plus the derivation that produced it.

    ``chain`` is most-recent-step-first.  ``fuzzy`` marks values whose
    scale passed through a bare numeric literal (``x_kg * 1000`` may be
    a quantity scaling *or* a manual unit conversion); fuzzy values
    still participate in dimension checks but are exempt from
    same-dimension *scale* mismatch findings.
    """

    unit: UnitLike
    chain: Tuple[Step, ...] = ()
    fuzzy: bool = False

    def derived(self, note: str, line: int, fuzzy: bool = False) -> "Inferred":
        return Inferred(
            unit=self.unit,
            chain=(Step(note, line),) + self.chain,
            fuzzy=self.fuzzy or fuzzy,
        )

    def with_unit(self, unit: UnitLike, note: str, line: int) -> "Inferred":
        return Inferred(
            unit=unit,
            chain=(Step(note, line),) + self.chain,
            fuzzy=self.fuzzy,
        )

    # ------------------------------------------------------------------
    def compatible(self, other: "Inferred") -> bool:
        return units_compatible(self.unit, other.unit)

    def same_dimension(self, other: "Inferred") -> bool:
        return dimension_of(self.unit) == dimension_of(other.unit)

    def describe(self) -> str:
        """``_kwh: suffix of 'standby_kwh' [line 4] <- ...`` witness."""
        steps = render_chain(self.chain)
        return f"_{self.unit.suffix} via {steps}" if steps else (
            f"_{self.unit.suffix}"
        )


@dataclass(frozen=True)
class Conversion:
    """A :mod:`repro.units` constant used as a scale factor.

    ``unit`` is the table suffix the constant scales: ``units.KWH`` is
    3.6e6 (joules per kilowatt-hour), i.e. the scale of ``_kwh``.
    """

    name: str
    unit: UnitSuffix


_Value = Optional[Union[Inferred, Conversion]]


def dimension_of(unit: UnitLike) -> str:
    return unit.dimension


def units_compatible(a: UnitLike, b: UnitLike) -> bool:
    """Addable/comparable: same dimension at the same scale."""
    if isinstance(a, UnitSuffix) and isinstance(b, UnitSuffix):
        return a.compatible(b)
    if isinstance(a, CompositeUnit) and isinstance(b, CompositeUnit):
        return a.compatible(b)
    return False


# ---------------------------------------------------------------------------
# Physical identities used by the product/quotient algebra
# ---------------------------------------------------------------------------
#: (dim_a, dim_b) -> resulting dimension for ``a * b`` (symmetric pairs
#: are both listed).
_PRODUCTS: Dict[Tuple[str, str], str] = {
    ("power", "time"): "energy",
    ("time", "power"): "energy",
    ("length", "length"): "area",
}

#: (numerator_dim, denominator_dim) -> resulting dimension for ``a / b``.
_QUOTIENTS: Dict[Tuple[str, str], str] = {
    ("energy", "time"): "power",
    ("energy", "power"): "time",
    ("area", "length"): "length",
}


# ---------------------------------------------------------------------------
# Events recorded for the rules
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OperandCheck:
    """A ``+``/``-``/comparison whose operand units were evaluated."""

    node: ast.AST
    op: str
    left_node: ast.AST
    right_node: ast.AST
    left: Optional[Inferred]
    right: Optional[Inferred]


@dataclass(frozen=True)
class RebindEvent:
    """A name whose inferred unit changed across an assignment."""

    node: ast.AST
    name: str
    old: Inferred
    new: Inferred
    converted: bool


@dataclass(frozen=True)
class TargetMismatch:
    """A suffixed assignment target receiving an incompatible value."""

    node: ast.AST
    name: str
    declared: UnitLike
    value: Inferred
    value_node: ast.AST
    converted: bool


@dataclass
class FunctionFlow:
    """Everything the flow rules need about one analyzed scope."""

    name: str
    declared: Optional[UnitLike]
    checks: List[OperandCheck] = field(default_factory=list)
    rebindings: List[RebindEvent] = field(default_factory=list)
    target_mismatches: List[TargetMismatch] = field(default_factory=list)
    returns: List[Tuple[ast.Return, Optional[Inferred]]] = field(
        default_factory=list
    )


# ---------------------------------------------------------------------------
# Module metadata and the cross-module program
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ImportedSymbol:
    """``from <module> import <original> as <local>`` (level dots kept)."""

    module: Optional[str]
    level: int
    original: str


_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def parameters(args: ast.arguments) -> List[ast.arg]:
    """Every parameter of a signature, ``*args`` and ``**kwargs`` last."""
    return (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    )


@dataclass
class ModuleInfo:
    """Per-module facts the analyzer needs: defs, imports, aliases."""

    key: str
    path: Optional[Path]
    tree: ast.Module
    package_root: Optional[Path]
    functions: Dict[str, _FuncDef] = field(default_factory=dict)
    imports: Dict[str, ImportedSymbol] = field(default_factory=dict)
    #: local alias -> dotted module path (``import repro.units as u``,
    #: ``from repro import units``).
    module_aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        tree: ast.Module,
        path: Optional[Path] = None,
        package_root: Optional[Path] = None,
        key: Optional[str] = None,
    ) -> "ModuleInfo":
        info = cls(
            key=key or (str(path) if path is not None else f"<mem:{id(tree)}>"),
            path=path,
            tree=tree,
            package_root=package_root,
        )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    dotted = alias.name if alias.asname else alias.name.split(
                        "."
                    )[0]
                    info.module_aliases[local] = dotted
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = ImportedSymbol(
                        module=stmt.module,
                        level=stmt.level,
                        original=alias.name,
                    )
                    # ``from repro import units`` binds a *module*; track
                    # it as an alias too so ``units.KWH`` resolves.
                    dotted = (
                        f"{stmt.module}.{alias.name}"
                        if stmt.module
                        else alias.name
                    )
                    info.module_aliases.setdefault(local, dotted)
        return info

    def is_units_alias(self, name: str) -> bool:
        dotted = self.module_aliases.get(name)
        if dotted is None:
            return False
        return dotted == "units" or dotted.endswith(".units")


class Program:
    """Cross-module function summaries, shared across one lint run.

    Holds a parse cache (usually the engine's shared ``_ModuleCache``),
    one :class:`ModuleInfo` per module, one callee resolver
    (:meth:`resolve`) and one memo per summary kind (:meth:`summary`).
    Three summaries use them: return units here, vectorization
    capabilities (:func:`repro.quality.shapes.capability`) and blocking
    witnesses (:func:`repro.quality.concurrency.blocking_witness`), so
    repo-wide runs stay linear in file count.
    """

    def __init__(self, parse=None) -> None:
        self._parse = parse  # callable: Path -> Optional[ast.Module]
        self._infos: Dict[str, ModuleInfo] = {}
        self._summaries: Dict[str, Dict[Tuple[str, str], object]] = {}

    # ------------------------------------------------------------------
    def info_for(
        self,
        tree: ast.Module,
        path: Optional[Path] = None,
        package_root: Optional[Path] = None,
    ) -> ModuleInfo:
        key = str(path) if path is not None else f"<mem:{id(tree)}>"
        info = self._infos.get(key)
        if info is None:
            info = ModuleInfo.build(
                tree, path=path, package_root=package_root, key=key
            )
            self._infos[key] = info
        return info

    # ------------------------------------------------------------------
    def load_module(
        self, origin: ModuleInfo, module: Optional[str], level: int
    ) -> Optional[ModuleInfo]:
        """Resolve an import to a :class:`ModuleInfo`, if on disk."""
        if self._parse is None or origin.path is None:
            return None
        if level > 0:
            base = origin.path.parent
            for _ in range(level - 1):
                base = base.parent
        elif origin.package_root is not None:
            base = origin.package_root
        else:
            return None
        if module:
            base = base.joinpath(*module.split("."))
        for candidate in (base.with_suffix(".py"), base / "__init__.py"):
            if candidate.is_file():
                tree = self._parse(candidate)
                if tree is None:
                    return None
                root = origin.package_root
                if level > 0 or root is None:
                    from repro.quality.engine import find_package_root

                    root = find_package_root(candidate)
                return self.info_for(
                    tree, path=candidate.resolve(), package_root=root
                )
        return None

    def resolve(
        self, info: ModuleInfo, func: Union[str, ast.expr]
    ) -> Optional[Tuple[ModuleInfo, str]]:
        """The ``(module, name)`` a callee resolves to, one hop away.

        ``func`` is a called name or a call's function expression.  A
        name resolves to a def of ``info`` or, through ``from m import
        f``, to ``m``; ``alias.f`` resolves through ``import m as
        alias``.  ``None`` when nothing on disk matches.
        """
        if isinstance(func, ast.Attribute):
            if not isinstance(func.value, ast.Name):
                return None
            dotted = info.module_aliases.get(func.value.id)
            if dotted is None:
                return None
            target = self.load_module(info, dotted, 0)
            return (target, func.attr) if target is not None else None
        name = func.id if isinstance(func, ast.Name) else func
        if not isinstance(name, str):
            return None
        if name in info.functions:
            return info, name
        symbol = info.imports.get(name)
        if symbol is None:
            return None
        target = self.load_module(info, symbol.module, symbol.level)
        return (target, symbol.original) if target is not None else None

    def summary(
        self,
        kind: str,
        info: ModuleInfo,
        func_name: str,
        compute: Callable[[], _S],
    ) -> Optional[_S]:
        """The memoized ``kind`` summary of one function.

        The memo key is ``(module key, name)`` with no depth in it, and
        it holds ``None`` while ``compute()`` runs, so recursion reads
        "unknown" instead of looping.  A result therefore depends on
        the order functions are first reached.
        """
        memo = self._summaries.setdefault(kind, {})
        key = (info.key, func_name)
        if key in memo:
            return memo[key]  # type: ignore[return-value]
        memo[key] = None  # cycle guard
        value = compute()
        memo[key] = value
        return value

    # ------------------------------------------------------------------
    def return_unit(
        self, info: ModuleInfo, func_name: str, depth: int = 0
    ) -> Optional[UnitLike]:
        """The unit a function returns, following imports and bodies.

        A suffix on the function name is authoritative (it is the
        declared contract RPL001 already enforces at return sites);
        otherwise the body is analyzed and a unit is reported only when
        every ``return`` expression agrees.
        """
        return self.summary(
            "return_unit",
            info,
            func_name,
            lambda: self._return_unit_uncached(info, func_name, depth),
        )

    def _return_unit_uncached(
        self, info: ModuleInfo, func_name: str, depth: int
    ) -> Optional[UnitLike]:
        func = info.functions.get(func_name)
        if func is None:
            hop = self.resolve(info, func_name)
            if hop is not None:
                return self.return_unit(*hop, depth)
            # An import whose module is not on disk: trust its suffix.
            return resolve_unit(func_name) if func_name in info.imports else None
        declared = resolve_unit(func.name)
        if declared is not None:
            return declared
        if depth >= MAX_CALL_DEPTH:
            return None
        analyzer = FlowAnalyzer(info, self, depth=depth + 1)
        flow = analyzer.analyze_function(func)
        units = [inf.unit for _, inf in flow.returns if inf is not None]
        if not units or len(units) != len(flow.returns):
            return None
        first = units[0]
        if all(units_compatible(first, u) for u in units[1:]):
            return first
        return None


def get_program(ctx) -> Program:
    """The per-run :class:`Program`, cached on the engine's module cache."""
    extras = ctx.modules.extras
    if "flow.program" not in extras:
        extras["flow.program"] = Program(parse=ctx.modules.parse)
    return extras["flow.program"]


def context_info(ctx, program: Program) -> ModuleInfo:
    """The :class:`ModuleInfo` for an engine :class:`FileContext`."""
    path = ctx.path if ctx.path.is_file() else None
    return program.info_for(
        ctx.tree,
        path=path.resolve() if path is not None else None,
        package_root=ctx.package_root,
    )


# ---------------------------------------------------------------------------
# The analyzer
# ---------------------------------------------------------------------------
_CMP_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _is_number(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _expr_text(node: ast.AST, limit: int = 40) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        text = "<expr>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


def walk_scope(body: Sequence[ast.AST]) -> Iterator[ast.AST]:
    """All nodes of a scope without entering nested def/lambda bodies."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


#: A walker environment: local name -> the subclass's lattice value.
_Env = Dict[str, Any]


class ScopeWalker:
    """Walk one scope in program order over an environment of lattice values.

    The statement walk, the branch and loop merges, destructuring and
    ``global``/``nonlocal`` bookkeeping are shared.  A subclass supplies
    its lattice and transfer function through these hooks: ``_join``,
    ``_eval``, ``_visit`` (an expression whose value is used),
    ``_scan`` (one whose value is not), ``_test`` (an ``if``/``while``
    test), ``_loop_header``, ``_returned``, ``_aug_assign`` and
    ``_bind`` (a name binding).
    """

    #: Destructuring target with no matching right-hand element: does
    #: it receive the whole right-hand value (or nothing)?
    UNMATCHED_TARGET_GETS_VALUE = False

    def __init__(
        self, info: ModuleInfo, program: Program, depth: int = 0
    ) -> None:
        self.info = info
        self.program = program
        self.depth = depth
        #: names whose tracking is abandoned (``global``/``nonlocal``).
        self._untracked: set = set()

    # ------------------------------------------------------------------
    def _walk_root(self, stmts: Sequence[ast.stmt], env: _Env) -> None:
        self._untracked = set()
        self._walk_body(stmts, env)

    def _walk_body(self, stmts: Sequence[ast.stmt], env: _Env) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt, env)

    def _walk_stmt(self, stmt: ast.stmt, env: _Env) -> None:
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # nested scopes are analyzed separately
        if isinstance(stmt, ast.Assign):
            value = self._visit(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, stmt.value, value, env, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self._visit(stmt.value, env)
                self._assign(stmt.target, stmt.value, value, env, stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt, env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._returned(stmt, self._visit(stmt.value, env))
        elif isinstance(stmt, ast.If):
            self._test(stmt, env)
            env_body = dict(env)
            env_else = dict(env)
            self._walk_body(stmt.body, env_body)
            self._walk_body(stmt.orelse, env_else)
            self._merge(env, self._join(env_body, env_else))
        elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            if isinstance(stmt, ast.While):
                self._test(stmt, env)
                env_body = dict(env)
            else:
                env_body = self._loop_header(stmt, env)
            self._walk_body(stmt.body, env_body)
            self._walk_body(stmt.orelse, env_body)
            self._merge(env, self._join(env, env_body))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(
                        item.optional_vars, item.context_expr, None, env, stmt
                    )
            self._walk_body(stmt.body, env)
        elif isinstance(stmt, ast.Try):
            env_body = dict(env)
            self._walk_body(stmt.body, env_body)
            joined = env_body
            for handler in stmt.handlers:
                env_handler = dict(env)
                self._walk_body(handler.body, env_handler)
                joined = self._join(joined, env_handler)
            self._merge(env, joined)
            self._walk_body(stmt.orelse, env)
            self._walk_body(stmt.finalbody, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
            for name in stmt.names:
                env.pop(name, None)
                self._untracked.add(name)
        else:
            # Assert, Raise, Expr, ...: visit the embedded expressions.
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._scan(child, env)

    @staticmethod
    def _merge(env: _Env, joined: _Env) -> None:
        env.clear()
        env.update(joined)

    def _assign(
        self,
        target: ast.expr,
        value_node: ast.expr,
        value,
        env: _Env,
        stmt: ast.stmt,
    ) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            elements: Sequence[Optional[ast.expr]]
            if isinstance(value_node, (ast.Tuple, ast.List)) and len(
                value_node.elts
            ) == len(target.elts):
                elements = value_node.elts
            else:
                elements = [None] * len(target.elts)
            unmatched = value if self.UNMATCHED_TARGET_GETS_VALUE else None
            for sub_target, sub_value in zip(target.elts, elements):
                if sub_value is None:
                    self._assign(sub_target, target, unmatched, env, stmt)
                else:
                    sub = self._eval(sub_value, env)
                    self._assign(sub_target, sub_value, sub, env, stmt)
            return
        # Attribute/subscript stores are not tracked.
        if isinstance(target, ast.Name) and target.id not in self._untracked:
            self._bind(target, value_node, value, env, stmt)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _join(self, a: _Env, b: _Env) -> _Env:
        raise NotImplementedError

    def _eval(self, node: Optional[ast.expr], env: _Env):
        raise NotImplementedError

    def _visit(self, expr: ast.expr, env: _Env):
        """Record an expression's events and return its value."""
        raise NotImplementedError

    def _scan(self, expr: ast.expr, env: _Env) -> None:
        """Record an expression's events; its value is not used."""
        self._visit(expr, env)

    def _test(self, stmt: Union[ast.If, ast.While], env: _Env) -> None:
        self._scan(stmt.test, env)

    def _loop_header(
        self, stmt: Union[ast.For, ast.AsyncFor], env: _Env
    ) -> _Env:
        """Bind the loop target; return the environment for the body."""
        raise NotImplementedError

    def _returned(self, stmt: ast.Return, value) -> None:
        pass

    def _aug_assign(self, stmt: ast.AugAssign, env: _Env) -> None:
        raise NotImplementedError

    def _bind(
        self,
        target: ast.Name,
        value_node: ast.expr,
        value,
        env: _Env,
        stmt: ast.stmt,
    ) -> None:
        raise NotImplementedError


class FlowAnalyzer(ScopeWalker):
    """Walk one scope in program order, tracking units per local name."""

    def __init__(
        self, info: ModuleInfo, program: Program, depth: int = 0
    ) -> None:
        super().__init__(info, program, depth)
        self._flow: FunctionFlow = FunctionFlow(name="<none>", declared=None)

    # ------------------------------------------------------------------
    def analyze_function(self, func: _FuncDef) -> FunctionFlow:
        self._flow = FunctionFlow(
            name=func.name, declared=resolve_unit(func.name)
        )
        env: Dict[str, Inferred] = {}
        for arg in parameters(func.args):
            unit = resolve_unit(arg.arg)
            if unit is not None:
                env[arg.arg] = Inferred(
                    unit, (Step(f"parameter '{arg.arg}'", arg.lineno),)
                )
        self._walk_root(func.body, env)
        return self._flow

    def analyze_module(self) -> FunctionFlow:
        self._flow = FunctionFlow(name="<module>", declared=None)
        self._walk_root(self.info.tree.body, {})
        return self._flow

    # ------------------------------------------------------------------
    # Walker hooks
    # ------------------------------------------------------------------
    def _join(
        self, a: Dict[str, Inferred], b: Dict[str, Inferred]
    ) -> Dict[str, Inferred]:
        """Lattice join: keep names whose units agree on both paths."""
        out: Dict[str, Inferred] = {}
        for name, value in a.items():
            other = b.get(name)
            if other is not None and value.compatible(other):
                out[name] = value
        return out

    def _visit(self, expr: ast.expr, env: Dict[str, Inferred]) -> _Value:
        self._check_expr(expr, env)
        return self._eval(expr, env)

    def _scan(self, expr: ast.expr, env: Dict[str, Inferred]) -> None:
        self._check_expr(expr, env)

    def _loop_header(
        self, stmt: Union[ast.For, ast.AsyncFor], env: Dict[str, Inferred]
    ) -> Dict[str, Inferred]:
        self._check_expr(stmt.iter, env)
        env_body = dict(env)
        iter_value = self._eval(stmt.iter, env)
        seeded = (
            iter_value.derived("loop over iterable", stmt.lineno)
            if isinstance(iter_value, Inferred)
            else None
        )
        self._assign(stmt.target, stmt.iter, seeded, env_body, stmt)
        return env_body

    def _returned(self, stmt: ast.Return, value: _Value) -> None:
        self._flow.returns.append(
            (stmt, value if isinstance(value, Inferred) else None)
        )

    def _bind(
        self,
        target: ast.Name,
        value_node: ast.expr,
        value: _Value,
        env: Dict[str, Inferred],
        stmt: ast.stmt,
    ) -> None:
        name = target.id
        inferred = value if isinstance(value, Inferred) else None
        declared = resolve_unit(name)
        converted = self._mentions_units(value_node)
        if inferred is not None:
            if declared is not None and not units_compatible(
                declared, inferred.unit
            ):
                self._flow.target_mismatches.append(
                    TargetMismatch(
                        node=stmt,
                        name=name,
                        declared=declared,
                        value=inferred,
                        value_node=value_node,
                        converted=converted,
                    )
                )
            old = env.get(name)
            if (
                old is not None
                and declared is None
                and not old.same_dimension(inferred)
            ):
                self._flow.rebindings.append(
                    RebindEvent(
                        node=stmt,
                        name=name,
                        old=old,
                        new=inferred,
                        converted=converted,
                    )
                )
            env[name] = inferred.derived(
                f"'{name}' = {_expr_text(value_node)}",
                getattr(stmt, "lineno", target.lineno),
            )
            return
        # Unknown RHS: the target's own suffix (if any) re-seeds it.
        if declared is not None:
            env[name] = Inferred(
                declared,
                (Step(f"suffix of '{name}'", target.lineno),),
            )
        else:
            env.pop(name, None)

    def _aug_assign(
        self, stmt: ast.AugAssign, env: Dict[str, Inferred]
    ) -> None:
        self._check_expr(stmt.value, env)
        if not isinstance(stmt.target, ast.Name):
            return
        value = self._eval(stmt.value, env)
        current = env.get(stmt.target.id)
        if current is None:
            unit = resolve_unit(stmt.target.id)
            if unit is not None:
                current = Inferred(
                    unit,
                    (Step(f"suffix of '{stmt.target.id}'", stmt.lineno),),
                )
        if isinstance(stmt.op, (ast.Add, ast.Sub)) and isinstance(
            value, Inferred
        ):
            self._flow.checks.append(
                OperandCheck(
                    node=stmt,
                    op="+=" if isinstance(stmt.op, ast.Add) else "-=",
                    left_node=stmt.target,
                    right_node=stmt.value,
                    left=current,
                    right=value,
                )
            )

    # ------------------------------------------------------------------
    # Expression checking (records OperandChecks for the rules)
    # ------------------------------------------------------------------
    def _check_expr(self, expr: ast.expr, env: Dict[str, Inferred]) -> None:
        for node in walk_scope((expr,)):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                op = "+" if isinstance(node.op, ast.Add) else "-"
                self._check(node, op, node.left, node.right, env)
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for op, lhs, rhs in zip(node.ops, operands, operands[1:]):
                    if isinstance(op, _CMP_OPS):
                        self._check(node, "comparison", lhs, rhs, env)

    def _check(
        self,
        node: ast.expr,
        op: str,
        lhs: ast.expr,
        rhs: ast.expr,
        env: Dict[str, Inferred],
    ) -> None:
        left = self._eval(lhs, env)
        right = self._eval(rhs, env)
        self._flow.checks.append(
            OperandCheck(
                node=node,
                op=op,
                left_node=lhs,
                right_node=rhs,
                left=left if isinstance(left, Inferred) else None,
                right=right if isinstance(right, Inferred) else None,
            )
        )

    # ------------------------------------------------------------------
    # Expression evaluation (the abstract transfer function)
    # ------------------------------------------------------------------
    def _eval(self, node: Optional[ast.expr], env: Dict[str, Inferred]) -> _Value:
        if node is None:
            return None
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            conversion = self._conversion_for_name(node.id)
            if conversion is not None:
                return conversion
            if node.id in self._untracked:
                return None
            unit = resolve_unit(node.id)
            if unit is not None:
                return Inferred(
                    unit, (Step(f"suffix of '{node.id}'", node.lineno),)
                )
            return None
        if isinstance(node, ast.Attribute):
            conversion = self._conversion_for_attribute(node)
            if conversion is not None:
                return conversion
            unit = resolve_unit(node.attr)
            if unit is not None:
                return Inferred(
                    unit,
                    (Step(f"suffix of attribute '.{node.attr}'", node.lineno),),
                )
            return None
        if isinstance(node, ast.Subscript):
            return self._eval(node.value, env)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, ast.UnaryOp) and isinstance(
            node.op, (ast.UAdd, ast.USub)
        ):
            return self._eval(node.operand, env)
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, env)
            if isinstance(node.target, ast.Name) and isinstance(
                value, Inferred
            ):
                env[node.target.id] = value
            return value
        if isinstance(node, ast.IfExp):
            body = self._eval(node.body, env)
            orelse = self._eval(node.orelse, env)
            if (
                isinstance(body, Inferred)
                and isinstance(orelse, Inferred)
                and body.compatible(orelse)
            ):
                return body
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        return None

    # ------------------------------------------------------------------
    def _eval_binop(self, node: ast.BinOp, env: Dict[str, Inferred]) -> _Value:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if (
                isinstance(left, Inferred)
                and isinstance(right, Inferred)
                and left.compatible(right)
            ):
                return left
            return None
        if isinstance(node.op, ast.Mult):
            return self._eval_mult(node, left, right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return self._eval_div(node, left, right)
        return None

    def _eval_mult(self, node: ast.BinOp, left: _Value, right: _Value) -> _Value:
        # Literal scaling keeps the unit but marks it fuzzy: ``x_kg *
        # 1000`` may be quantity scaling or a manual conversion.
        if isinstance(left, Inferred) and right is None:
            if _is_number(node.right):
                return left.derived(
                    f"scaled by {_expr_text(node.right)}",
                    node.lineno,
                    fuzzy=_literal_value(node.right) != 1,
                )
            return None
        if isinstance(right, Inferred) and left is None:
            if _is_number(node.left):
                return right.derived(
                    f"scaled by {_expr_text(node.left)}",
                    node.lineno,
                    fuzzy=_literal_value(node.left) != 1,
                )
            return None
        if isinstance(right, Conversion):
            return self._mul_conversion(node, left, right)
        if isinstance(left, Conversion):
            return self._mul_conversion(node, right, left)
        if isinstance(left, Inferred) and isinstance(right, Inferred):
            return self._unit_product(node, left, right)
        return None

    def _mul_conversion(
        self, node: ast.BinOp, value: _Value, conv: Conversion
    ) -> _Value:
        factor = conv.unit
        note = f"x units.{conv.name}"
        if not isinstance(value, Inferred):
            # ``3 * units.KWH``: the literal is implicitly in the
            # constant's unit; the product is in SI base units.
            base = suffix_for(factor.dimension, 1.0)
            if base is None:
                return None
            return Inferred(base, (Step(note, node.lineno),))
        unit = value.unit
        if isinstance(unit, UnitSuffix):
            if unit.dimension == factor.dimension:
                rescaled = suffix_for(unit.dimension, unit.scale / factor.scale)
                if rescaled is None:
                    return None
                return value.with_unit(rescaled, note, node.lineno)
            # Cross-dimension: the constant acts as a base-scale quantity
            # (``power_w * units.HOUR`` is an energy in joules).
            as_quantity = suffix_for(factor.dimension, 1.0)
            if as_quantity is None:
                return None
            return self._unit_product(
                node, value, Inferred(as_quantity, (Step(note, node.lineno),))
            )
        if isinstance(unit, CompositeUnit):
            if unit.denominator.dimension != factor.dimension:
                return None
            if unit.numerator is None:
                return None
            scale = unit.scale * factor.scale
            result = suffix_for(unit.numerator.dimension, scale)
            if result is None:
                return None
            return value.with_unit(result, note, node.lineno)
        return None

    def _unit_product(
        self, node: ast.BinOp, left: Inferred, right: Inferred
    ) -> _Value:
        a, b = left.unit, right.unit
        note = "product"
        # Rate x matching denominator cancels: gCO2e/kWh x kWh -> gCO2e.
        for composite, simple, source in (
            (a, b, left),
            (b, a, right),
        ):
            if isinstance(composite, CompositeUnit) and isinstance(
                simple, UnitSuffix
            ):
                if composite.denominator.dimension != simple.dimension:
                    return None
                if composite.numerator is None:
                    return None
                scale = composite.scale * simple.scale
                result = suffix_for(composite.numerator.dimension, scale)
                if result is None:
                    return None
                merged = Inferred(
                    result,
                    (Step(note, node.lineno),)
                    + source.chain[: MAX_CHAIN_STEPS - 1],
                    fuzzy=left.fuzzy or right.fuzzy,
                )
                return merged
        if isinstance(a, UnitSuffix) and isinstance(b, UnitSuffix):
            target = _PRODUCTS.get((a.dimension, b.dimension))
            if target is None:
                return None
            result = suffix_for(target, a.scale * b.scale)
            if result is None:
                return None
            return Inferred(
                result,
                (Step(note, node.lineno),) + left.chain[: MAX_CHAIN_STEPS - 1],
                fuzzy=left.fuzzy or right.fuzzy,
            )
        return None

    def _eval_div(self, node: ast.BinOp, left: _Value, right: _Value) -> _Value:
        if isinstance(left, Inferred) and right is None and _is_number(
            node.right
        ):
            return left.derived(
                f"divided by {_expr_text(node.right)}",
                node.lineno,
                fuzzy=_literal_value(node.right) != 1,
            )
        if isinstance(right, Conversion):
            factor = right.unit
            note = f"/ units.{right.name}"
            if not isinstance(left, Inferred):
                return None  # e.g. a bare ratio like 2 / units.KWH
            unit = left.unit
            if isinstance(unit, UnitSuffix) and (
                unit.dimension == factor.dimension
            ):
                rescaled = suffix_for(
                    unit.dimension, unit.scale * factor.scale
                )
                if rescaled is None:
                    return None
                return left.with_unit(rescaled, note, node.lineno)
            return None
        if isinstance(left, Inferred) and isinstance(right, Inferred):
            a, b = left.unit, right.unit
            if units_compatible(a, b):
                return None  # dimensionless ratio
            if isinstance(a, UnitSuffix) and isinstance(b, UnitSuffix):
                target = _QUOTIENTS.get((a.dimension, b.dimension))
                if target is not None:
                    result = suffix_for(target, a.scale / b.scale)
                    if result is not None:
                        return Inferred(
                            result,
                            (Step("quotient", node.lineno),)
                            + left.chain[: MAX_CHAIN_STEPS - 1],
                            fuzzy=left.fuzzy or right.fuzzy,
                        )
                if a.dimension == b.dimension:
                    return None  # same dimension, different scale: murky
                return Inferred(
                    CompositeUnit(numerator=a, denominator=b),
                    (Step("ratio", node.lineno),)
                    + left.chain[: MAX_CHAIN_STEPS - 1],
                    fuzzy=left.fuzzy or right.fuzzy,
                )
            return None
        return None

    # ------------------------------------------------------------------
    def _eval_call(self, node: ast.Call) -> _Value:
        func = node.func
        if isinstance(func, ast.Name):
            unit = self._callable_unit(func.id)
            if unit is not None:
                return Inferred(
                    unit,
                    (Step(f"return of {func.id}()", node.lineno),),
                )
            return None
        if isinstance(func, ast.Attribute):
            # ``module_alias.func(...)``: resolve through the alias.
            hop = self.program.resolve(self.info, func)
            if hop is not None:
                unit = self.program.return_unit(*hop, self.depth)
                if unit is None:
                    return None
                return Inferred(
                    unit,
                    (Step(f"return of {ast.unparse(func)}()", node.lineno),),
                )
            unit = resolve_unit(func.attr)
            if unit is not None:
                return Inferred(
                    unit,
                    (Step(f"return of .{func.attr}()", node.lineno),),
                )
        return None

    def _callable_unit(self, name: str) -> Optional[UnitLike]:
        if name in self.info.functions or name in self.info.imports:
            return self.program.return_unit(self.info, name, self.depth)
        return resolve_unit(name)

    # ------------------------------------------------------------------
    # units.py constant recognition
    # ------------------------------------------------------------------
    def _conversion_for_name(self, name: str) -> Optional[Conversion]:
        """``from repro.units import KWH`` -> Conversion for bare KWH."""
        symbol = self.info.imports.get(name)
        if symbol is None or not symbol.module:
            return None
        if symbol.module != "units" and not symbol.module.endswith(".units"):
            return None
        entry = CONSTANT_TABLE.get(symbol.original)
        if entry is None:
            return None
        return Conversion(name=symbol.original, unit=entry)

    def _conversion_for_attribute(
        self, node: ast.Attribute
    ) -> Optional[Conversion]:
        """``units.KWH`` / ``repro.units.KWH`` -> Conversion."""
        entry = CONSTANT_TABLE.get(node.attr)
        if entry is None:
            return None
        base = node.value
        if isinstance(base, ast.Name):
            if base.id == "units" or self.info.is_units_alias(base.id):
                return Conversion(name=node.attr, unit=entry)
            return None
        if isinstance(base, ast.Attribute) and base.attr == "units":
            return Conversion(name=node.attr, unit=entry)
        return None

    def _mentions_units(self, node: ast.expr) -> bool:
        """True when the expression references :mod:`repro.units` at all.

        Used as the "explicit conversion" escape hatch for RPL007: a
        rebinding that goes through a units constant or helper
        (``x * units.MONTH``, ``units.joules_to_kwh(x)``) is deliberate.
        """
        for sub in walk_scope((node,)):
            if isinstance(sub, ast.Attribute):
                base = sub.value
                if isinstance(base, ast.Name) and (
                    base.id == "units" or self.info.is_units_alias(base.id)
                ):
                    return True
                if isinstance(base, ast.Attribute) and base.attr == "units":
                    return True
            elif isinstance(sub, ast.Name):
                symbol = self.info.imports.get(sub.id)
                if symbol is not None and symbol.module and (
                    symbol.module == "units"
                    or symbol.module.endswith(".units")
                ):
                    return True
        return False


def _literal_value(node: ast.AST) -> object:
    return node.value if isinstance(node, ast.Constant) else None


def analyze_scopes(ctx) -> List[FunctionFlow]:
    """Analyze every scope of a file: module body + each function.

    The shared per-run :class:`Program` comes from the engine's module
    cache, so cross-module summaries are computed once per lint run;
    the file's flows are computed once and cached on ``ctx``.
    """
    flows = ctx.analyses.get("flow")
    if flows is not None:
        return flows
    program = get_program(ctx)
    info = context_info(ctx, program)
    analyzer = FlowAnalyzer(info, program)
    flows = [analyzer.analyze_module()]
    for node in ctx.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            flows.append(analyzer.analyze_function(node))
    ctx.analyses["flow"] = flows
    return flows
