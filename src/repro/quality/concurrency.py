"""Concurrency analysis layer shared by rules RPL009-RPL012.

PRs 6-7 made the repro genuinely concurrent: an asyncio HTTP server
with a window batcher, thread-locked observability, and process-pool
fan-out.  The unit lattice (:mod:`repro.quality.flow`) cannot see the
hazards that concurrency introduces, so this module provides the
static machinery the concurrency rules build on:

- **Blocking-call classification.**  :func:`classify_blocking_call`
  recognizes event-loop-blocking operations by shape: ``time.sleep``,
  sync disk I/O (``open``, ``Path.read_text``/``write_text``),
  socket/subprocess calls, and ``.get``/``.put`` round-trips on
  :class:`~repro.runtime.cache.SweepCache` /
  :class:`~repro.runtime.cache.ResultCache`-shaped receivers (any
  receiver whose final component names a cache).

- **Transitive reach.**  :class:`BlockingIndex` reuses the flow
  engine's cross-module machinery (:class:`~repro.quality.flow.Program`
  / :class:`~repro.quality.flow.ModuleInfo`, same ``MAX_CALL_DEPTH``
  recursion budget) to follow a call from an ``async def`` through
  module-level and imported sync helpers: if anything reachable within
  the budget blocks — or the call lands in the heavy ``repro.core`` /
  ``repro.cpu`` compute packages — the chain of call sites comes back
  as a witness (:class:`BlockingWitness`), most-shallow step first.

- **Lock-discipline inference.**  :func:`analyze_lock_discipline`
  builds, per class owning a lock attribute (``self._lock =
  threading.Lock()`` and friends), the map of instance attributes
  written under ``with self._lock:`` versus outside it — the raw
  material for RPL011's both-ways findings.

- **Scope walking.**  :func:`walk_scope` yields a function body's nodes
  without descending into nested ``def``/``lambda`` scopes (the same
  discipline RPL008 uses), so every rule anchors findings to the scope
  that owns them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.quality.flow import (
    MAX_CALL_DEPTH,
    ImportedSymbol,
    ModuleInfo,
    Program,
    context_info,
)
from repro.quality.rules.base import dotted_name

_FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Dotted call names that block the calling thread outright.
BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "time.sleep() parks the whole event loop",
    "os.system": "os.system() blocks on a subprocess",
    "subprocess.run": "subprocess.run() blocks on a subprocess",
    "subprocess.check_output": (
        "subprocess.check_output() blocks on a subprocess"
    ),
    "subprocess.check_call": "subprocess.check_call() blocks on a subprocess",
    "socket.create_connection": (
        "socket.create_connection() is a blocking socket call"
    ),
    "socket.getaddrinfo": "socket.getaddrinfo() is a blocking DNS lookup",
    "urllib.request.urlopen": "urlopen() is a blocking network call",
}

#: Method names that are synchronous disk I/O on any receiver.
BLOCKING_IO_METHODS: Dict[str, str] = {
    "read_text": "sync disk read (.read_text())",
    "write_text": "sync disk write (.write_text())",
    "read_bytes": "sync disk read (.read_bytes())",
    "write_bytes": "sync disk write (.write_bytes())",
}

#: Socket-object methods that block (flagged only on *sync* call sites;
#: the asyncio stream twins are coroutines and arrive awaited).
BLOCKING_SOCKET_METHODS = frozenset(
    {"recv", "recvfrom", "sendall", "connect", "accept"}
)

#: ``.get`` / ``.put`` on one of these receivers is a disk round-trip.
CACHE_METHODS = frozenset({"get", "put"})

#: Top-level repro packages whose functions are heavy compute: reaching
#: one synchronously from an ``async def`` stalls the event loop for a
#: model-evaluation's worth of time.
HEAVY_PACKAGES = frozenset({"core", "cpu"})


@dataclass(frozen=True)
class BlockingWitness:
    """Why a call (transitively) blocks, with the call-site chain."""

    reason: str
    #: Call-site steps, outermost first: ``"calls evaluate_grid() [line 7]"``.
    chain: Tuple[str, ...] = ()

    def describe(self) -> str:
        if not self.chain:
            return self.reason
        return f"{self.reason} via " + " -> ".join(self.chain)


def _receiver_is_cache(node: ast.expr) -> bool:
    """True when the method receiver names a Sweep/Result cache.

    Matches by the receiver's final component: ``self.sweep_cache``,
    ``context.sweep_cache``, ``result_cache``, ``self._cache``.  A bare
    ``.get`` on ``payload``/``mapping`` receivers stays invisible, so
    dict lookups never trip this.
    """
    name = dotted_name(node)
    if name is None:
        return False
    last = name.split(".")[-1].lower()
    return "cache" in last


def _receiver_is_socket(node: ast.expr) -> bool:
    name = dotted_name(node)
    if name is None:
        return False
    last = name.split(".")[-1].lower()
    return last in ("sock", "socket", "conn") or last.endswith("_sock")


def classify_blocking_call(call: ast.Call) -> Optional[str]:
    """A human-readable reason if this call blocks the calling thread.

    Only *directly* blocking shapes are recognized here; transitive
    reach through callees is :class:`BlockingIndex`'s job.
    """
    name = dotted_name(call.func)
    if name is not None:
        if name in BLOCKING_CALLS:
            return BLOCKING_CALLS[name]
        last = name.split(".")[-1]
        if name == "open" or last == "open" and name.startswith("io."):
            return "sync file open()"
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        if attr in BLOCKING_IO_METHODS:
            return BLOCKING_IO_METHODS[attr]
        if attr in CACHE_METHODS and _receiver_is_cache(call.func.value):
            receiver = dotted_name(call.func.value) or "<cache>"
            return (
                f"{receiver}.{attr}() is a SweepCache/ResultCache disk "
                f"round-trip"
            )
        if attr in BLOCKING_SOCKET_METHODS and _receiver_is_socket(
            call.func.value
        ):
            receiver = dotted_name(call.func.value) or "<socket>"
            return f"{receiver}.{attr}() is a blocking socket call"
    return None


def _module_heavy_reason(info: ModuleInfo) -> Optional[str]:
    """Heavy-compute classification for a resolved module."""
    if info.path is None:
        return None
    parts = set(info.path.parts)
    heavy = HEAVY_PACKAGES.intersection(parts)
    if heavy and "repro" in info.path.parts:
        package = sorted(heavy)[0]
        return (
            f"heavy repro.{package} compute (a full model evaluation "
            f"on the event loop)"
        )
    return None


class BlockingIndex:
    """Memoized transitive blocking summaries over one lint run.

    Shares the flow engine's :class:`~repro.quality.flow.Program` so
    module parsing and import resolution are paid once per run; the
    per-function blocking witness is memoized on ``(module key, name)``
    with a cycle guard, exactly like return-unit inference.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self._memo: Dict[
            Tuple[str, str], Optional[BlockingWitness]
        ] = {}

    # ------------------------------------------------------------------
    def witness_for_call(
        self, call: ast.Call, info: ModuleInfo, depth: int = 0
    ) -> Optional[BlockingWitness]:
        """Why this call site (transitively) blocks, if it does."""
        direct = classify_blocking_call(call)
        if direct is not None:
            return BlockingWitness(reason=direct)
        target = self._resolve_callee(call, info)
        if target is None:
            return None
        callee_info, callee_name, func = target
        if isinstance(func, ast.AsyncFunctionDef):
            return None  # calling an async def yields a coroutine; the
            # missing-await case is RPL010's, not a blocking hazard.
        heavy = _module_heavy_reason(callee_info)
        if heavy is not None and callee_info.key != info.key:
            return BlockingWitness(
                reason=heavy,
                chain=(f"calls {callee_name}() [line {call.lineno}]",),
            )
        if depth >= MAX_CALL_DEPTH:
            return None
        inner = self._witness_for_function(callee_info, callee_name, depth + 1)
        if inner is None:
            return None
        return BlockingWitness(
            reason=inner.reason,
            chain=(f"calls {callee_name}() [line {call.lineno}]",)
            + inner.chain,
        )

    # ------------------------------------------------------------------
    def _witness_for_function(
        self, info: ModuleInfo, func_name: str, depth: int
    ) -> Optional[BlockingWitness]:
        memo_key = (info.key, func_name)
        if memo_key in self._memo:
            return self._memo[memo_key]
        self._memo[memo_key] = None  # cycle guard
        func = info.functions.get(func_name)
        witness: Optional[BlockingWitness] = None
        if func is not None and not isinstance(func, ast.AsyncFunctionDef):
            for node in walk_scope(func.body):
                if not isinstance(node, ast.Call):
                    continue
                witness = self.witness_for_call(node, info, depth)
                if witness is not None:
                    break
        self._memo[memo_key] = witness
        return witness

    # ------------------------------------------------------------------
    def _resolve_callee(
        self, call: ast.Call, info: ModuleInfo
    ) -> Optional[Tuple[ModuleInfo, str, Optional[_FuncDef]]]:
        """``(owning module, function name, def)`` for a resolvable call."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in info.functions:
                return info, func.id, info.functions[func.id]
            symbol = info.imports.get(func.id)
            if symbol is not None:
                return self._resolve_import(info, symbol)
            return None
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            dotted = info.module_aliases.get(func.value.id)
            if dotted is not None:
                target = self.program.load_module(info, dotted, 0)
                if target is not None:
                    return target, func.attr, target.functions.get(func.attr)
        return None

    def _resolve_import(
        self, info: ModuleInfo, symbol: ImportedSymbol
    ) -> Optional[Tuple[ModuleInfo, str, Optional[_FuncDef]]]:
        target = self.program.load_module(info, symbol.module, symbol.level)
        if target is None:
            return None
        return target, symbol.original, target.functions.get(symbol.original)


def get_blocking_index(ctx) -> Tuple[BlockingIndex, ModuleInfo]:
    """The per-run :class:`BlockingIndex` plus this file's module info.

    Parked on the engine's shared module-cache ``extras`` (alongside the
    flow program) so repo-wide runs build each summary once.
    """
    from repro.quality.flow import get_program

    program = get_program(ctx)
    info = context_info(ctx, program)
    extras = ctx.modules.extras
    index = extras.get("concurrency.blocking_index")
    if index is None or index.program is not program:
        index = BlockingIndex(program)
        extras["concurrency.blocking_index"] = index
    return index, info


# ---------------------------------------------------------------------------
# Scope walking
# ---------------------------------------------------------------------------
def walk_scope(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
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


# ---------------------------------------------------------------------------
# Lock-discipline inference
# ---------------------------------------------------------------------------
#: Constructors recognized as lock objects.
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore"})

#: Method names that mutate their receiver in place (shared with
#: RPL008's module-global analysis, restated here for ``self.X`` use).
MUTATING_METHODS = frozenset(
    {
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
)


@dataclass(frozen=True)
class AttributeWrite:
    """One write to ``self.<attr>`` inside a method body."""

    attr: str
    method: str
    node: ast.AST
    guarded: bool
    kind: str  # "assign" | "augassign" | "mutate" | "subscript"


@dataclass
class LockDiscipline:
    """Guarded-vs-unguarded write map for one lock-owning class."""

    class_name: str
    lock_attrs: Set[str] = field(default_factory=set)
    writes: List[AttributeWrite] = field(default_factory=list)

    def guarded_attrs(self) -> Set[str]:
        return {w.attr for w in self.writes if w.guarded}

    def unguarded(self, attr: str) -> List[AttributeWrite]:
        return [w for w in self.writes if w.attr == attr and not w.guarded]

    def guarded_example(self, attr: str) -> Optional[AttributeWrite]:
        for write in self.writes:
            if write.attr == attr and write.guarded:
                return write
        return None


def _is_lock_ctor(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None:
        return False
    return name.split(".")[-1] in LOCK_FACTORIES


def _self_attr(node: ast.expr, self_name: str) -> Optional[str]:
    """``attr`` when ``node`` is exactly ``<self>.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


def _method_self_name(func: _FuncDef) -> Optional[str]:
    args = func.args
    ordered = list(args.posonlyargs) + list(args.args)
    if not ordered:
        return None
    if any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in func.decorator_list
    ):
        return None
    return ordered[0].arg


def _with_guards(
    stmt: Union[ast.With, ast.AsyncWith], self_name: str, lock_attrs: Set[str]
) -> bool:
    """Does this ``with`` acquire one of the class's locks?"""
    for item in stmt.items:
        expr = item.context_expr
        if isinstance(expr, ast.Call):
            expr = expr.func  # e.g. ``with self._lock.acquire_timeout()``
        attr = _self_attr(expr, self_name)
        if attr is not None and attr in lock_attrs:
            return True
    return False


def analyze_lock_discipline(tree: ast.Module) -> List[LockDiscipline]:
    """Per-class guarded/unguarded write maps for lock-owning classes.

    ``__init__``/``__new__`` bodies are excluded — the instance is not
    shared yet while it is being constructed — as are lock attributes
    themselves and ``threading.local`` style multi-level targets.
    """
    out: List[LockDiscipline] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [
            stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs: Set[str] = set()
        for method in methods:
            self_name = _method_self_name(method)
            if self_name is None:
                continue
            for stmt in ast.walk(method):
                if isinstance(stmt, ast.Assign) and _is_lock_ctor(stmt.value):
                    for target in stmt.targets:
                        attr = _self_attr(target, self_name)
                        if attr is not None:
                            lock_attrs.add(attr)
        if not lock_attrs:
            continue
        discipline = LockDiscipline(
            class_name=node.name, lock_attrs=lock_attrs
        )
        for method in methods:
            if method.name in ("__init__", "__new__"):
                continue
            self_name = _method_self_name(method)
            if self_name is None:
                continue
            _collect_writes(
                discipline,
                method,
                method.body,
                self_name,
                guarded=False,
            )
        out.append(discipline)
    return out


def _collect_writes(
    discipline: LockDiscipline,
    method: _FuncDef,
    body: Sequence[ast.stmt],
    self_name: str,
    guarded: bool,
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner_guarded = guarded or _with_guards(
                stmt, self_name, discipline.lock_attrs
            )
            _collect_writes(
                discipline, method, stmt.body, self_name, inner_guarded
            )
            continue
        _record_stmt_writes(discipline, method, stmt, self_name, guarded)
        for child_body in _child_bodies(stmt):
            _collect_writes(
                discipline, method, child_body, self_name, guarded
            )


def _child_bodies(stmt: ast.stmt) -> List[Sequence[ast.stmt]]:
    bodies: List[Sequence[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        value = getattr(stmt, attr, None)
        if isinstance(value, list) and value and isinstance(
            value[0], ast.stmt
        ):
            bodies.append(value)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


def _record_stmt_writes(
    discipline: LockDiscipline,
    method: _FuncDef,
    stmt: ast.stmt,
    self_name: str,
    guarded: bool,
) -> None:
    def record(attr: Optional[str], node: ast.AST, kind: str) -> None:
        if attr is None or attr in discipline.lock_attrs:
            return
        discipline.writes.append(
            AttributeWrite(
                attr=attr,
                method=method.name,
                node=node,
                guarded=guarded,
                kind=kind,
            )
        )

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            record(_self_attr(target, self_name), stmt, "assign")
            if isinstance(target, ast.Subscript):
                record(
                    _self_attr(target.value, self_name), stmt, "subscript"
                )
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        record(_self_attr(stmt.target, self_name), stmt, "assign")
    elif isinstance(stmt, ast.AugAssign):
        record(_self_attr(stmt.target, self_name), stmt, "augassign")
        if isinstance(stmt.target, ast.Subscript):
            record(
                _self_attr(stmt.target.value, self_name), stmt, "subscript"
            )
    elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        call = stmt.value
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in MUTATING_METHODS
        ):
            record(_self_attr(call.func.value, self_name), stmt, "mutate")
