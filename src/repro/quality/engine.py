"""The repro-lint engine: file walking, contexts, and reporting.

The engine parses each target file once per run (imports of it reuse
that tree), builds a :class:`FileContext` (AST, its nodes walked once,
raw lines, pragmas, package-relative path parts), and runs every
enabled rule over it.  Pragma suppression happens here — rules never
see the pragma filter — and baseline matching happens once over the
whole run so per-fingerprint counts are consumed globally.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.quality.baseline import Baseline
from repro.quality.findings import Finding, Severity
from repro.quality.pragmas import PragmaMap, parse_pragmas
from repro.quality.rules import Rule, default_rules

#: Rule id used for files that fail to parse.
PARSE_ERROR_RULE = "RPL000"

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".venv", "node_modules"}


class _ModuleCache:
    """One lint run's parse cache, shared by linted and imported files.

    ``extras`` is a scratch dict for per-run cross-file state keyed by
    rule subsystem (the flow engine parks its :class:`~repro.quality.
    flow.Program` of memoized function summaries there).
    """

    def __init__(self) -> None:
        #: resolved path -> (source, tree); the tree is None if unparsable.
        self._parsed: Dict[Path, Tuple[str, Optional[ast.Module]]] = {}
        self.extras: Dict[str, object] = {}

    def parse(self, path: Path) -> Optional[ast.Module]:
        path = path.resolve()
        if path not in self._parsed:
            try:
                self.parse_source(path.read_text(encoding="utf-8"), path)
            except (OSError, SyntaxError):
                self._parsed[path] = ("", None)
        return self._parsed[path][1]

    def parse_source(self, source: str, path: Path) -> ast.Module:
        """The tree of ``source`` at ``path``, parsed once per run.

        A file linted after an import parsed it reuses that tree, and
        later imports reuse the linted file's.  Raises
        :class:`SyntaxError` like :func:`ast.parse`.
        """
        path = path.resolve()
        cached_source, tree = self._parsed.get(path, ("", None))
        if tree is None or cached_source != source:
            tree = ast.parse(source, filename=str(path))
            self._parsed.setdefault(path, (source, tree))
        return tree


@dataclass
class FileContext:
    """Everything a rule may need about one source file."""

    path: Path
    rel_path: str
    parts: Tuple[str, ...]
    source: str
    lines: List[str]
    tree: ast.Module
    pragmas: PragmaMap
    package_root: Optional[Path] = None
    modules: _ModuleCache = field(default_factory=_ModuleCache)
    #: Every node of ``tree`` in :func:`ast.walk` order, walked once.
    nodes: List[ast.AST] = field(init=False, repr=False)
    #: Analyses the rules share (flow and shape scopes), once per file.
    analyses: Dict[str, object] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        self.nodes = list(ast.walk(self.tree))

    def load_module(
        self, module: Optional[str], level: int = 0
    ) -> Optional[ast.Module]:
        """Parse the AST of an imported module, if it lives on disk.

        Supports absolute dotted imports rooted at ``package_root`` and
        relative imports (``level`` leading dots) rooted at this file's
        package directory.  Returns ``None`` for anything unresolvable
        (third-party packages, namespace magic).
        """
        if level > 0:
            base = self.path.parent
            for _ in range(level - 1):
                base = base.parent
        elif self.package_root is not None:
            base = self.package_root
        else:
            return None
        if module:
            base = base.joinpath(*module.split("."))
        for candidate in (base.with_suffix(".py"), base / "__init__.py"):
            if candidate.is_file():
                return self.modules.parse(candidate)
        return None


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    baselined: List[Finding]
    suppressed: int
    files_checked: int

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def to_json(self) -> Dict:
        return {
            "schema": "repro-lint-report/1",
            "files_checked": self.files_checked,
            "findings": [f.to_json() for f in self.findings],
            "baselined": len(self.baselined),
            "suppressed": self.suppressed,
            "counts_by_rule": self.counts_by_rule(),
            "exit_code": self.exit_code,
        }

    def render_text(self) -> str:
        out = [f.render() for f in self.findings]
        counts = ", ".join(
            f"{rule}: {n}" for rule, n in self.counts_by_rule().items()
        )
        out.append(
            f"repro-lint: {len(self.findings)} finding(s) "
            f"({counts or 'none'}) in {self.files_checked} file(s); "
            f"{len(self.baselined)} baselined, "
            f"{self.suppressed} pragma-suppressed"
        )
        return "\n".join(out)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under the given paths, in sorted order."""
    for path in paths:
        path = Path(path)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        if not path.is_dir():
            continue
        for sub in sorted(path.rglob("*.py")):
            if not _SKIP_DIR_NAMES.intersection(sub.parts):
                yield sub


def find_package_root(path: Path) -> Optional[Path]:
    """The directory containing the top-level package of ``path``.

    Walks up while ``__init__.py`` markers continue; e.g. for
    ``src/repro/core/isoline.py`` this is ``src``.
    """
    current = path.resolve().parent
    if not (current / "__init__.py").is_file():
        return None
    while (current.parent / "__init__.py").is_file():
        current = current.parent
    return current.parent


class LintEngine:
    """Run a rule set over files and apply pragma + baseline filtering."""

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        baseline: Optional[Baseline] = None,
    ) -> None:
        self.rules: List[Rule] = (
            list(rules) if rules is not None else default_rules()
        )
        self.baseline = baseline if baseline is not None else Baseline()

    # ------------------------------------------------------------------
    def lint_file(
        self,
        path: Path,
        root: Optional[Path] = None,
        modules: Optional[_ModuleCache] = None,
    ) -> Tuple[List[Finding], int]:
        """All (pragma-filtered) findings for one file.

        Returns ``(findings, pragma_suppressed_count)``.  Baseline
        filtering is *not* applied here — see :meth:`lint_paths`.
        """
        path = Path(path)
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            finding = Finding(
                rule=PARSE_ERROR_RULE,
                message=f"cannot read file: {exc}",
                path=_rel(path, root),
                line=1,
                severity=Severity.ERROR,
            )
            return [finding], 0
        return self.lint_source(
            source,
            path=path,
            rel_path=_rel(path, root),
            modules=modules,
        )

    # ------------------------------------------------------------------
    def lint_source(
        self,
        source: str,
        path: Path = Path("<memory>.py"),
        rel_path: Optional[str] = None,
        modules: Optional[_ModuleCache] = None,
    ) -> Tuple[List[Finding], int]:
        """Lint source text directly (testing / editor integration)."""
        path = Path(path)
        rel = rel_path if rel_path is not None else path.name
        lines = source.splitlines()
        modules = modules if modules is not None else _ModuleCache()
        try:
            tree = modules.parse_source(source, path)
        except SyntaxError as exc:
            finding = Finding(
                rule=PARSE_ERROR_RULE,
                message=f"syntax error: {exc.msg}",
                path=rel,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                severity=Severity.ERROR,
                snippet=(exc.text or "").strip(),
            )
            return [finding], 0
        ctx = FileContext(
            path=path,
            rel_path=rel,
            parts=tuple(Path(rel).parts),
            source=source,
            lines=lines,
            tree=tree,
            pragmas=parse_pragmas(lines),
            package_root=find_package_root(path) if path.is_file() else None,
            modules=modules,
        )
        findings: List[Finding] = []
        suppressed = 0
        for rule in self.rules:
            for finding in rule.check(ctx):
                if ctx.pragmas.is_disabled(finding.rule, finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings, suppressed

    # ------------------------------------------------------------------
    def lint_paths(
        self,
        paths: Sequence[Path],
        root: Optional[Path] = None,
        jobs: Optional[int] = None,
    ) -> LintReport:
        """Lint a path set and fold in the baseline.

        ``jobs=None`` auto-sizes worker processes to the CPU count via
        :func:`repro.runtime.parallel.map_parallel` (file chunks fan
        out; per-file analysis is independent, so the merged result is
        byte-identical to a serial run); ``jobs=1`` forces serial.
        Custom rule *instances* that are not registry classes cannot be
        reconstructed worker-side and also force serial.
        """
        files = list(iter_python_files(paths))
        all_findings: List[Finding] = []
        suppressed = 0
        chunks = self._parallel_chunks(files, jobs)
        if chunks is not None:
            from repro.runtime.parallel import map_parallel

            rule_ids = tuple(rule.rule_id for rule in self.rules)
            root_str = str(root) if root is not None else None
            payloads = [
                ([str(f) for f in chunk], root_str, rule_ids)
                for chunk in chunks
            ]
            for findings, skipped, _count in map_parallel(
                _lint_chunk, payloads, jobs=len(payloads), label="lint"
            ):
                all_findings.extend(findings)
                suppressed += skipped
        else:
            modules = _ModuleCache()
            for file_path in files:
                findings, skipped = self.lint_file(
                    file_path, root=root, modules=modules
                )
                all_findings.extend(findings)
                suppressed += skipped
        all_findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        fresh, grandfathered = self.baseline.partition(all_findings)
        return LintReport(
            findings=fresh,
            baselined=grandfathered,
            suppressed=suppressed,
            files_checked=len(files),
        )

    # ------------------------------------------------------------------
    def _parallel_chunks(
        self, files: List[Path], jobs: Optional[int]
    ) -> Optional[List[List[Path]]]:
        """Contiguous file chunks for the process pool, or ``None``.

        ``None`` means "lint serially": one job requested, too few
        files to amortize a pool, or a rule set that cannot be rebuilt
        from the registry in a worker.
        """
        from repro.quality.rules import RULE_REGISTRY
        from repro.runtime.parallel import resolve_jobs

        if jobs == 1 or len(files) < 2:
            return None
        if not all(
            RULE_REGISTRY.get(rule.rule_id) is type(rule)
            for rule in self.rules
        ):
            return None
        workers = resolve_jobs(jobs, len(files))
        if workers < 2:
            return None
        # Contiguous chunks keep sibling modules in one worker, so the
        # shared parse cache still serves the cross-file rules.
        size = (len(files) + workers - 1) // workers
        return [files[i : i + size] for i in range(0, len(files), size)]


def _lint_chunk(
    payload: Tuple[List[str], Optional[str], Tuple[str, ...]],
) -> Tuple[List[Finding], int, int]:
    """Worker-side entry point (module-level for pickling).

    Rebuilds the rule set from registry ids and lints one contiguous
    file chunk with its own shared module cache; the parent merges,
    sorts, and applies the baseline once globally.
    """
    from repro.quality.rules import RULE_REGISTRY

    file_paths, root_str, rule_ids = payload
    root = Path(root_str) if root_str is not None else None
    engine = LintEngine(
        rules=[RULE_REGISTRY[rule_id]() for rule_id in rule_ids]
    )
    modules = _ModuleCache()
    findings: List[Finding] = []
    suppressed = 0
    for file_path in file_paths:
        found, skipped = engine.lint_file(
            Path(file_path), root=root, modules=modules
        )
        findings.extend(found)
        suppressed += skipped
    return findings, suppressed, len(file_paths)


def _rel(path: Path, root: Optional[Path]) -> str:
    path = Path(path).resolve()
    base = Path(root).resolve() if root is not None else Path.cwd()
    try:
        return path.relative_to(base).as_posix()
    except ValueError:
        return path.as_posix()


def lint_paths(
    paths: Sequence[Path],
    root: Optional[Path] = None,
    rules: Optional[Sequence[Rule]] = None,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Convenience wrapper: lint ``paths`` with the default rule set."""
    return LintEngine(rules=rules, baseline=baseline).lint_paths(
        paths, root=root
    )
