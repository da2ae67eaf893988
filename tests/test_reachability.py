"""Every module under ``src/repro`` is reachable from an entry point.

The walk is static: it parses ``import`` and ``from ... import``
statements with :mod:`ast` and imports nothing.  Its roots are the
command line (``repro.cli``, ``repro.__main__``), the query server
(``repro.serve``) and every script under ``bench/``, ``benchmarks/``,
``examples/`` and ``scripts/``.  Tests are not roots, so a module only a
test imports counts as an orphan.  ``repro.quality.vectorcheck`` imports
every module through a ``pkgutil`` walk; that is not an import statement,
so it reaches nothing here.

Importing ``a.b.c`` runs ``a`` and ``a.b`` too, so every package above a
reached module is reached.  ``from a.b import c`` reaches ``a.b.c`` when
``c`` is a submodule.
"""

import ast
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.serve")
ENTRY_DIRS = ("bench", "benchmarks", "examples", "scripts")
#: Under the entry directories: the frozen lint corpus, run outputs and
#: the harness's own tests.
EXCLUDED_DIRS = ("bench/corpus", "bench/out", "bench/tests")

#: Modules no entry point imports, kept on purpose: name -> reason.
ALLOWED_ORPHANS = {
    "repro.edram.variation": (
        "cell-variation Monte Carlo; tests/edram/test_variation.py asserts "
        "its EXPERIMENTS.md claim until a paper-flow consumer lands"
    ),
    "repro.cpu.vector_engine": (
        "N-lane lockstep ISS; the bench `iss` workload's op2 phase imports "
        "it through importlib, and ROADMAP item 6 decides its fate"
    ),
}


def src_modules(src: Path) -> Dict[str, Path]:
    """Dotted name -> file of every module and package under ``src``."""
    modules = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def imported_names(path: Path, package: str) -> Iterator[str]:
    """Every dotted name an import statement in ``path`` names.

    ``package`` is the package relative imports resolve against.  A
    ``from m import x`` yields ``m`` and ``m.x``: ``x`` may be a submodule.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # One dot is the package itself; each further dot climbs.
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def package_of(name: str, path: Path) -> str:
    """The package a module's relative imports resolve against."""
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def reachable(
    modules: Dict[str, Path],
    root_modules: Iterable[str],
    root_files: Iterable[Path],
    repo: Path,
) -> Set[str]:
    """Names in ``modules`` that the roots reach through imports."""
    seen: Set[str] = set()
    todo: List[str] = []

    def reach(names: Iterable[str]) -> None:
        for name in names:
            parts = name.split(".")
            for i in range(1, len(parts) + 1):
                prefix = ".".join(parts[:i])
                if prefix in modules and prefix not in seen:
                    seen.add(prefix)
                    todo.append(prefix)

    reach(root_modules)
    for path in root_files:
        name = ".".join(path.relative_to(repo).with_suffix("").parts)
        reach(imported_names(path, package_of(name, path)))
    while todo:
        name = todo.pop()
        path = modules[name]
        reach(imported_names(path, package_of(name, path)))
    return seen


def entry_files(repo: Path) -> List[Path]:
    excluded = [repo / d for d in EXCLUDED_DIRS]
    return [
        path
        for d in ENTRY_DIRS
        for path in sorted((repo / d).rglob("*.py"))
        if not any(path.is_relative_to(x) for x in excluded)
    ]


def orphans(repo: Path) -> Set[str]:
    modules = src_modules(repo / "src")
    return set(modules) - reachable(modules, ENTRY_MODULES, entry_files(repo), repo)


@pytest.fixture(scope="module")
def tree_orphans():
    return orphans(REPO)


@pytest.mark.smoke
def test_every_module_is_reachable(tree_orphans):
    unexpected = sorted(tree_orphans - set(ALLOWED_ORPHANS))
    assert not unexpected, (
        f"no entry point imports {unexpected}: wire each into the flow, "
        "delete it, or allow-list it here with a reason"
    )


@pytest.mark.smoke
def test_allow_list_is_current(tree_orphans):
    modules = src_modules(SRC)
    missing = sorted(set(ALLOWED_ORPHANS) - set(modules))
    assert not missing, f"allow-listed modules do not exist: {missing}"
    reached = sorted(set(ALLOWED_ORPHANS) - tree_orphans)
    assert not reached, f"allow-listed modules are reachable now: {reached}"


def test_walk_follows_imports_and_ignores_dynamic_ones(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cli.py": "from repro.pkg import used\nfrom . import helper\n",
        "src/repro/__main__.py": "from repro.cli import main\n",
        "src/repro/helper.py": "import importlib\nimportlib.import_module('repro.dynamic')\n",
        "src/repro/serve/__init__.py": "from .app import run\n",
        "src/repro/serve/app.py": "from ..pkg.deep import x\n",
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/used.py": "",
        "src/repro/pkg/deep.py": "",
        "src/repro/pkg/from_script.py": "",
        "src/repro/dynamic.py": "",
        "src/repro/orphan.py": "import repro.pkg.used\n",
        "examples/demo.py": "import repro.pkg.from_script as s\n",
        "bench/tests/test_x.py": "import repro.orphan\n",
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text, encoding="utf-8")
    assert orphans(tmp_path) == {"repro.dynamic", "repro.orphan"}
