"""The repository's benchmark: five workloads over the PPAtC model chain.

Run ``python -m bench run``; see ``bench/README.md``.  The benchmark
imports ``repro`` from ``src/`` of the checkout it sits in.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "bench"
OUT_DIR = BENCH_DIR / "out"


def use_src() -> None:
    """Put ``src/`` on ``sys.path``; raise if the program is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def spec() -> dict:
    """``BENCHMARK.json``: workloads, metrics, bounds and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def references() -> dict:
    """Pinned correctness references (``bench/references.json``)."""
    return json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
