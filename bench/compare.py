"""``python -m bench compare A B``: is set B worse or better than set A?

A and B are result files of ``python -m bench run`` or directories of
them (one file per run; runs pair up in file-name order, which is the
order they ran in).  For each workload and end-to-end metric the
verdict is:

- ``regressed``: B's median is worse than A's by more than the bound
  BENCHMARK.json fixes for the metric;
- ``improved``: over at least 10 pairs, B wins 9 in 10 and its median
  beats A's by more than A's interquartile range;
- ``unresolved``: neither, and one side's interquartile range is wider
  than the bound, or B looks better on fewer than 10 pairs, so
  "unchanged" cannot be told apart from noise;
- ``unchanged``: otherwise.

``failed_frac`` regresses on any rise.  A run whose calibration loop
drifted by more than 10 % between before and after its workload is
marked ``noisy-host`` and left out.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from bench import spec

NOISY_DRIFT = 0.10
GAIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def is_noisy(result: dict) -> bool:
    calib = result["calibration_s"]
    return abs(calib["after"] / calib["before"] - 1.0) > NOISY_DRIFT


def load(path: Path) -> Dict[str, List[dict]]:
    """Timed (untraced) workload results in a file or directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, List[dict]] = {}
    for file in files:
        data = json.loads(file.read_text(encoding="utf-8"))
        for name, result in data.get("workloads", {}).items():
            if not result.get("trace"):
                runs.setdefault(name, []).append(result)
    return runs


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: Tuple[float, float, float]
    b: Tuple[float, float, float]
    won: int
    pairs: int
    verdict: str


def verdict(
    a: Sequence[float], b: Sequence[float], pairs: Sequence[Tuple[float, float]], better: str, bound: float
) -> Tuple[str, int]:
    """(verdict, pairs won by B) for one metric; see module doc."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    lower = better == "lower"
    won = sum(1 for x, y in pairs if (y < x if lower else y > x))
    gain = (a_med - b_med) if lower else (b_med - a_med)
    if -gain / a_med > bound:
        return "regressed", won
    if pairs and won >= GAIN_SHARE * len(pairs) and gain > a_q3 - a_q1:
        return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved"), won
    if max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med) > bound:
        return "unresolved", won
    return "unchanged", won


def compare(a_runs: Dict[str, List[dict]], b_runs: Dict[str, List[dict]]) -> Tuple[List[Row], List[str]]:
    rows: List[Row] = []
    notes: List[str] = []
    metrics = spec()["end_to_end"]
    for workload in sorted(set(a_runs) & set(b_runs)):
        a = [r for r in a_runs[workload] if not is_noisy(r)]
        b = [r for r in b_runs[workload] if not is_noisy(r)]
        dropped = (len(a_runs[workload]) - len(a), len(b_runs[workload]) - len(b))
        if any(dropped):
            notes.append(f"{workload}: noisy-host runs left out: {dropped[0]} of A, {dropped[1]} of B")
        if not a or not b:
            notes.append(f"{workload}: no usable runs on one side")
            continue
        # The i-th run of A pairs with the i-th run of B; a pair with a
        # noisy-host run drops out whole.
        pairs = [(x, y) for x, y in zip(a_runs[workload], b_runs[workload]) if not (is_noisy(x) or is_noisy(y))]
        for entry in metrics:
            name = entry["name"]
            a_vals = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
            b_vals = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
            if not a_vals or not b_vals:
                continue
            values = [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in pairs]
            v, won = verdict(a_vals, b_vals, values, entry["better"], entry["bound"])
            rows.append(Row(workload, name, entry["unit"], quartiles(a_vals), quartiles(b_vals), won, len(values), v))
        a_frac = sum(r["failed"] for r in a) / max(1, sum(r["attempted"] for r in a))
        b_frac = sum(r["failed"] for r in b) / max(1, sum(r["attempted"] for r in b))
        rows.append(
            Row(
                workload, "failed_frac", "fraction",
                (a_frac,) * 3, (b_frac,) * 3, 0, 0,
                "regressed" if b_frac > a_frac else "unchanged",
            )
        )
    return rows, notes


def render(rows: Sequence[Row], notes: Sequence[str]) -> str:
    def cell(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}..{q[2]:.5g}]"

    header = f"{'workload':12s} {'metric':12s} {'A median [q1..q3]':>32s} {'B median [q1..q3]':>32s} {'won':>6s}  verdict"
    lines = [header, "-" * len(header)]
    for row in rows:
        won = f"{row.won}/{row.pairs}" if row.pairs else "-"
        lines.append(
            f"{row.workload:12s} {row.metric:12s} {cell(row.a):>32s} {cell(row.b):>32s} {won:>6s}  {row.verdict}"
        )
    lines.extend(notes)
    return "\n".join(lines)


def main(a: Path, b: Path) -> int:
    rows, notes = compare(load(a), load(b))
    print(render(rows, notes))
    return 1 if any(row.verdict == "regressed" for row in rows) else 0
