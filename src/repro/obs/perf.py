"""Wall-clock metering for ISS runs.

The fast engine's whole point is wall-time; this module keeps that
observable.  A :class:`RunPerf` captures one run's wall-clock cost next
to its simulated work, yielding MIPS (simulated instructions per
wall-second) and simulated cycles per second — the numbers the CLI
``--perf`` flag reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List

__all__ = [
    "RunPerf",
    "Stopwatch",
    "stopwatch",
    "render_perf_table",
]


@dataclass(frozen=True)
class RunPerf:
    """Wall-clock cost of one workload run."""

    name: str
    wall_seconds: float
    cycles: int
    instructions: int
    cached: bool = False

    @property
    def ips(self) -> float:
        """Simulated instructions per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def mips(self) -> float:
        """Simulated millions of instructions per wall-clock second."""
        return self.ips / 1e6

    @property
    def sim_cycles_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_seconds


class Stopwatch:
    """A started monotonic timer; ``elapsed`` is seconds since start."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self._start


@contextmanager
def stopwatch() -> Iterator[Stopwatch]:
    """Context manager yielding a running :class:`Stopwatch`."""
    yield Stopwatch()


def render_perf_table(perfs: List[RunPerf]) -> str:
    """Text table of per-run wall time and simulation rates."""
    lines = [
        f"{'workload':14s} {'wall':>9s} {'MIPS':>8s} {'Mcyc/s':>8s} "
        f"{'source':>7s}",
    ]
    for perf in perfs:
        lines.append(
            f"{perf.name:14s} {perf.wall_seconds:>8.3f}s "
            f"{perf.mips:>8.2f} {perf.sim_cycles_per_second / 1e6:>8.2f} "
            f"{'cache' if perf.cached else 'iss':>7s}"
        )
    total_wall = sum(p.wall_seconds for p in perfs)
    total_insns = sum(p.instructions for p in perfs)
    agg_mips = total_insns / total_wall / 1e6 if total_wall > 0 else 0.0
    lines.append(
        f"{'TOTAL':14s} {total_wall:>8.3f}s {agg_mips:>8.2f}"
    )
    return "\n".join(lines)
