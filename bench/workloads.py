"""The five workloads, as one child process runs them.

Each workload has a set-up (imports, caches, corpus, server boot and a
warm-up) and two timed operations, reported as ``op_ms`` and ``op2_ms``.
A timed run repeats the operations in turn for ``--seconds`` (at least
``MIN_ITERS`` times each) and reports each one's fastest repetition
(``lint_frozen`` and ``serve_mix`` say what they report instead).  On a
shared host other tenants slow a CPU by up to half, for a moment or for
seconds, and the minimum is the statistic that disturbs least; single-
process operations alternate between the CPUs the process may use, so a
CPU that stays slow for a whole phase cannot set its result.  A traced
run repeats fixed iteration counts without and then with the wrappers
of :mod:`bench.trace`.

Every call into the program goes through a module attribute at call
time (``self.timing.characterize``), never a name bound here, so the
wrappers installed for a traced run see the call.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import importlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from bench import BENCH_DIR, ROOT, SRC
from bench import loadgen
from bench.trace import Patcher, Recorder, all_targets

MIN_ITERS = 3


def timed(fn: Callable, *args, **kwargs) -> Tuple[float, object]:
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``) and sample count."""
    values = list(values)
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def child_env() -> Dict[str, str]:
    """Environment for a process that must import ``repro`` and ``bench``."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Same set and dict orders in every run, so they add no run-to-run spread.
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Measurement:
    """What one measured pass produced."""

    #: metric -> per-iteration (or per-request) times, in seconds
    times: Dict[str, List[float]] = field(default_factory=dict)
    #: derived values printed beside the gated metrics: name -> (value, unit)
    info: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    wall_s: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


class Workload:
    """A set-up plus timed operations; subclasses fill in the details."""

    name = ""
    #: (metric, method name, alternate CPUs) per timed operation; one
    #: that starts worker processes does not alternate, because its
    #: workers would inherit the one CPU
    phases: Tuple[Tuple[str, str, bool], ...] = ()
    #: iterations per metric for the traced comparison
    trace_counts: Dict[str, int] = {}
    #: rounds a timed run makes even when ``seconds`` runs out first
    min_rounds = MIN_ITERS

    def __init__(self, seed: int, refs: dict, work_dir: Path) -> None:
        self.seed = seed
        self.refs = refs
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up acquired."""

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def measure(self, seconds: Optional[float] = None, counts: Optional[Dict[str, int]] = None) -> Measurement:
        """Run the timed operations in turn, one repetition each per
        round, for ``seconds`` (at least ``min_rounds`` rounds), or until
        each ran ``counts[metric]`` times.  Taking turns spreads every
        operation over the whole run, fast and slow spells of the host
        alike."""
        m = Measurement()
        cpus = sorted(os.sched_getaffinity(0))
        stopped = set()  # operations that raised
        start = time.perf_counter()
        deadline = start + (seconds or 0.0)
        i = 0
        while True:
            if counts is not None:
                due = [p for p in self.phases if i < counts.get(p[0], 0)]
            elif i < self.min_rounds or time.perf_counter() < deadline:
                due = list(self.phases)
            else:
                due = []
            due = [p for p in due if p[0] not in stopped]
            if not due:
                break
            for metric, method, alternate in due:
                if not self.in_round(metric, i):
                    continue
                m.attempted += 1
                if alternate:
                    os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                try:
                    elapsed, problem = getattr(self, method)(i)
                except Exception as exc:  # counted as a failure; the operation stops
                    m.fail(f"{metric}[{i}]: {type(exc).__name__}: {exc}")
                    stopped.add(metric)
                    continue
                finally:
                    os.sched_setaffinity(0, cpus)
                    # Peak memory then depends on one repetition, not on
                    # how many fit in the run.
                    gc.collect()
                m.times.setdefault(metric, []).append(elapsed)
                if problem:
                    m.fail(f"{metric}[{i}]: {problem}")
            i += 1
        m.wall_s = time.perf_counter() - start
        self.add_info(m)
        return m

    def in_round(self, metric: str, i: int) -> bool:
        """Whether the operation behind ``metric`` runs in round ``i``."""
        return True

    def add_info(self, m: Measurement) -> None:
        """Derived readings (rates) for the report; not gated."""

    def gate(self, metric: str, samples_ms: Sequence[float]) -> Optional[Dict[str, object]]:
        """The value a metric reports, the statistic's name, and the
        quartiles and count of the samples behind it; None if there are
        too few samples for the statistic."""
        return {**summary(samples_ms), "value": min(samples_ms), "stat": "min"}

    @contextlib.contextmanager
    def traced(self, recorder: Recorder) -> Iterator[Dict[str, str]]:
        """Install the wrappers for the traced pass; yields their status."""
        with Patcher(all_targets(), recorder) as patcher:
            yield patcher.status


def _close(got: Sequence[float], want: Sequence[float], rtol: float) -> bool:
    return all(abs(g - w) <= rtol * abs(w) for g, w in zip(got, want)) and len(got) == len(want)


def _array_digest(values) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
class CaseSpice(Workload):
    """The SPICE timing check of the case study.

    ``build_case_study(verify_timing=True)`` characterizes the Si and the
    M3D sub-array with SPICE transients; that is over 98 % of its time,
    and the rest is cached model code that ``model_sweep`` times.  Each
    characterization is one operation, so a run has enough repetitions
    for a steady minimum.
    """

    name = "case_spice"
    phases = (("op_ms", "si_timing", True), ("op2_ms", "m3d_timing", True))
    trace_counts = {"op_ms": 2, "op2_ms": 2}

    def setup(self) -> None:
        self.timing = importlib.import_module("repro.edram.timing")
        case_study = importlib.import_module("repro.analysis.case_study")
        bitcell = importlib.import_module("repro.edram.bitcell")
        subarray = importlib.import_module("repro.edram.subarray")
        self.ref = self.refs["case_spice"]
        # Fills the model layers' caches; SPICE results are never cached.
        case = case_study.build_case_study()
        advantage = case.carbon_efficiency_advantage()
        if not _close([advantage], [self.ref["carbon_efficiency_advantage"]], self.ref["rtol"]):
            raise RuntimeError(f"carbon efficiency advantage {advantage} != the pinned reference")
        self.si = subarray.SubArrayDesign(bitcell.si_bitcell())
        self.m3d = subarray.SubArrayDesign(bitcell.m3d_bitcell())

    def _characterize(self, subarray, tech: str) -> Tuple[float, Optional[str]]:
        elapsed, timing = timed(self.timing.characterize, subarray)
        got = [timing.write_delay_s, timing.read_delay_s]
        want = [self.ref[f"{tech}_write_delay_s"], self.ref[f"{tech}_read_delay_s"]]
        return elapsed, None if _close(got, want, self.ref["rtol"]) else f"{tech} timing {got} != {want}"

    def si_timing(self, i: int) -> Tuple[float, Optional[str]]:
        return self._characterize(self.si, "si")

    def m3d_timing(self, i: int) -> Tuple[float, Optional[str]]:
        return self._characterize(self.m3d, "m3d")


# ---------------------------------------------------------------------------
class ModelSweep(Workload):
    """The SPICE-free model stack: all 11 artifacts, then Monte Carlo."""

    name = "model_sweep"
    phases = (("op_ms", "artifacts", True), ("op2_ms", "monte_carlo", True))
    trace_counts = {"op_ms": 20, "op2_ms": 40}
    MC_SAMPLES = 2000

    def setup(self) -> None:
        import numpy as np

        self.np = np
        self.artifacts_mod = importlib.import_module("repro.analysis.artifacts")
        self.uncertainty = importlib.import_module("repro.core.uncertainty")
        case_study = importlib.import_module("repro.analysis.case_study")
        sensitivity = importlib.import_module("repro.analysis.sensitivity")
        self.params = sensitivity.case_study_parameters(case_study.build_case_study())
        self.axis = np.linspace(0.05, 2.0, 40)
        self.ref = self.refs["model_sweep"]
        self.artifacts(0)
        self.monte_carlo(0)

    def artifacts(self, i: int) -> Tuple[float, Optional[str]]:
        with tempfile.TemporaryDirectory(dir=self.work_dir) as tmp:
            elapsed, manifest = timed(
                self.artifacts_mod.run_artifact_pipeline, tmp, jobs=1, sweep_cache=None
            )
        got = manifest["content_hash"]
        return elapsed, None if got == self.ref["content_hash"] else f"content_hash {got}"

    def monte_carlo(self, i: int) -> Tuple[float, Optional[str]]:
        # The workload seed picks where in the pinned seed list to start.
        mc_seed = (self.seed + i) % len(self.ref["mc_digests"])
        elapsed, win = timed(
            self.uncertainty.monte_carlo_win_probability,
            self.params,
            self.axis,
            self.axis,
            n_samples=self.MC_SAMPLES,
            rng=self.np.random.default_rng(mc_seed),
        )
        got = _array_digest(win)[:16]
        want = self.ref["mc_digests"][mc_seed]
        return elapsed, None if got == want else f"MC seed {mc_seed} digest {got} != {want}"

    def add_info(self, m: Measurement) -> None:
        if "op2_ms" in m.times:
            m.info["mc_samples_per_s"] = (self.MC_SAMPLES / statistics.median(m.times["op2_ms"]), "samples/s")


# ---------------------------------------------------------------------------
class Iss(Workload):
    """The instruction-set simulator: one long lane, then 32 lanes.

    Both programs are shorter than the paper's (``refs["repeats"]`` and
    ``LANE_REPEATS`` matmul repeats instead of 188 and 20), so that a
    run has some 30 repetitions of each for a steady minimum: in a busy
    spell of the host, 6 lane repeats instead of 3 tripled the spread
    of ``op2_ms`` over ten runs.  Loading and translating a program is
    then 10-15 % of an operation.
    """

    name = "iss"
    phases = (("op_ms", "single_lane", True), ("op2_ms", "lanes", True))
    trace_counts = {"op_ms": 2, "op2_ms": 2}
    LANES = 32
    LANE_REPEATS = 3

    def setup(self) -> None:
        matmul = importlib.import_module("repro.workloads.matmul_int")
        self.suite = importlib.import_module("repro.workloads.suite")
        self.vector = importlib.import_module("repro.cpu.vector_engine")
        self.ref = self.refs["iss"]
        self.single = matmul.workload(repeats=self.ref["repeats"])
        rng = random.Random(self.seed)
        self.variants = [
            matmul.seed_variant(rng.randrange(1, 2**31), n=20, repeats=self.LANE_REPEATS, tune=1000)
            for _ in range(self.LANES)
        ]
        self.lane_words = [v.data_words for v in self.variants]
        self.lane_instructions = 0
        # Warm-up on small programs: imports and translation code paths.
        self.suite.run_workload(matmul.workload(repeats=1, tune=10))
        tiny = matmul.seed_variant(1, n=4, repeats=1, tune=10)
        self.vector.run_lanes(tiny.source, lane_words=[tiny.data_words] * 4)

    def single_lane(self, i: int) -> Tuple[float, Optional[str]]:
        elapsed, result = timed(self.suite.run_workload, self.single)
        got = [result.cycles, result.instructions, result.checksum]
        want = [self.ref["cycles"], self.ref["instructions"], int(self.ref["checksum"], 16)]
        return elapsed, None if got == want else f"single lane {got} != {want}"

    def lanes(self, i: int) -> Tuple[float, Optional[str]]:
        elapsed, result = timed(
            self.vector.run_lanes, self.variants[0].source, lane_words=self.lane_words
        )
        bad = [
            k
            for k, (lane, variant) in enumerate(zip(result.lanes, self.variants))
            if lane.checksum != variant.expected_checksum
        ]
        if not result.vectorized:
            return elapsed, f"lanes fell back to scalar: {result.bail_reason}"
        self.lane_instructions = result.total_instructions
        return elapsed, None if not bad else f"lane checksums wrong: {bad}"

    def add_info(self, m: Measurement) -> None:
        if "op_ms" in m.times:
            m.info["iss_mips"] = (self.ref["instructions"] / statistics.median(m.times["op_ms"]) / 1e6, "MIPS")
        if "op2_ms" in m.times:
            m.info["iss_lane_mips"] = (
                self.lane_instructions / statistics.median(m.times["op2_ms"]) / 1e6,
                "MIPS",
            )


# ---------------------------------------------------------------------------
class Server:
    """One ``repro serve`` process on an ephemeral port."""

    STOP_TIMEOUT_S = 30.0

    def __init__(self, argv: List[str]) -> None:
        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.kill()
            raise

    def _await_port(self) -> int:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()  # the server announces once booted
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not boot (said {line!r})")
        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def vm_hwm_mb(self) -> float:
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kb = next(line.split()[1] for line in status.splitlines() if line.startswith("VmHWM:"))
        return int(kb) / 1024.0

    def stop(self) -> None:
        """SIGTERM, so the server drains, then wait for it to exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                code = self.process.wait(timeout=self.STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError("server did not drain after SIGTERM")
            if code != 0:
                raise RuntimeError(f"server exited with {code}")
        if self.process.stdout is not None:
            self.process.stdout.close()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


class ServeMix(Workload):
    """The query server under a closed and an open loop of mixed queries."""

    name = "serve_mix"
    CONNECTIONS = 2
    RATE_QPS = 300.0
    #: one request in 20 (5 %) is a 20x20 grid tile with Monte Carlo
    TILE_EVERY = 20
    #: share of --seconds for the closed loop; the open loop gets the rest
    CLOSED_SHARE = 0.25
    #: consecutive closed-loop requests per window of the op_ms statistic
    WINDOW = 100
    #: requests per phase in the traced comparison
    trace_counts = {"closed": 1500, "open": 1500}
    #: responses re-derived in-process after the load, per phase
    VERIFY = 100

    def setup(self) -> None:
        self.model = importlib.import_module("repro.serve.model")
        self.context = None  # for _verify, built on first use
        self.ref = self.refs["serve_mix"]
        self.server: Optional[Server] = None
        self.server = self._boot([sys.executable, "-m", "repro", "serve", "--port", "0", "--no-sweep-cache"])

    def _boot(self, argv: List[str]) -> Server:
        server = Server(argv)
        try:
            # Fixed reference corpus: the warm-up, and a pinned digest of
            # the responses, which are byte-stable.
            corpus = loadgen.mixed_corpus(self.ref["reference_seed"], self.ref["reference_requests"], self.TILE_EVERY)
            phase = asyncio.run(loadgen.closed_loop(server.port, corpus, self.CONNECTIONS))
            digest = hashlib.sha256(b"".join(phase.bodies)).hexdigest()
            if phase.non_200 or digest != self.ref["reference_digest"]:
                raise RuntimeError(
                    f"reference corpus: {phase.non_200} non-200, digest {digest} "
                    f"!= {self.ref['reference_digest']}"
                )
        except BaseException:
            server.kill()
            raise
        return server

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()

    def peak_rss_mb(self) -> float:
        return self.peak_mb

    def measure(self, seconds: Optional[float] = None, counts: Optional[Dict[str, int]] = None) -> Measurement:
        if counts is not None:
            n_closed, n_open, deadline_s = counts["closed"], counts["open"], None
        else:
            assert seconds is not None
            n_closed = 100_000  # bounded by the deadline
            n_open = max(100, int(self.RATE_QPS * (1 - self.CLOSED_SHARE) * seconds))
            deadline_s = self.CLOSED_SHARE * seconds
        closed_corpus = loadgen.point_corpus(self.seed, n_closed)
        open_corpus = loadgen.mixed_corpus(self.seed + 1, n_open, self.TILE_EVERY)

        async def drive() -> Tuple[loadgen.Phase, loadgen.Phase]:
            deadline = None if deadline_s is None else time.perf_counter() + deadline_s
            closed = await loadgen.closed_loop(self.server.port, closed_corpus, self.CONNECTIONS, deadline)
            opened = await loadgen.open_loop(
                self.server.port, open_corpus, self.RATE_QPS, self.CONNECTIONS, self.seed
            )
            return closed, opened

        closed, opened = asyncio.run(drive())
        self.peak_mb = self.server.vm_hwm_mb()
        m = Measurement(wall_s=closed.elapsed_s + opened.elapsed_s)
        m.times["op_ms"] = closed.latencies_s
        m.times["op2_ms"] = opened.latencies_s
        m.attempted = closed.requests + opened.requests
        for label, phase, corpus in (("closed", closed, closed_corpus), ("open", opened, open_corpus)):
            for index, status in enumerate(phase.statuses):
                if status != 200:
                    m.fail(f"{label}[{index}]: HTTP {status}")
            for problem in self._verify(corpus, phase.bodies):
                m.fail(f"{label}: {problem}")
        m.info["serve_qps"] = (closed.requests / closed.elapsed_s, "req/s")
        m.info["serve_p50_ms"] = (percentile(opened.latencies_s, 0.50) * 1e3, "ms")
        m.info["serve_p99_ms"] = (percentile(opened.latencies_s, 0.99) * 1e3, "ms")
        m.info["open_requests"] = (float(opened.requests), "count")
        m.info["loadgen_lag_ms_max"] = (opened.max_lag_s * 1e3, "ms")
        return m

    def gate(self, metric: str, samples_ms: Sequence[float]) -> Optional[Dict[str, object]]:
        """Closed loop: the median of the fastest window of ``WINDOW``
        consecutive requests, for the reason other workloads report a
        minimum.  Open loop: the 90th percentile, where requests stuck
        behind a grid tile show."""
        if metric == "op2_ms":
            return {**summary(samples_ms), "value": percentile(samples_ms, 0.90), "stat": "p90"}
        step = self.WINDOW
        windows = [samples_ms[i : i + step] for i in range(0, max(1, len(samples_ms) - step + 1), step)]
        value = min(statistics.median(w) for w in windows)
        return {**summary(samples_ms), "value": value, "stat": f"fastest-{step}-median"}

    def _verify(self, corpus: Sequence[loadgen.Request], bodies: Sequence[bytes]) -> Iterator[str]:
        """Re-derive a seeded sample of responses in this process with
        the scalar evaluator, and compare bytes."""
        model = self.model
        if self.context is None:
            self.context = model.ModelContext()
        rng = random.Random(self.seed)
        picks = rng.sample(range(len(bodies)), min(self.VERIFY, len(bodies)))
        for index in picks:
            target, body = corpus[index]
            payload = json.loads(body)
            if target == loadgen.POINT:
                want = model.evaluate_point_scalar(self.context, model.PointQuery.from_payload(payload))
            else:
                want = model.evaluate_grid(self.context, model.GridQuery.from_payload(payload))
            if json.dumps(want, separators=(",", ":")).encode("utf-8") != bodies[index]:
                yield f"response {index} differs from the in-process evaluation"

    @contextlib.contextmanager
    def traced(self, recorder: Recorder) -> Iterator[Dict[str, str]]:
        """Reboot the server through :mod:`bench.serve_boot`; once it is
        warm, have it wrap its functions; collect its spans after the
        drain."""
        assert self.server is not None
        self.server.stop()
        spans_path = self.work_dir / "server-spans.json"
        wrapped = self.work_dir / "server-wrapped"
        self.server = self._boot(
            [
                sys.executable, "-m", "bench.serve_boot", str(spans_path), str(wrapped),
                "--port", "0", "--no-sweep-cache",
            ]
        )
        self.server.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 10.0
        while not wrapped.exists():
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server did not install its wrappers")
            time.sleep(0.01)
        status: Dict[str, str] = {}
        yield status
        self.server.stop()
        data = json.loads(spans_path.read_text(encoding="utf-8"))
        recorder.extend(data)
        status.update(data["status"])


# ---------------------------------------------------------------------------
class LintFrozen(Workload):
    """The linter over a frozen copy of ``src/repro``.

    It lints the model packages (``refs["packages"]``), where every rule
    applies, vectorization rules included; imports still resolve into
    the whole frozen package.  With ``jobs=1``, round ``i`` lints package
    ``i`` modulo their number, and ``op_ms`` is the sum over packages of
    each one's fastest repetition: one call takes 60-250 ms instead of
    the ~600 ms of all five, so each minimum has more chances to fall in
    a quiet spell of the host.  With ``jobs=2`` one call lints all five,
    since a single package is too little work to share; it runs once per
    pass over the packages, so both metrics get the same share of a run.
    """

    name = "lint_frozen"
    phases = (("op_ms", "lint_serial", True), ("op2_ms", "lint_jobs2", False))
    trace_counts = {"op_ms": 10, "op2_ms": 0}

    def setup(self) -> None:
        self.ref = self.refs["lint_frozen"]
        archive = BENCH_DIR / self.ref["archive"]
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        if digest != self.ref["archive_sha256"]:
            raise RuntimeError(f"lint corpus {archive} has sha256 {digest}, not the pinned one")
        self.corpus = Path(tempfile.mkdtemp(prefix="corpus-", dir=self.work_dir))
        with tarfile.open(archive) as tar:
            tar.extractall(self.corpus, filter="data")
        package = self.corpus / "src" / "repro"
        self.packages = sorted(self.ref["packages"])
        self.targets = [package / name for name in self.packages]
        self.min_rounds = len(self.packages)
        self.engine = importlib.import_module("repro.quality.engine")
        self.engine.LintEngine().lint_paths([package / "units.py"], root=self.corpus, jobs=1)

    def _check(self, report, ref: dict, what: str) -> Optional[str]:
        text = json.dumps(report.to_json(), sort_keys=True)
        got = [report.files_checked, len(report.findings), hashlib.sha256(text.encode()).hexdigest()]
        want = [ref["files"], ref["findings"], ref["report_sha256"]]
        return None if got == want else f"{what} report {got} != {want}"

    def lint_serial(self, i: int) -> Tuple[float, Optional[str]]:
        k = i % len(self.packages)
        engine = self.engine.LintEngine()
        elapsed, report = timed(engine.lint_paths, [self.targets[k]], root=self.corpus, jobs=1)
        return elapsed, self._check(report, self.ref["packages"][self.packages[k]], f"{self.packages[k]} jobs=1")

    def in_round(self, metric: str, i: int) -> bool:
        return metric == "op_ms" or i % len(self.packages) == len(self.packages) - 1

    def lint_jobs2(self, i: int) -> Tuple[float, Optional[str]]:
        # Its digest is the pinned jobs=1 digest of the same call, so a
        # match means the jobs=2 report equals the jobs=1 report.
        engine = self.engine.LintEngine()
        elapsed, report = timed(engine.lint_paths, self.targets, root=self.corpus, jobs=2)
        return elapsed, self._check(report, self.ref, "jobs=2")

    def gate(self, metric: str, samples_ms: Sequence[float]) -> Optional[Dict[str, object]]:
        """``op_ms``: the sum of per-package minima, with quartiles of
        whole passes; ``op2_ms``: the minimum."""
        n = len(self.packages)
        if metric != "op_ms":
            return super().gate(metric, samples_ms)
        if len(samples_ms) < n:  # the operation failed before a whole pass
            return None
        passes = [sum(samples_ms[k : k + n]) for k in range(0, len(samples_ms) - n + 1, n)]
        value = sum(min(samples_ms[k::n]) for k in range(n))
        return {**summary(passes), "value": value, "stat": f"sum of {n} per-package minima"}


WORKLOADS = {w.name: w for w in (CaseSpice, ModelSweep, Iss, ServeMix, LintFrozen)}
