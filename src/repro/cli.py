"""Command-line interface: regenerate any table or figure from a shell.

Usage::

    python -m repro table2
    python -m repro fig2c
    python -m repro fig5 --grid taiwan --lifetime 36
    python -m repro fig6b
    python -m repro workloads
    python -m repro optimize --lifetime 24
    python -m repro trace artifacts --no-cache
    python -m repro metrics workloads
    python -m repro profile --hz 200 workloads
    python -m repro obs-report --port 8080
    python -m repro --trace fig6b

Observability: ``repro trace <cmd> [args...]`` runs any subcommand with
tracing on, prints the span tree, and writes a Chrome-trace JSON
(open in ``chrome://tracing`` or Perfetto).  ``repro metrics <cmd>``
prints the counter/gauge/histogram table instead.  The top-level
``--trace`` flag (or ``REPRO_TRACE=1``) enables tracing for a plain
subcommand and writes the trace to ``--trace-out`` /
``REPRO_TRACE_OUT`` / ``repro-trace.json``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional


def _non_negative_finite(text: str) -> float:
    """argparse ``type=``: a finite float >= 0 (NaN and inf fail)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (0.0 <= value < math.inf):
        raise argparse.ArgumentTypeError(
            f"must be finite and >= 0, got {text}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--grid",
        default="us",
        choices=("us", "coal", "solar", "taiwan"),
        help="carbon-intensity grid for fabrication and use",
    )
    parser.add_argument(
        "--lifetime",
        type=float,
        default=24.0,
        help="system lifetime in months",
    )
    parser.add_argument(
        "--clock-mhz",
        type=float,
        default=500.0,
        help="target clock frequency (MHz)",
    )


def _build_case(args):
    from repro.analysis import build_case_study
    from repro.core.operational import UsageScenario

    return build_case_study(
        clock_hz=args.clock_mhz * 1e6,
        scenario=UsageScenario(args.lifetime),
        grid=args.grid,
    )


def cmd_table1(args) -> int:
    from repro.analysis import figures
    from repro.analysis.report import render_table1

    print(render_table1(figures.table1_fet_figures()))
    return 0


def cmd_table2(args) -> int:
    from repro.analysis.report import render_table2

    print(render_table2(_build_case(args)))
    return 0


def cmd_fig2c(args) -> int:
    from repro.analysis import figures
    from repro.analysis.report import render_fig2c

    print(render_fig2c(figures.fig2c_embodied_per_wafer()))
    return 0


def cmd_fig2d(args) -> int:
    from repro.analysis import figures
    from repro.analysis.report import render_fig2d

    print(render_fig2d(figures.fig2d_euv_metal_steps()))
    return 0


def cmd_fig4(args) -> int:
    from repro.analysis import figures
    from repro.analysis.report import render_fig4

    print(render_fig4(figures.fig4_energy_vs_clock()))
    return 0


def cmd_fig5(args) -> int:
    from repro.analysis import figures
    from repro.analysis.report import render_fig5

    case = _build_case(args)
    months = [float(m) for m in range(1, int(args.lifetime) + 1)]
    print(render_fig5(figures.fig5_tc_and_tcdp(case, months=months)))
    return 0


def cmd_fig6a(args) -> int:
    from repro.analysis import figures
    from repro.analysis.report import render_fig6a

    case = _build_case(args)
    print(render_fig6a(figures.fig6a_tradeoff_map(case, args.lifetime)))
    return 0


def cmd_fig6b(args) -> int:
    from repro.analysis import figures
    from repro.analysis.report import render_fig6b

    case = _build_case(args)
    print(
        render_fig6b(figures.fig6b_isoline_uncertainty(case, args.lifetime))
    )
    return 0


def cmd_workloads(args) -> int:
    from repro.analysis.suite_study import (
        default_study_configs,
        seed_variant_configs,
    )
    from repro.runtime import render_perf_table, run_workloads
    from repro.runtime.parallel import run_workloads_vector

    if args.variants:
        configs = seed_variant_configs(args.variants)
    else:
        configs = default_study_configs()
    runner = run_workloads_vector if args.vector else run_workloads
    report = runner(
        configs,
        jobs=args.jobs,
        cache=False if args.no_cache else None,
    )
    print(f"{'workload':12s} {'cycles':>10s} {'CPI':>6s} {'checksum':>12s}")
    for result in report.results:
        print(
            f"{result.workload.name:12s} {result.cycles:>10,} "
            f"{result.cpi:>6.2f} {result.checksum:>#12x}"
        )
    if args.perf:
        print()
        print(render_perf_table(report.perfs))
        line = (
            f"suite wall {report.wall_seconds:.3f}s, jobs={report.jobs}, "
            f"cache hits {report.cache_hits}/{len(report.results)}"
        )
        if args.vector:
            line += (
                f", vector groups {report.vector_groups} "
                f"({report.vector_lanes} lanes)"
            )
        print(line)
    return 0


def cmd_artifacts(args) -> int:
    from repro.analysis.artifacts import (
        PipelineConfig,
        render_manifest,
        run_artifact_pipeline,
    )

    config = PipelineConfig(
        grid=args.grid,
        lifetime_months=args.lifetime,
        clock_mhz=args.clock_mhz,
        seed=args.seed,
        mc_samples=args.mc_samples,
    )
    manifest = run_artifact_pipeline(
        args.output,
        config=config,
        artifacts=args.only.split(",") if args.only else None,
        jobs=args.jobs,
        sweep_cache=None if args.no_cache else True,
    )
    print(render_manifest(manifest))
    print(f"wrote {args.output}/{manifest['params_hash'][:12]}/manifest.json")
    return 0


def cmd_process(args) -> int:
    from repro.core.embodied import EmbodiedCarbonModel
    from repro.core.materials import MaterialsModel
    from repro.fab import build_all_si_process, build_m3d_process
    from repro.fab.serialization import dump_flow, load_flow

    if args.dump:
        flow = (
            build_m3d_process()
            if args.builtin == "m3d"
            else build_all_si_process()
        )
        dump_flow(flow, args.dump)
        print(f"wrote {args.builtin} flow to {args.dump}")
        return 0
    if not args.load:
        print("specify --dump FILE or --load FILE")
        return 1
    flow = load_flow(args.load)
    model = EmbodiedCarbonModel(flow, materials=MaterialsModel())
    result = model.evaluate(args.grid)
    print(f"process: {flow.name}")
    print(f"EPA: {flow.total_energy_kwh():.2f} kWh/wafer")
    print(
        f"C_embodied ({args.grid} grid): {result.per_wafer_kg:.1f} kg/wafer"
    )
    for component, grams in result.breakdown_per_wafer_g().items():
        print(f"  {component:32s} {grams/1000:8.1f} kg")
    return 0


def cmd_optimize(args) -> int:
    from repro.core.optimization import optimize_tcdp

    result = optimize_tcdp(lifetime_months=args.lifetime, grid=args.grid)
    print(
        f"tCDP-optimal design at {args.lifetime:.0f} months ({args.grid} grid):"
    )
    best = result.best
    print(
        f"  {best.technology} @ {best.clock_mhz:.0f} MHz "
        f"({best.vt_flavor.upper()}): tCDP {best.tcdp:.4f} gCO2e*s, "
        f"tC {best.total_carbon_g:.2f} g, "
        f"t_exec {best.execution_time_s*1e3:.1f} ms"
    )
    print("\nBest per technology:")
    for tech, point in result.best_per_technology().items():
        print(
            f"  {tech:7s} @ {point.clock_mhz:4.0f} MHz: "
            f"tCDP {point.tcdp:.4f} gCO2e*s"
        )
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import ServerConfig, run_server

    config = ServerConfig(
        host=args.host,
        port=args.port,
        grids=tuple(g.strip() for g in args.grids.split(",") if g.strip()),
        clock_mhz=args.clock_mhz,
        batch_window_s=args.batch_window_ms / 1e3,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        access_log=args.access_log,
        sweep_cache=not args.no_sweep_cache,
        profile_hz=args.profile_hz,
        flight_capacity=args.flight_capacity,
        flight_dump_path=args.flight_dump,
        carbon_grid=args.carbon_grid,
        carbon_sample_s=args.carbon_sample_s,
        slo_latency_ms=args.slo_latency_ms,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        pass
    return 0


def _dispatch_observed(args, label: str) -> int:
    """Parse and run the wrapped subcommand of ``trace``/``metrics``.

    The inner argv is re-parsed with the full parser and its handler is
    called directly — NOT through :func:`main` — so the outer wrapper
    owns the one trace export.
    """
    if args.cmd in ("trace", "metrics", "profile"):
        print(
            f"repro {label}: cannot wrap '{args.cmd}' "
            f"(observability passthroughs do not nest)",
            file=sys.stderr,
        )
        return 2
    inner = build_parser().parse_args([args.cmd] + list(args.cmd_argv))
    return inner.func(inner)


def cmd_trace(args) -> int:
    from repro import obs

    obs.enable()
    code = _dispatch_observed(args, "trace")
    if code == 2 and not obs.get_tracer().spans:
        return code
    tracer = obs.get_tracer()
    out = args.output or os.environ.get(obs.ENV_TRACE_OUT) or "repro-trace.json"
    n_spans = tracer.write_chrome_trace(out, metrics=obs.get_metrics())
    print()
    print(tracer.render_tree())
    print(f"\nwrote {n_spans} span(s) to {out}")
    return code


def cmd_metrics(args) -> int:
    from repro import obs

    obs.enable()
    code = _dispatch_observed(args, "metrics")
    print()
    print(obs.get_metrics().render_text())
    return code


def cmd_profile(args) -> int:
    from repro.obs.profiler import SamplingProfiler

    if args.cmd in ("trace", "metrics", "profile"):
        print(
            f"repro profile: cannot wrap '{args.cmd}' "
            f"(observability passthroughs do not nest)",
            file=sys.stderr,
        )
        return 2
    inner = build_parser().parse_args([args.cmd] + list(args.cmd_argv))
    profiler = SamplingProfiler(hz=args.hz)
    profiler.start()
    try:
        code = inner.func(inner)
    finally:
        report = profiler.stop()
    print()
    print(report.render_text(top=args.top))
    out = args.output or "repro-profile.collapsed"
    n_stacks = report.write_collapsed(out)
    print(f"\nwrote {n_stacks} folded stack(s) to {out}")
    if args.chrome:
        n_events = report.write_chrome_trace(args.chrome)
        print(f"wrote {n_events} trace event(s) to {args.chrome}")
    return code


def cmd_obs_report(args) -> int:
    from repro.serve.report import obs_report

    try:
        print(obs_report(args.host, args.port))
    except (ConnectionError, OSError, RuntimeError) as exc:
        print(
            f"repro obs-report: cannot report on {args.host}:{args.port}: "
            f"{exc}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_lint(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.quality import Baseline, LintEngine, BASELINE_FILENAME

    if args.explain:
        return _explain_rule(args.explain)

    paths = [Path(p) for p in args.paths] if args.paths else None
    if paths is None:
        default = Path("src/repro")
        paths = [default] if default.is_dir() else [Path(".")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path: {missing[0]}", file=sys.stderr)
        return 2

    if args.audit_pragmas:
        from repro.quality import audit_paths, render_audit

        entries, files = audit_paths(paths, root=Path.cwd())
        print(render_audit(entries, files))
        return 1 if entries else 0

    baseline_path = Path(args.baseline) if args.baseline else Path(
        BASELINE_FILENAME
    )
    if args.no_baseline:
        baseline = Baseline()
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2

    rules = None
    if args.rules:
        from repro.quality import RULE_REGISTRY

        wanted = [token.strip() for token in args.rules.split(",")]
        unknown = [r for r in wanted if r not in RULE_REGISTRY]
        if unknown:
            print(
                f"repro lint: unknown rule(s): {', '.join(unknown)} "
                f"(known: {', '.join(sorted(RULE_REGISTRY))})",
                file=sys.stderr,
            )
            return 2
        rules = [RULE_REGISTRY[r]() for r in wanted]

    engine = LintEngine(rules=rules, baseline=baseline)
    report = engine.lint_paths(paths, root=Path.cwd(), jobs=args.jobs)

    if args.write_baseline:
        merged = Baseline.from_findings(report.findings + report.baselined)
        merged.save(baseline_path)
        print(
            f"wrote {baseline_path} with {len(merged)} grandfathered "
            f"finding(s)"
        )
        return 0

    if args.format == "json":
        print(_json.dumps(report.to_json(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.quality.sarif import report_to_sarif

        sarif = report_to_sarif(report, rules=engine.rules)
        print(_json.dumps(sarif, indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return report.exit_code


def cmd_sanitize(args) -> int:
    from pathlib import Path

    from repro.quality.sanitizer import run_pytest

    watch = [Path(p) for p in args.watch] if args.watch else None
    ignore = set(args.ignore) if args.ignore else None
    pytest_args = list(args.pytest_args) or [
        "tests/serve", "tests/runtime", "tests/obs",
    ]
    try:
        report, status = run_pytest(pytest_args, watch=watch, ignore=ignore)
    except RuntimeError as exc:
        print(f"repro sanitize: {exc}", file=sys.stderr)
        return 2
    print()
    print(report.render())
    return status


def cmd_vectorcheck(args) -> int:
    from pathlib import Path

    from repro.quality.vectorcheck import (
        DEFAULT_PACKAGES,
        check_against,
        run_vectorcheck,
    )

    packages = (
        tuple(p.strip() for p in args.packages.split(",") if p.strip())
        if args.packages
        else DEFAULT_PACKAGES
    )
    report = run_vectorcheck(packages=packages, lanes=args.lanes)
    print(report.render_text(verbose=args.verbose))
    if args.output:
        Path(args.output).write_text(report.to_json())
        print(f"wrote {args.output}")
    if args.check:
        committed_path = Path(args.check)
        if not committed_path.is_file():
            print(
                f"repro vectorcheck: no committed artifact at "
                f"{committed_path}",
                file=sys.stderr,
            )
            return 2
        problems = check_against(report, committed_path.read_text())
        for problem in problems:
            print(f"  stale: {problem}", file=sys.stderr)
        if problems:
            print(
                f"repro vectorcheck: {committed_path} is stale; regenerate "
                f"with --output {committed_path}",
                file=sys.stderr,
            )
            return 1
        print(f"committed capability table {committed_path} is current")
    return report.exit_code


def _explain_all_rules() -> int:
    """List every rule id with its one-line summary (``--explain all``)."""
    from repro.quality import LintEngine

    for rule in LintEngine().rules:
        print(
            f"{rule.rule_id}  [{rule.severity.value:7s}] {rule.summary}"
        )
    return 0


def _explain_rule(rule_id: str) -> int:
    """Print the long-form rationale for one lint rule (``--explain``)."""
    from repro.quality import RULE_REGISTRY

    token = rule_id.strip().upper()
    if token == "ALL":
        return _explain_all_rules()
    rule_cls = RULE_REGISTRY.get(token)
    if rule_cls is None:
        print(
            f"repro lint: unknown rule {rule_id!r} "
            f"(known: {', '.join(sorted(RULE_REGISTRY))})",
            file=sys.stderr,
        )
        return 2
    instance = rule_cls()
    doc = (
        getattr(rule_cls, "explain", None)
        or sys.modules[rule_cls.__module__].__doc__
        or rule_cls.__doc__
        or "(no documentation)"
    )
    print(f"{instance.rule_id} [{instance.severity.value}] {instance.summary}")
    print()
    print(doc.strip())
    return 0


_COMMANDS = {
    "table1": (cmd_table1, "Table I: FET figures of merit"),
    "table2": (cmd_table2, "Table II: PPAtC summary"),
    "fig2c": (cmd_fig2c, "Fig. 2c: embodied carbon per wafer"),
    "fig2d": (cmd_fig2d, "Fig. 2d: EUV metal-layer step energies"),
    "fig4": (cmd_fig4, "Fig. 4: M0 energy/cycle vs clock"),
    "fig5": (cmd_fig5, "Fig. 5: tC and tCDP vs lifetime"),
    "fig6a": (cmd_fig6a, "Fig. 6a: tCDP trade-off map"),
    "fig6b": (cmd_fig6b, "Fig. 6b: isoline under uncertainty"),
    "workloads": (cmd_workloads, "run the Embench-style suite"),
    "optimize": (cmd_optimize, "tCDP-optimal operating point"),
    "process": (cmd_process, "dump/evaluate process-flow JSON files"),
    "artifacts": (
        cmd_artifacts,
        "regenerate every paper artifact into a content-addressed store",
    ),
    "serve": (
        cmd_serve,
        "run the PPAtC query server (POST /v1/tcdp, /v1/grid)",
    ),
    "lint": (cmd_lint, "repro-lint static analysis (rules RPL001-RPL016)"),
    "vectorcheck": (
        cmd_vectorcheck,
        "scalar-vs-array differential capability gate "
        "(VECTOR_capability.json)",
    ),
    "sanitize": (
        cmd_sanitize,
        "run tests under the tsan-lite race sanitizer",
    ),
    "trace": (
        cmd_trace,
        "run a subcommand with tracing on; write a Chrome trace JSON",
    ),
    "metrics": (
        cmd_metrics,
        "run a subcommand with metrics on; print the summary table",
    ),
    "profile": (
        cmd_profile,
        "run a subcommand under the sampling profiler; write a "
        "collapsed flamegraph",
    ),
    "obs-report": (
        cmd_obs_report,
        "one-page observability report for a running server",
    ),
}

#: Subcommands that do not take the --grid/--lifetime/--clock-mhz knobs.
_NO_COMMON_ARGS = {
    "lint",
    "vectorcheck",
    "sanitize",
    "trace",
    "metrics",
    "serve",
    "profile",
    "obs-report",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the DATE 2025 PPAtC paper's tables and figures."
        ),
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable tracing for the subcommand and write a Chrome trace",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="trace output path (default: $REPRO_TRACE_OUT or "
        "repro-trace.json)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        if name not in _NO_COMMON_ARGS:
            _add_common(sub)
        if name == "process":
            sub.add_argument(
                "--dump", metavar="FILE", help="write a built-in flow as JSON"
            )
            sub.add_argument(
                "--load", metavar="FILE", help="evaluate a JSON flow"
            )
            sub.add_argument(
                "--builtin",
                default="m3d",
                choices=("all-si", "m3d"),
                help="which built-in flow --dump writes",
            )
        if name == "workloads":
            sub.add_argument(
                "--jobs",
                type=int,
                default=None,
                help="ISS worker processes (default: one per CPU)",
            )
            sub.add_argument(
                "--no-cache",
                action="store_true",
                help="bypass the persistent result cache (REPRO_CACHE_DIR)",
            )
            sub.add_argument(
                "--perf",
                action="store_true",
                help="print wall-time and simulated-MIPS per run",
            )
            sub.add_argument(
                "--vector",
                action="store_true",
                help="run workloads sharing a program text as one "
                "N-lane lockstep vector group",
            )
            sub.add_argument(
                "--variants",
                type=int,
                default=0,
                metavar="N",
                help="run N seed-parameterized matmul variants instead "
                "of the standard suite (pairs with --vector)",
            )
        if name == "serve":
            sub.add_argument(
                "--host", default="127.0.0.1", help="bind address"
            )
            sub.add_argument(
                "--port",
                type=int,
                default=8080,
                help="bind port (0 = ephemeral, announced on stdout)",
            )
            sub.add_argument(
                "--grids",
                default="us,coal,solar,taiwan",
                metavar="NAMES",
                help="comma-separated carbon grids to warm at startup",
            )
            sub.add_argument(
                "--clock-mhz",
                type=float,
                default=500.0,
                help="clock frequency the warmed scenario bases use",
            )
            sub.add_argument(
                "--batch-window-ms",
                type=_non_negative_finite,
                default=0.0,
                help="wait this long for point queries to join a batch "
                "(default 0: evaluate as soon as the batcher is free)",
            )
            sub.add_argument(
                "--max-batch",
                type=int,
                default=128,
                help="max point queries per tensor evaluation",
            )
            sub.add_argument(
                "--max-pending",
                type=int,
                default=1024,
                help="queue depth before requests shed with HTTP 429",
            )
            sub.add_argument(
                "--access-log",
                metavar="FILE",
                default=None,
                help="append JSON-lines access records to FILE",
            )
            sub.add_argument(
                "--no-sweep-cache",
                action="store_true",
                help="disable the shared SweepCache for /v1/grid MC tiles",
            )
            sub.add_argument(
                "--profile-hz",
                type=float,
                default=0.0,
                help="continuous-profiler sampling rate "
                "(0 = off; snapshot at GET /profilez)",
            )
            sub.add_argument(
                "--flight-capacity",
                type=int,
                default=256,
                help="flight-recorder ring size (GET /debugz, SIGUSR2)",
            )
            sub.add_argument(
                "--flight-dump",
                metavar="FILE",
                default=None,
                help="SIGUSR2 flight-dump path "
                "(default: ppatc-flight-<pid>.json)",
            )
            sub.add_argument(
                "--carbon-grid",
                default="us",
                choices=("us", "coal", "solar", "taiwan"),
                help="grid CI the carbon self-telemetry charges energy at",
            )
            sub.add_argument(
                "--carbon-sample-s",
                type=float,
                default=5.0,
                help="carbon self-telemetry sampling period (seconds)",
            )
            sub.add_argument(
                "--slo-latency-ms",
                type=float,
                default=100.0,
                help="latency-SLO threshold reported on /healthz",
            )
        if name in ("trace", "metrics", "profile"):
            sub.add_argument(
                "cmd",
                metavar="CMD",
                help="the subcommand to run under observability",
            )
            sub.add_argument(
                "cmd_argv",
                nargs=argparse.REMAINDER,
                metavar="ARGS",
                help="arguments passed through to CMD",
            )
            if name == "trace":
                sub.add_argument(
                    "--output",
                    metavar="FILE",
                    default=None,
                    help="Chrome trace path (default: $REPRO_TRACE_OUT or "
                    "repro-trace.json)",
                )
            if name == "profile":
                sub.add_argument(
                    "--hz",
                    type=float,
                    default=100.0,
                    help="sampling rate for the profiler thread",
                )
                sub.add_argument(
                    "--top",
                    type=int,
                    default=15,
                    help="hottest stacks to print in the summary table",
                )
                sub.add_argument(
                    "--output",
                    metavar="FILE",
                    default=None,
                    help="collapsed-flamegraph path "
                    "(default: repro-profile.collapsed)",
                )
                sub.add_argument(
                    "--chrome",
                    metavar="FILE",
                    default=None,
                    help="also write a Chrome trace-event JSON to FILE",
                )
        if name == "obs-report":
            sub.add_argument(
                "--host", default="127.0.0.1", help="server address"
            )
            sub.add_argument(
                "--port", type=int, default=8080, help="server port"
            )
        if name == "artifacts":
            sub.add_argument(
                "--output",
                metavar="DIR",
                default="benchmarks/output/artifacts",
                help="content-addressed artifact store root",
            )
            sub.add_argument(
                "--seed",
                type=int,
                default=0,
                help="Monte Carlo seed folded into the parameter hash",
            )
            sub.add_argument(
                "--mc-samples",
                type=int,
                default=1000,
                help="Monte Carlo samples for the win-probability map",
            )
            sub.add_argument(
                "--jobs",
                type=int,
                default=None,
                help="sweep worker processes (default: one per CPU)",
            )
            sub.add_argument(
                "--only",
                metavar="NAMES",
                default=None,
                help="comma-separated subset of artifacts to build",
            )
            sub.add_argument(
                "--no-cache",
                action="store_true",
                help="bypass the persistent sweep cache (REPRO_CACHE_DIR)",
            )
        if name == "lint":
            sub.add_argument(
                "paths",
                nargs="*",
                metavar="PATH",
                help="files/directories to lint (default: src/repro)",
            )
            sub.add_argument(
                "--format",
                default="text",
                choices=("text", "json", "sarif"),
                help="output format (sarif = SARIF 2.1.0 for code "
                "scanning upload)",
            )
            sub.add_argument(
                "--jobs",
                type=int,
                default=None,
                help="lint worker processes (default: one per CPU; "
                "1 = serial)",
            )
            sub.add_argument(
                "--baseline",
                metavar="FILE",
                default=None,
                help="baseline file (default: repro-lint-baseline.json)",
            )
            sub.add_argument(
                "--no-baseline",
                action="store_true",
                help="ignore the baseline: report every finding",
            )
            sub.add_argument(
                "--write-baseline",
                action="store_true",
                help="grandfather all current findings into the baseline",
            )
            sub.add_argument(
                "--rules",
                metavar="IDS",
                default=None,
                help="comma-separated subset of rule ids to run",
            )
            sub.add_argument(
                "--audit-pragmas",
                action="store_true",
                help="report stale/unknown # repro-lint pragmas and exit",
            )
            sub.add_argument(
                "--explain",
                metavar="RULE",
                default=None,
                help="print the rationale and examples for one rule "
                "(e.g. --explain RPL006), or 'all' to list every rule "
                "with its one-line summary, and exit",
            )
        if name == "vectorcheck":
            sub.add_argument(
                "--packages",
                metavar="NAMES",
                default=None,
                help="comma-separated packages to classify "
                "(default: repro.core,repro.physical,repro.fab)",
            )
            sub.add_argument(
                "--lanes",
                type=int,
                default=4,
                help="array lanes per differential call (last lane "
                "perturbed)",
            )
            sub.add_argument(
                "--output",
                metavar="FILE",
                default=None,
                help="write the capability table JSON artifact to FILE",
            )
            sub.add_argument(
                "--check",
                metavar="FILE",
                default=None,
                help="fail if FILE differs from a fresh run "
                "(CI staleness gate)",
            )
            sub.add_argument(
                "--verbose",
                action="store_true",
                help="print every function's classification",
            )
        if name == "sanitize":
            sub.add_argument(
                "pytest_args",
                nargs="*",
                metavar="PYTEST_ARG",
                help="arguments passed through to pytest "
                "(default: tests/serve tests/runtime)",
            )
            sub.add_argument(
                "--watch",
                action="append",
                metavar="PATH",
                default=None,
                help="source tree(s) to watch for shared-state writes "
                "(default: repro's serve/obs/runtime packages; "
                "repeatable)",
            )
            sub.add_argument(
                "--ignore",
                action="append",
                metavar="CLASS.ATTR",
                default=None,
                help="Class.attr pairs exempt from race reporting "
                "(default: known benign lifecycle flags; repeatable)",
            )
        sub.set_defaults(func=func)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro import obs

    args = build_parser().parse_args(argv)
    if getattr(args, "trace", False):
        obs.enable()
    code = args.func(args)
    # Export for --trace / REPRO_TRACE runs of plain subcommands; the
    # trace/metrics passthroughs own their export and are skipped here.
    tracer = obs.get_tracer()
    if tracer.enabled and args.command not in ("trace", "metrics"):
        out = (
            getattr(args, "trace_out", None)
            or os.environ.get(obs.ENV_TRACE_OUT)
            or "repro-trace.json"
        )
        n_spans = tracer.write_chrome_trace(out, metrics=obs.get_metrics())
        print(f"wrote {n_spans} trace span(s) to {out}", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
