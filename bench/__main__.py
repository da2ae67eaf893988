"""``python -m bench {run,trace,compare}``; see bench/README.md."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from bench import OUT_DIR, spec, use_src


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("run", "trace"):
        p = sub.add_parser(command, help=f"{command} every workload, or one")
        p.add_argument("--workload", help="one workload (default: all)")
        p.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
        p.add_argument("--seconds", type=float, help="measured time per workload (default: run_seconds)")
        p.add_argument("--out", type=Path, default=OUT_DIR, help="directory for the results file")
        if command == "run":
            p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: same as `trace`")
    p = sub.add_parser("compare", help="compare two sets of runs (files or directories)")
    p.add_argument("a", type=Path, help="the parent's runs")
    p.add_argument("b", type=Path, help="the change's runs")
    args = parser.parse_args(argv)

    if args.command == "compare":
        from bench import compare

        return compare.main(args.a, args.b)

    try:
        use_src()
    except FileNotFoundError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from bench import runner

    names = runner.workload_names()
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    trace = args.command == "trace" or bool(getattr(args, "trace", 0))
    try:
        return runner.run(names, args.seed, seconds, trace, args.out)
    except runner.ChildError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
