"""``repro serve`` with the benchmark's wrappers, for the traced run.

``python -m bench.serve_boot SPANS_FILE WRAPPED_FILE [serve args...]``
runs ``repro.cli.main(["serve", ...])``.  On SIGUSR1 it wraps the
server's functions and creates ``WRAPPED_FILE``, so the load generator
can boot and warm the server untraced and then trace only its load.
After the SIGTERM drain it restores the functions and writes the spans
and counts it recorded to ``SPANS_FILE``.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

from bench import use_src
from bench.trace import Patcher, Recorder, all_targets


def main(argv: list) -> int:
    spans_file, wrapped_file, serve_args = Path(argv[0]), Path(argv[1]), argv[2:]
    use_src()
    from repro import cli

    recorder = Recorder()
    patcher = Patcher(all_targets(), recorder)

    def wrap(signum: int, frame: object) -> None:
        patcher.install()
        wrapped_file.touch()

    signal.signal(signal.SIGUSR1, wrap)
    try:
        code = cli.main(["serve", *serve_args])
    finally:
        patcher.restore()
    spans_file.write_text(json.dumps({**recorder.to_json(), "status": patcher.status}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
