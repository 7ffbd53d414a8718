"""Benchmark-owned launcher for ``repro serve``.

Usage::

    python3 perfbench/serve.py --stats OUT.json [--trace] -- [repro serve flags]

Runs ``repro.cli.main(["serve", ...])`` in this process, so the per-layer
wrappers of ``tracing.py`` cover server-side work without touching ``src/``.
With ``--trace`` the wrappers are installed at start and begin recording on
``SIGUSR1`` (sent once warm-up is over).  After the clean ``SIGTERM``
shutdown the launcher writes its peak RSS and, when traced, its spans to
``OUT.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402  (needs the path above)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="where to write the exit report")
    parser.add_argument("--trace", action="store_true", help="install the span wrappers")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.cli import main as cli_main

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        signal.signal(signal.SIGUSR1, lambda *_: tracer.start())
    code = cli_main(["serve", *serve_args])
    report = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.stop()
        report.update(tracer.dump())
    tmp = f"{args.stats}.tmp"
    with open(tmp, "w") as fh:
        json.dump(report, fh)
    os.replace(tmp, args.stats)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
