"""The repository benchmark: one seeded workload, timed end to end or per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

Workloads are ``sweep_cold``, ``fleet_warm`` and ``request_mix`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs the workload once untraced and once with the per-layer
wrappers installed, and reports the per-layer metrics.  Every run checks the
program's outputs.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space for caches, journals and span files, inside the checkout.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("sweep_cold", "fleet_warm", "request_mix")
#: Hard stop for one run, well inside the 180 s a run may take.
DEADLINE_S = 170


class RunStopped(Exception):
    """Raised by SIGALRM (the deadline) or SIGTERM so that cleanup runs."""


def _stop(signum, frame):
    raise RunStopped(f"stopped by {signal.Signals(signum).name} "
                     f"(the deadline is {DEADLINE_S} s)")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: {src}/repro not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    from measure import END_TO_END, Context
    from tracing import PER_LAYER

    workload = importlib.import_module(args.workload)
    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    for signum in (signal.SIGALRM, signal.SIGTERM):
        signal.signal(signum, _stop)
    signal.alarm(DEADLINE_S)
    try:
        outcome = workload.run(Context(args.seed, args.seconds, bool(args.trace), workdir))
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass  # another run still uses it

    for line in outcome.notes:
        print(line)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
