"""Rewrite ``expected.json`` from the current program (about two minutes).

Usage (from the repository root)::

    python3 perfbench/make_expected.py

Only for a change that means to alter the design lists or model outputs;
the benchmark checks every run against this file.  Fails if a workload's
design list depends on the extent choice.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import catalog  # noqa: E402
import outputs  # noqa: E402


def main() -> int:
    from repro.api import LocalSession
    from repro.explore.engine import MemoCache
    from repro.ir import workloads
    from repro.perf.model import ArrayConfig

    designs: dict[str, dict[str, str]] = {"full": {}, "limit8": {}}
    digests: dict[str, str] = {}

    def record(mode, result, extents):
        got = outputs.design_digest(result)
        seen = designs[mode].setdefault(result.workload, got)
        if seen != got:
            raise SystemExit(f"{result.workload}: design list depends on extents")
        key = outputs.output_key(result.workload, extents, result.array.rows, mode)
        digests[key] = outputs.output_digest(result)

    for name in catalog.SWEEP_WORKLOADS:
        for extents in catalog.EXTENTS[name]:
            session = LocalSession(ArrayConfig(rows=16, cols=16), cache=MemoCache())
            (result,) = session.sweep([workloads.by_name(name, **extents)])
            record("full", result, extents)
            print(f"full {name} {extents}: {len(result.points)} points", flush=True)

    configs = [ArrayConfig(rows=n, cols=n) for n in catalog.FLEET_ARRAYS]
    for i in range(len(catalog.EXTENTS["gemm"])):
        chosen = {name: catalog.EXTENTS[name][i] for name in catalog.TABLE_II}
        session = LocalSession(configs[0], cache=MemoCache())
        results = session.sweep(
            [workloads.by_name(name, **chosen[name]) for name in catalog.TABLE_II],
            configs=configs,
            per_selection_limit=catalog.FLEET_LIMIT,
        )
        for result in results:
            record("limit8", result, chosen[result.workload])
        print(f"limit8 extents #{i}: {sum(len(r.points) for r in results)} points", flush=True)

    with open(outputs.EXPECTED_PATH, "w") as fh:
        json.dump({"designs": designs, "outputs": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
