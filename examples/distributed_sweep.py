"""Distributed sweeps: one session surface, a whole fleet of servers.

``CoordinatedSession`` speaks the same ``SessionProtocol`` as a
``LocalSession``, but its ``sweep()`` shards the workload x config grid
across every ``repro serve`` instance it was given: each (config, workload)
pair rides the job API of one server, dead servers forfeit their shards to
the survivors, a server whose job queue is full gets its shard again after
a back-off — and the folded answer is bit-identical to running everything
in-process.

This walkthrough stands up two real services on background threads (the
in-process stand-in for two ``python -m repro.cli serve`` machines), runs a
coordinated sweep, kills one server, sweeps again on the survivor, and
checks every fold against a plain ``LocalSession``.

Run:  python examples/distributed_sweep.py
"""

from repro.api import LocalSession
from repro.perf.model import ArrayConfig
from repro.service import CoordinatedSession, ServiceThread

ARRAY = ArrayConfig(rows=16, cols=16)
GRID = dict(
    workloads=["gemm", "batched_gemv"],
    configs=[ARRAY, ArrayConfig(rows=8, cols=8)],
)
SWEEP_KW = dict(one_d_only=True, selections=[("m", "n", "k")])


def digest(results) -> list:
    return [
        (r.workload, r.array.rows, [p.metrics() for p in r]) for r in results
    ]


def main() -> None:
    print("== reference: one in-process LocalSession ==")
    local = LocalSession(ARRAY).sweep(GRID["workloads"], GRID["configs"], **SWEEP_KW)
    print(f"  {len(local)} results, {sum(len(r) for r in local)} design points")

    with ServiceThread(LocalSession(ARRAY)) as node_a:
        with ServiceThread(LocalSession(ARRAY)) as node_b:
            print(f"\n== coordinated: {node_a.url} + {node_b.url} ==")
            session = CoordinatedSession([node_a.url, node_b.url], array=ARRAY)
            results = session.sweep(GRID["workloads"], GRID["configs"], **SWEEP_KW)
            print(f"  report: {session.coordinator.last_report}")
            assert digest(results) == digest(local), "distribution leaked!"
            print("  fold identical to the local sweep")

            print("\n== one server dies; the fleet keeps answering ==")
            node_b.stop()
            survivors = CoordinatedSession([node_b.url, node_a.url], array=ARRAY)
            results = survivors.sweep(GRID["workloads"], GRID["configs"], **SWEEP_KW)
            report = survivors.coordinator.last_report
            print(f"  report: {report}")
            assert report["servers_lost"] == 1
            assert digest(results) == digest(local)
            print("  dead server's shards reassigned; fold still identical")
            survivors.close()
            session.close()

    print("\ndistribution is invisible in the results — only in the wall clock")


if __name__ == "__main__":
    main()
