"""Location-transparent evaluation: one protocol, local or remote.

Everything in this walkthrough is written against ``SessionProtocol`` —
the function ``characterize()`` below never knows whether it holds an
in-process ``LocalSession`` or an HTTP ``RemoteSession``.  The script runs
it both ways: first locally, then against a real evaluation service started
on a background thread (the in-process stand-in for
``python -m repro.cli serve``), and checks the answers agree.

Run:  python examples/remote_evaluation.py
"""

from repro.api import LocalSession, SessionProtocol
from repro.perf.model import ArrayConfig
from repro.service import RemoteSession, ServiceThread

ARRAY = ArrayConfig(rows=16, cols=16)


def characterize(session: SessionProtocol) -> dict:
    """A little characterization study, transport-unaware by construction."""
    # one batch, four backends, one round trip on a remote session
    requests = [
        session.request(
            "gemm", "MNK-SST", backend=backend,
            extents={"m": 64, "n": 64, "k": 64},
            options={"workload_label": "MM"} if backend == "fpga" else {},
        )
        for backend in ("perf", "cost", "fpga")
    ]
    perf, cost, fpga = session.evaluate_many(requests)

    # the design-space pipeline (a one-item job when remote)
    result = session.explore("gemm", selections=[("m", "n", "k")])
    frontier = sorted(result.pareto(), key=lambda p: p.power_mw)
    return {
        "normalized_perf": perf["normalized_perf"],
        "power_mw": cost["power_mw"],
        "fpga_freq_mhz": fpga["freq_mhz"],
        "designs": len(result),
        "frontier": [p.name for p in frontier],
    }


def main() -> None:
    print("== local session ==")
    local = characterize(LocalSession(ARRAY))
    for key, value in local.items():
        print(f"  {key}: {value}")

    print("\n== remote session (same code, over HTTP) ==")
    with ServiceThread(LocalSession(ARRAY)) as server:
        print(f"  service at {server.url}")
        with RemoteSession(server.url, array=ARRAY) as session:
            remote = characterize(session)
            for key, value in remote.items():
                print(f"  {key}: {value}")

            # the job API: queue a sweep, poll it to completion
            import time

            job = session.submit_job(["batched_gemv"], one_d_only=True)
            while job["status"] not in ("done", "failed", "cancelled"):
                time.sleep(0.05)
                job = session.job(job["id"])
            (row,) = job["results"]
            print(f"  job {job['id']}: {job['status']}, "
                  f"{row['points']} batched_gemv designs, "
                  f"pareto: {', '.join(row['pareto'])}")

    assert remote == local, "location transparency broke!"
    print("\nlocal and remote answers are identical")


if __name__ == "__main__":
    main()
