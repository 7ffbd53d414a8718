"""Host speed, sampled by a fixed pure-Python loop in a helper process.

The CPU speed of a shared 2-vCPU host drifts by up to 1.7x over seconds to
minutes (other tenants), so two runs of the same work minutes apart can
differ by more than any useful bound, and no averaging inside a 30 s run
removes it.  Every run therefore asks a helper process to time this loop
between designs, passes or requests, and reports its timings at the
reference speed::

    t_reference = t_measured * REFERENCE_S / mean(samples)

The helper is a fresh interpreter (``python3 perfbench/calibration.py``),
so it shares no heap and no garbage collector with the program.  While it
samples, the caller blocks on the helper's pipe and every server process of
the run is stopped (``SIGSTOP``, then ``SIGCONT``).  What a sample can still
see of the program is work it leaves running in the caller's own process
between units, such as a background thread; a change that adds such work
reads as a slower host, so the raw timings and the slowdown factor are
printed beside every result and a change must be judged on them too.

Helper protocol: each stdin line names CPUs (``0,1``); the helper runs the
loop pinned to each in turn and answers with the mean seconds.  It exits at
the end of its input.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time

#: Seconds one sample takes at the reference speed (this host's usual pace).
REFERENCE_S = 0.025
#: Seconds between samples; a sample costs about 25 ms per CPU sampled.
INTERVAL_S = 0.5


def _kernel() -> int:
    # dict, tuple, sort and integer work, like the program's hot loops
    table: dict[tuple, int] = {}
    acc = 0
    for i in range(6000):
        key = (i % 97, i % 89, i & 7)
        vec = sorted((i % 13, -(i % 7), i % 5))
        table[key] = table.get(key, 0) + vec[0]
        acc += sum(vec) * 3 % 11
    return acc + len(table)


def _timed() -> float:
    start = time.perf_counter()
    for _ in range(4):
        _kernel()
    return time.perf_counter() - start


def _current_cpu() -> int:
    """The CPU this process runs on (field 39 of ``/proc/self/stat``)."""
    with open("/proc/self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def slowdown(samples) -> float:
    """Mean sample over the reference: above 1 means a slower host."""
    return statistics.fmean(samples) / REFERENCE_S


class HostSpeed:
    """A helper process and the samples it took for one run.

    ``every_cpu`` samples each CPU this process may run on (for work spread
    over several processes); otherwise the helper runs pinned to the CPU the
    caller is on, as if the caller ran the loop itself.
    """

    def __init__(self, every_cpu: bool = False):
        self.samples: list[float] = []
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else None
        self._due = 0.0
        self._helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def _measure(self, pause) -> float:
        cpus = self.cpus or [_current_cpu()]
        stopped = [p for p in pause if p.poll() is None]
        for proc in stopped:
            proc.send_signal(signal.SIGSTOP)
        try:
            self._helper.stdin.write(",".join(map(str, cpus)) + "\n")
            self._helper.stdin.flush()
            answer = self._helper.stdout.readline()
        finally:
            for proc in stopped:
                proc.send_signal(signal.SIGCONT)
        if not answer:
            raise RuntimeError("the host-speed helper exited")
        return float(answer)

    def maybe_sample(self, pause=()) -> None:
        """Take a sample if one is due, with the ``pause`` servers stopped."""
        if time.perf_counter() >= self._due:
            self.samples.append(self._measure(pause))
            self._due = time.perf_counter() + INTERVAL_S

    def sample_now(self, count: int) -> None:
        for _ in range(count):
            self.samples.append(self._measure(()))

    def timed(self, step, servers_of=lambda result: ()):
        """``(step(), its seconds at the reference speed, its raw seconds)``.

        One sample right before and one right after scale this step alone,
        so set-up times follow the host speed of their own moment.  The
        second sample stops ``servers_of(result)``, the servers the step
        started.
        """
        before = self._measure(())
        start = time.perf_counter()
        result = step()
        took = time.perf_counter() - start
        after = self._measure(servers_of(result))
        return result, took / slowdown((before, after)), took

    def slowdown(self) -> float:
        return slowdown(self.samples)

    def close(self) -> None:
        """End the helper and wait for it."""
        if self._helper.poll() is None:
            self._helper.stdin.close()
            try:
                self._helper.wait(10)
            except subprocess.TimeoutExpired:
                self._helper.kill()
        self._helper.wait()
        self._helper.stdout.close()


def _serve() -> int:
    for line in sys.stdin:
        took = []
        for cpu in line.split(","):
            os.sched_setaffinity(0, {int(cpu)})
            took.append(_timed())
        print(repr(statistics.fmean(took)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_serve())
