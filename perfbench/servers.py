"""Start, signal, stop and reap ``repro serve`` processes for one run.

Every server runs through ``serve.py`` with ``--workers 0``, so load stays
at or below the core count; :class:`Fleet` stops (``SIGTERM``, then
``SIGKILL`` on a timeout) and reaps every server it started when the run
ends, whether the run passed, failed a check or timed out.
"""

from __future__ import annotations

import json
import os
import re
import resource
import select
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_READY = re.compile(r"serving on (http://\S+)")


class ServerProcess:
    """One ``serve.py`` child: its URL once ready, its exit report once stopped."""

    def __init__(self, workdir: str, name: str, serve_args: list[str], trace: bool):
        self.name = name
        self.stats_path = os.path.join(workdir, f"{name}.stats.json")
        self._log = open(os.path.join(workdir, f"{name}.log"), "w")
        cmd = [sys.executable, os.path.join(HERE, "serve.py"), "--stats", self.stats_path]
        if trace:
            cmd.append("--trace")
        cmd += ["--", "--host", "127.0.0.1", "--port", "0", "--workers", "0", *serve_args]
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        self.url: str | None = None
        self.report: dict | None = None

    def wait_ready(self, timeout: float = 60.0) -> str:
        """Block until the server prints its URL."""
        deadline = time.monotonic() + timeout
        while self.url is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"server {self.name} did not start (see its log)")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                match = _READY.search(self.proc.stdout.readline())
                if match:
                    self.url = match.group(1)
        return self.url

    def start_tracing(self) -> None:
        self.proc.send_signal(signal.SIGUSR1)

    def stop(self, timeout: float = 30.0) -> dict:
        """Clean shutdown; returns the launcher's exit report."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self.report is None:
            try:
                with open(self.stats_path) as fh:
                    self.report = json.load(fh)
            except (OSError, ValueError):
                self.report = {}
        return self.report


class Fleet:
    """Every server one run started; :meth:`close` reaps whatever is left."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.servers: list[ServerProcess] = []

    def start(self, name: str, serve_args: list[str], trace: bool) -> ServerProcess:
        server = ServerProcess(self.workdir, name, serve_args, trace)
        self.servers.append(server)
        return server

    def close(self) -> None:
        for server in self.servers:
            if server.proc.poll() is None:
                server.proc.kill()
            server.proc.wait()
            server.stop()


def peak_rss_mb(servers: list[ServerProcess]) -> float:
    """Peak RSS of this process plus that of each (stopped) server."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += sum(int((s.report or {}).get("peak_rss_kb", 0)) for s in servers)
    return kb / 1024.0
