"""Fault-injection harness: real ``repro serve`` subprocesses, killed on cue.

The crash/restart suite (``test_crash_restart.py``) and the restart smoke
script exercise the job journal the only honest way — ``SIGKILL`` against a
real server process, so no ``atexit``/``finally`` cleanup ever runs — and
this module keeps that machinery reusable:

- :class:`ServerProcess` spawns ``repro serve`` (optionally with
  ``--journal-dir``), parses the banner for the bound port, and can
  :meth:`kill` (SIGKILL + wait) and :meth:`restart` **on the same port**
  with the same journal directory — the full hard-crash + recovery cycle.
- :func:`journaled_rows` / :func:`journaled_entries` count fsync-flushed
  journal entries on disk, which is how tests time their kills: "mid-stream
  at row N" means *N rows durably journaled*, not N rows merely produced.
- :func:`wait_for` is the tiny poll loop every kill-point trigger shares.
- :func:`data_rows` picks the design rows out of a ``/rows`` frame sequence,
  which is what every recovery assertion compares.

Kill points the suite parametrizes over:

``after_submit``
    the job's header entry is on disk, no rows yet — the job re-enters the
    queue on restart and runs from scratch (dedup keeps its id).
``mid_stream``
    at least N row entries are on disk — restart adopts them and evaluates
    only the remainder.
``after_terminal``
    the ``end`` entry is on disk (the server forces a flush *between* the
    terminal flip and the ``/rows`` end frame) — restart rebuilds a
    terminal job; a client cursor sitting exactly on the last row must
    resume cleanly, not reset.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"

_BANNER_RE = re.compile(r"http://[\d.]+:(\d+)")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}{existing}" if existing else str(SRC)
    return env


class ServerProcess:
    """One ``repro serve`` subprocess that can be SIGKILLed and restarted.

    ``port=0`` binds ephemerally on the first :meth:`start`; the bound port
    is remembered so :meth:`restart` comes back at the same URL — which is
    what lets clients and coordinators resume against it.
    """

    def __init__(
        self,
        *,
        port: int = 0,
        rows: int = 8,
        cols: int = 8,
        journal_dir: str | os.PathLike | None = None,
        extra_args: tuple[str, ...] = (),
    ):
        self.port = port
        self.rows = rows
        self.cols = cols
        self.journal_dir = str(journal_dir) if journal_dir is not None else None
        self.extra_args = tuple(extra_args)
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None

    # -- lifecycle ------------------------------------------------------
    def start(self, timeout: float = 60.0) -> "ServerProcess":
        args = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            str(self.port),
            "--rows",
            str(self.rows),
            "--cols",
            str(self.cols),
            *self.extra_args,
        ]
        if self.journal_dir is not None:
            args += ["--journal-dir", self.journal_dir]
        self.proc = subprocess.Popen(
            args,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=_env(),
        )
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        banner = ""
        while time.monotonic() < deadline:
            banner = self.proc.stdout.readline()
            if not banner and self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited {self.proc.returncode} before binding"
                )
            match = _BANNER_RE.search(banner)
            if match:
                self.port = int(match.group(1))  # pin: restarts reuse it
                self.url = match.group(0)
                return self
        raise RuntimeError(f"no service URL in banner within {timeout}s: {banner!r}")

    def kill(self, timeout: float = 30.0) -> None:
        """SIGKILL — the hard crash: no shutdown path runs, buffers die."""
        assert self.proc is not None, "server not started"
        self.proc.kill()
        self.proc.wait(timeout=timeout)

    def restart(self, timeout: float = 60.0) -> "ServerProcess":
        """Come back on the *same* port with the same journal directory."""
        assert self.proc is not None and self.proc.poll() is not None, (
            "restart() expects the previous process to be dead (call kill())"
        )
        return self.start(timeout=timeout)

    def interrupt(self, timeout: float = 30.0) -> str:
        """SIGINT clean shutdown; returns captured output for assertions."""
        assert self.proc is not None, "server not started"
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            deadline = time.monotonic() + timeout
            while self.proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=10)
                raise AssertionError(f"server on port {self.port} ignored SIGINT")
        return self.proc.stdout.read() if self.proc.stdout else ""

    def stop(self) -> None:
        """Best-effort teardown for fixtures (idempotent)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- journal observation (the kill-point triggers) ----------------------
def journaled_entries(journal_dir: str | os.PathLike) -> list[dict]:
    """Every complete journal entry currently fsync'd across the directory."""
    entries: list[dict] = []
    try:
        names = sorted(os.listdir(journal_dir))
    except OSError:
        return entries
    for name in names:
        if not name.endswith(".ndjson"):
            continue
        try:
            with open(os.path.join(journal_dir, name), "rb") as handle:
                data = handle.read()
        except OSError:
            continue
        for line in data.split(b"\n"):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn tail: the replay codec drops it too
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


def journaled_rows(journal_dir: str | os.PathLike) -> int:
    """How many *row* entries are durably on disk (the mid-stream trigger)."""
    return sum(1 for e in journaled_entries(journal_dir) if e.get("journal") == "row")


def journaled_terminal(journal_dir: str | os.PathLike) -> bool:
    """Whether any job's terminal ``end`` entry reached the disk."""
    return any(e.get("journal") == "end" for e in journaled_entries(journal_dir))


def wait_for(predicate, budget: float = 60.0, pause: float = 0.01) -> bool:
    """Poll ``predicate`` until true or the budget runs out."""
    deadline = time.monotonic() + budget
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(pause)
    return False


def data_rows(frames) -> list[dict]:
    """The ``point``/``failure`` rows of a ``/rows`` frame sequence."""
    return [f for f in frames if f.get("row") in ("point", "failure")]
