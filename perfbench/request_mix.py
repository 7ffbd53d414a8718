"""``request_mix``: single-design requests, one client, one server.

Load shape: a closed loop with one client sending seeded
``RemoteSession.evaluate`` calls, one at a time, to one
``repro serve --workers 0 --cache <fresh file>``.  Every block of 20
requests holds exactly ``catalog.BLOCK``: perf, cost and fpga answers
resolved by ``resolve=simplest``, 10% ``resolve=best``, 15% functional
simulation on 2x2 to 4x4 arrays, and 20% exact repeats of earlier requests
(memo reads).  The seed draws the order, the dataflow names, the loop
extents, the simulated arrays and the simulation inputs.

A *request* here is one ``evaluate`` call, as the client waits for it.

The shares of ``catalog.BLOCK`` and the name lists are assumptions: the
repository holds no record of real requests (see ``README.md``).
"""

from __future__ import annotations

import os
import time

import calibration
import catalog
import outputs
import tracing
from measure import SETUP_REPEATS, Context, Outcome, end_to_end
from servers import Fleet, peak_rss_mb

#: Fresh perf/cost/fpga answers re-evaluated in process after the run.
SAMPLE_SIZE = 12
#: The outputs digest covers the answers to this many first requests of the
#: seeded stream, whatever the run's speed: fewer than the slowest run sends
#: in its timed loop, which is topped up untimed when it falls short.
DIGEST_REQUESTS = 200


def _request(session, spec: dict):
    from repro.perf.model import ArrayConfig

    return session.request(
        spec["workload"], spec["dataflow"], backend=spec["backend"],
        extents=spec["extents"], options=spec["options"],
        array=ArrayConfig(rows=spec["rows"], cols=spec["rows"]),
    )


class _Server:
    """One started server with a fresh cache file and a client session."""

    def __init__(self, fleet: Fleet, tag: str, trace: bool):
        from repro.perf.model import ArrayConfig
        from repro.service.client import RemoteSession

        cache = os.path.join(fleet.workdir, f"{tag}.json")
        self.process = fleet.start(tag, ["--cache", cache], trace)
        self.session = RemoteSession(self.process.wait_ready(),
                                     array=ArrayConfig(rows=16, cols=16))
        for spec in catalog.WARMUP:
            self.session.evaluate(_request(self.session, {"rows": 16, **spec}))

    def stop(self) -> dict:
        self.session.close()
        return self.process.stop()


def _send(session, spec: dict) -> tuple:
    """``(spec, request, answer or error, start, end)`` of one request."""
    request = _request(session, spec)
    start = time.perf_counter()
    try:
        answer = session.evaluate(request)
    except Exception as exc:  # noqa: BLE001 -- counted as a failed request
        answer = exc
    return spec, request, answer, start, time.perf_counter()


def _loop(server: _Server, stream, seconds: float, host: calibration.HostSpeed,
          tracer=None) -> list[tuple]:
    """The closed loop: one :func:`_send` tuple per request.

    The host speed is sampled between requests, when a sample is due, with
    the server stopped.
    """
    sent = []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds:
        if tracer is not None:
            tracer.tag = f"request{len(sent)}"
        sent.append(_send(server.session, next(stream)))
        host.maybe_sample(pause=[server.process.proc])
    return sent


def _check(sent) -> tuple[list[str], list[Exception]]:
    """Output problems of the answered requests, and the requests that raised."""
    from repro.api import LocalSession

    problems = []
    answers = [a for _sp, _r, a, _s, _e in sent]
    errors = [a for a in answers if isinstance(a, Exception)]
    for spec, _request, answer, _s, _e in sent:
        if isinstance(answer, Exception):
            continue
        if spec["backend"] == "sim" and not answer.ok:
            problems.append(f"sim {spec['workload']} {spec['dataflow']}: {answer.failure_reason}")
        original = spec["repeat_of"]
        if original is not None and not isinstance(answers[original], Exception):
            if outputs.answer_payload(answer) != outputs.answer_payload(answers[original]):
                problems.append(f"repeat of request {original} answered differently")
    fresh = [s for s in sent if s[0]["repeat_of"] is None and s[0]["backend"] != "sim"
             and not isinstance(s[2], Exception)]
    step = max(1, len(fresh) // SAMPLE_SIZE)
    local = LocalSession(cache=None)
    for spec, request, answer, _s, _e in fresh[::step][:SAMPLE_SIZE]:
        if outputs.answer_payload(local.evaluate(request)) != outputs.answer_payload(answer):
            problems.append(f"{spec['backend']} {spec['workload']} {spec['dataflow']}: "
                            "server answer differs from in-process evaluation")
    return problems, errors


def _stats(sent):
    waits = [end - start for *_x, start, end in sent]
    return len(sent), sum(waits), waits


def run(ctx: Context) -> Outcome:
    fleet = Fleet(ctx.workdir)
    host = calibration.HostSpeed()
    try:
        setups = []
        for rep in range(SETUP_REPEATS):
            server, scaled, raw = host.timed(lambda: _Server(fleet, f"s{rep}", trace=False),
                                             lambda started: [started.process.proc])
            setups.append((scaled, raw))
            if rep < SETUP_REPEATS - 1:
                server.stop()
        stream = catalog.RequestStream(ctx.seed)
        sent = _loop(server, stream, ctx.seconds, host)
        untimed = [_send(server.session, next(stream))
                   for _ in range(DIGEST_REQUESTS - len(sent))]
        server.stop()
        requests, busy, waits = _stats(sent)
        if ctx.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            t_host = calibration.HostSpeed()
            try:
                traced = _Server(fleet, "traced", trace=True)
                traced.process.start_tracing()
                tracer.start()
                t_sent = _loop(traced, catalog.RequestStream(ctx.seed), ctx.seconds, t_host, tracer)
                tracer.stop()
                report = traced.stop()
            finally:
                t_host.close()
    finally:
        host.close()
        fleet.close()

    problems, errors = _check(sent + untimed)
    digested = [a for _sp, _r, a, _s, _e in (sent + untimed)[:DIGEST_REQUESTS]]
    notes = [f"outputs digest (first {DIGEST_REQUESTS} requests): "
             f"{outputs.answer_digest(digested)}"]
    notes += [f"request raised: {exc!r}" for exc in errors[:3]]
    if not ctx.trace:
        metrics, note = end_to_end(requests, busy, waits, setups,
                                   peak_rss_mb([server.process]), "one evaluate call",
                                   host.slowdown())
        return Outcome(not problems, requests, len(errors), metrics, notes + [note] + problems)

    t_problems, t_errors = _check(t_sent)
    t_requests, t_busy, t_waits = _stats(t_sent)
    server_spans = report.get("spans", [])
    handled = tracing.durations(server_spans, "api.evaluate")
    paired = min(len(handled), len(t_waits))
    http = [w - h for w, h in zip(t_waits[-paired:], handled[-paired:])] if paired else []
    extra = {
        "service.http_ms_p50": tracing.median_ms(http),
        "bench.trace_overhead": (t_requests * t_host.slowdown() / t_busy)
        / (requests * host.slowdown() / busy),
    }
    metrics = tracing.summarize([tracer.dump(), report], extra)
    notes.append("client " + tracing.shares(tracer.records, t_busy))
    notes.append("server " + tracing.shares(server_spans, t_busy))
    notes.append(f"{len(handled)} server evaluate spans for {t_requests} requests")
    return Outcome(not (problems or t_problems), t_requests, len(t_errors), metrics,
                   notes + problems + t_problems)
