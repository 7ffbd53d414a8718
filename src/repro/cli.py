"""Command-line interface: generate, verify, evaluate and serve accelerators.

All evaluation commands (``verify``, ``evaluate``, ``explore``) are written
against the transport-agnostic :class:`repro.api.SessionProtocol`: run them
directly and they build an in-process :class:`~repro.api.LocalSession`; run
them under ``repro client ... --url`` and the *same command functions* drive
a remote ``repro serve`` through
:class:`~repro.service.client.RemoteSession`.

Examples::

    python -m repro.cli generate gemm MNK-SST --rows 4 --cols 4 -o gemm.v
    python -m repro.cli verify conv2d KCX-SST --rows 4 --cols 4 --cache memo.json
    python -m repro.cli evaluate gemm MNK-MTM --rows 16 --cols 16
    python -m repro.cli explore gemm depthwise_conv --cache dse.json
    python -m repro.cli cache merge -o merged.json shard0.json shard1.json
    python -m repro.cli cache stats merged.json

    # the evaluation service
    python -m repro.cli serve --host 0.0.0.0 --port 8321 --cache memo.json
    python -m repro.cli client evaluate gemm MNK-MTM --url http://host:8321
    python -m repro.cli client explore gemm --rows 16 --cols 16 --url http://host:8321
    python -m repro.cli client stats --url http://host:8321
    python -m repro.cli client tail-job job-3 --url http://host:8321

    # a coordinated sweep over several servers (sharded + folded)
    python -m repro.cli sweep gemm mttkrp --rows 16 --cols 16 \\
        --url http://node-a:8321 --url http://node-b:8321 --cache warm.json \\
        --shard-size 2 --verbose
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core import naming
from repro.hw.generator import AcceleratorGenerator
from repro.ir import workloads
from repro.perf.model import ArrayConfig

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser, with_dataflow: bool = True) -> None:
    parser.add_argument("workload", choices=sorted(workloads.TABLE_II))
    if with_dataflow:
        parser.add_argument("dataflow", help="paper-style name, e.g. MNK-SST")
    parser.add_argument("--rows", type=int, default=4)
    parser.add_argument("--cols", type=int, default=4)
    parser.add_argument(
        "--extent",
        action="append",
        default=[],
        metavar="LOOP=N",
        help="override a loop extent (repeatable)",
    )


def _statement(args):
    extents = {}
    for item in args.extent:
        name, _, value = item.partition("=")
        extents[name] = int(value)
    return workloads.by_name(args.workload, **extents)


def cmd_generate(args) -> int:
    stmt = _statement(args)
    spec = naming.spec_from_name(stmt, args.dataflow)
    design = AcceleratorGenerator(spec, args.rows, args.cols, width=args.width).generate()
    text = design.verilog()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        cells = design.top.cell_count()
        print(
            f"wrote {args.output}: {text.count(chr(10))} lines, "
            f"{cells.get('mul', 0)} muls, {cells.get('reg', 0)} regs"
        )
    else:
        print(text)
    return 0


def _extents(args) -> dict[str, int]:
    extents = {}
    for item in args.extent:
        name, _, value = item.partition("=")
        extents[name] = int(value)
    return extents


def _session(args, **kwargs):
    """A :class:`SessionProtocol` for this invocation: local, or remote (--url)."""
    array = ArrayConfig(rows=args.rows, cols=args.cols)
    url = getattr(args, "url", None)
    if url:
        from repro.service import RemoteSession

        return RemoteSession(url, array=array, **kwargs)
    from repro.api import LocalSession

    return LocalSession(array, cache=getattr(args, "cache", None), **kwargs)


def cmd_verify(args) -> int:
    session = _session(args)
    result = session.evaluate(
        args.workload, args.dataflow, backend="sim", extents=_extents(args)
    )
    if not result.ok:
        print(
            f"error: [{result.failure_stage}] {result.failure_reason}",
            file=sys.stderr,
        )
        return 1
    cached = " (memoized)" if result.cached else ""
    print(
        f"{result.dataflow} on {args.rows}x{args.cols}: netlist simulation matches "
        f"the numpy reference over {result['cycles_run']:.0f} cycles{cached}"
    )
    return 0


def cmd_evaluate(args) -> int:
    session = _session(args)
    extents = _extents(args)
    perf = session.evaluate(
        args.workload,
        args.dataflow,
        backend="perf",
        extents=extents,
        options={"resolve": "best"},
    )
    if not perf.ok:
        print(f"error: [{perf.failure_stage}] {perf.failure_reason}", file=sys.stderr)
        return 1
    # reuse the already-resolved design: the best-by-perf STT walk is the
    # expensive part, and the cost backend must score the same spec anyway
    cost = session.evaluate(
        args.workload,
        backend="cost",
        extents=extents,
        selection=perf.details["selection"],
        stt=perf.details["stt"],
    )
    if not cost.ok:
        print(f"error: [{cost.failure_stage}] {cost.failure_reason}", file=sys.stderr)
        return 1
    stt = tuple(tuple(row) for row in perf.details["stt"])
    print(f"dataflow     {perf.dataflow}  (STT {stt})")
    print(
        f"performance  {perf['normalized_perf']:.1%} of peak "
        f"({perf['cycles']:.3g} cycles)"
    )
    print(
        f"utilization  {perf['utilization']:.2f}   "
        f"bandwidth stall {perf['bandwidth_stall']:.2f}x"
    )
    print(f"area         {cost['area_mm2']:.3f} mm^2")
    print(f"power        {cost['power_mw']:.1f} mW")
    return 0


def cmd_enumerate(args) -> int:
    from repro.core.enumerate import enumerate_designs
    from repro.explore.engine import ONE_D_TYPES

    stmt = _statement(args)
    space = enumerate_designs(
        stmt,
        realizable_only=True,
        canonical=True,
        allowed_types=ONE_D_TYPES if args.one_d else None,
    )
    print(f"{len(space)} distinct realizable designs for {stmt.name}")
    for letters, count in space.letter_histogram().items():
        print(f"  {letters}: {count}")
    return 0


def _workload_statement(name: str, extents: dict[str, int]):
    """Instantiate a Table II workload, applying only the extents it takes."""
    accepted = workloads.accepted_extents(name)
    return workloads.by_name(name, **{k: v for k, v in extents.items() if k in accepted})


def _sweep_statements(args):
    """Validate ``--extent`` against the workloads and instantiate statements.

    Returns ``(statements, error)``; exactly one is ``None``.
    """
    extents = _extents(args)
    accepted = set()
    for workload in args.workloads:
        accepted |= workloads.accepted_extents(workload)
    unknown = sorted(set(extents) - accepted)
    if unknown:
        return None, (
            f"extent(s) {', '.join(unknown)} not accepted by any of "
            f"{', '.join(args.workloads)} (valid: {', '.join(sorted(accepted))})"
        )
    return [_workload_statement(name, extents) for name in args.workloads], None


def _print_sweep_results(results, top: int) -> None:
    """The shared report behind ``repro explore`` and ``repro sweep``."""
    for result in results:
        print(
            f"== {result.workload} on {result.array.rows}x{result.array.cols} "
            f"({result.stats.summary()}) =="
        )
        if result.failures:
            print(result.failure_report())
        ranked = result.best(top)
        print(f"{'dataflow':<14} {'perf':>6} {'cycles':>12} {'area mm2':>9} {'power mW':>9}")
        for pt in ranked:
            print(
                f"{pt.name:<14} {pt.normalized_perf:>5.1%} {pt.cycles:>12.3g} "
                f"{pt.area_mm2:>9.3f} {pt.power_mw:>9.1f}"
            )
        front = result.pareto()
        front.sort(key=lambda p: p.power_mw)
        names = ", ".join(pt.name for pt in front)
        print(f"pareto frontier (max perf, min power): {len(front)} designs: {names}")
        print()


def cmd_explore(args) -> int:
    statements, error = _sweep_statements(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session = _session(args, width=args.width)
    results = session.sweep(statements, one_d_only=args.one_d)
    _print_sweep_results(results, args.top)
    return 0


def _coordinator_event_printer():
    """Build the ``repro sweep --verbose`` stderr printer.

    Each event line carries a wall-clock timestamp plus two monotonic
    readings — ``+T`` since the printer was created and ``Δt`` since the
    previous event — so the overlap the pipelined dispatch loop buys
    (probes racing submits racing folds) is visible in the field, not
    just in benchmarks.
    """
    import time
    from datetime import datetime

    t0 = time.monotonic()
    last = t0

    def printer(evt: dict) -> None:
        nonlocal last
        now = time.monotonic()
        stamp = datetime.now().strftime("%H:%M:%S.%f")[:-3]
        kind = evt.get("event", "?")
        fields = " ".join(f"{k}={v}" for k, v in evt.items() if k != "event")
        print(
            f"[sweep:{kind}] {stamp} +{now - t0:.3f}s Δ{now - last:.3f}s "
            f"{fields}",
            file=sys.stderr,
        )
        last = now

    return printer


def cmd_sweep(args) -> int:
    """Coordinate one sweep across several ``repro serve`` instances."""
    from repro.service import CoordinatedSession

    statements, error = _sweep_statements(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session = CoordinatedSession(
        args.urls,
        array=ArrayConfig(rows=args.rows, cols=args.cols),
        width=args.width,
        cache=args.cache,
        shard_size=args.shard_size,
        max_inflight=args.max_inflight,
        restart_grace=args.restart_grace,
        # surface per-shard retry/reassignment events instead of folding
        # them silently into the final counters
        on_event=_coordinator_event_printer() if args.verbose else None,
    )
    try:
        results = session.sweep(statements, one_d_only=args.one_d)
    except (ConnectionError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
    _print_sweep_results(results, args.top)
    report = session.coordinator.last_report
    print(
        f"coordinated {report['items']} item(s) in {report['shards']} shard(s) "
        f"over {report['servers']} server(s): {report['jobs']} job(s), "
        f"{report['rows_streamed']} row(s) streamed, {report['busy']} "
        f"busy answer(s), {report['reassigned']} reassigned, "
        f"{report['servers_lost']} server(s) lost"
    )
    if report.get("resumed"):
        print(
            f"resumed {report['resumed']} job(s) across server restarts "
            f"({report['rows_replayed']} journaled row(s) replayed without "
            "re-evaluation)"
        )
    if args.cache:
        folded = report.get("cache_entries_folded", 0)
        print(f"folded {folded} remote memo-cache entries into {args.cache}")
    return 0


def _print_cache_stats(label: str, stats: dict[str, int]) -> None:
    from repro.explore.engine import MemoCache

    sections = ", ".join(f"{stats[s]} {s}" for s in MemoCache._SECTIONS)
    print(f"{label}: {sections}")


def _check_cache_file(path: str) -> str | None:
    """Return an error message when ``path`` is missing or not valid JSON.

    ``MemoCache.load`` deliberately degrades a corrupt file to an empty cache
    (a sweep must not die on its own cache), but the cache *tools* exist to
    audit and combine files — silently treating a truncated shard as empty
    would ship an incomplete merged cache with exit code 0.
    """
    import json

    if not os.path.exists(path):
        return f"no such cache file: {path}"
    try:
        with open(path) as fh:
            json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return f"corrupt cache file {path}: {exc}"
    return None


def cmd_cache(args) -> int:
    """Inspect, merge and compact on-disk JSON memo caches.

    ``merge`` is the sharded-sweep companion: run ``sweep()`` on different
    machines with per-shard cache files, then fold them into one warm cache.
    """
    from repro.explore.engine import MemoCache

    if args.cache_cmd == "stats":
        for path in args.paths:
            error = _check_cache_file(path)
            if error:
                print(f"error: {error}", file=sys.stderr)
                return 1
            cache = MemoCache(path)
            _print_cache_stats(f"{path} ({os.path.getsize(path)} bytes)", cache.stats())
        return 0

    if args.cache_cmd == "merge":
        for path in args.paths:
            error = _check_cache_file(path)
            if error:
                print(f"error: {error}", file=sys.stderr)
                return 1
        out = MemoCache(args.output)
        total = 0
        for path in args.paths:
            added = MemoCache(path)
            counts = out.merge_from(added)
            new = sum(counts.values())
            total += new
            print(f"merged {path}: {new} new entries ({len(added)} total in shard)")
        out.flush(force=True)
        _print_cache_stats(f"wrote {args.output} (+{total})", out.stats())
        return 0

    if args.cache_cmd == "compact":
        error = _check_cache_file(args.path)
        if error:
            print(f"error: {error}", file=sys.stderr)
            return 1
        before = os.path.getsize(args.path)
        cache = MemoCache(args.path)
        if args.output:
            cache.path = args.output
        cache.flush(force=True)
        after = os.path.getsize(cache.path)
        print(
            f"compacted {args.path} -> {cache.path}: "
            f"{before} -> {after} bytes ({len(cache)} entries)"
        )
        return 0

    raise AssertionError(args.cache_cmd)  # pragma: no cover


def _add_explore_args(parser: argparse.ArgumentParser) -> None:
    """The explore arguments shared by the local and `client` variants."""
    parser.add_argument(
        "workloads", nargs="+", choices=sorted(workloads.TABLE_II), metavar="workload"
    )
    parser.add_argument("--rows", type=int, default=16)
    parser.add_argument("--cols", type=int, default=16)
    parser.add_argument("--width", type=int, default=16)
    parser.add_argument(
        "--extent",
        action="append",
        default=[],
        metavar="LOOP=N",
        help="override a loop extent where the workload has it (repeatable)",
    )
    parser.add_argument("--one-d", action="store_true", help="1-D dataflow types only")
    parser.add_argument(
        "--top", type=int, default=5, help="how many best-performing designs to print"
    )


def cmd_serve(args) -> int:
    """Run the async evaluation service until SIGINT/SIGTERM (clean shutdown)."""
    import asyncio
    import signal

    from repro.api import SCHEMA_VERSION, LocalSession, available_backends
    from repro.service import EvaluationService

    try:
        session = LocalSession(
            ArrayConfig(rows=args.rows, cols=args.cols),
            width=args.width,
            workers=args.workers,
            cache=args.cache,
            # the service flushes on shutdown and on /v1/cache/flush; rewriting
            # the file after every request would throttle the whole server
            autoflush=False,
        )
        service = EvaluationService(
            session,
            max_queued_jobs=args.max_jobs,
            max_body_bytes=args.max_body_bytes,
            journal_dir=args.journal_dir,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run() -> None:
        server = await service.start(args.host, args.port)
        port = server.sockets[0].getsockname()[1]
        print(
            f"serving on http://{args.host}:{port} "
            f"(schema v{SCHEMA_VERSION}, backends: {', '.join(available_backends())})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        await service.close()

    asyncio.run(run())
    print("shutdown complete", flush=True)
    return 0


def cmd_client_tail_job(args) -> int:
    """Stream a job's row log as NDJSON (`repro client tail-job <id> --url`).

    Long-polls ``GET /v1/jobs/<id>/rows``: each design lands on stdout as one
    JSON line *while the job runs*, framed by ``start`` and ``end`` rows —
    pipe-friendly live telemetry for a queued sweep.  ``--since`` resumes
    from a row cursor (a previous line's ``seq``).
    """
    import json

    from repro.service import RemoteSession

    session = RemoteSession(args.url)
    status = "unknown"
    try:
        for row in session.iter_job_rows(args.job_id, since=args.since):
            print(json.dumps(row), flush=True)
            if row.get("row") == "end":
                status = row.get("status", status)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        session.close()
    print(f"job {args.job_id}: {status}", file=sys.stderr)
    return 0


def cmd_client_stats(args) -> int:
    """Print the remote server's memo-cache stats (`repro client stats`)."""
    from repro.service import RemoteSession

    stats = RemoteSession(args.url).cache_stats()
    if not stats:
        print(f"{args.url}: no memo cache (server started without --cache)")
        return 0
    from repro.explore.engine import MemoCache

    sections = ", ".join(f"{stats[s]} {s}" for s in MemoCache._SECTIONS)
    print(f"{args.url}: {sections} ({stats['hits']} hits, {stats['misses']} misses)")
    return 0


#: Where ``--changed`` looks for lintable files — the same target set the
#: CI gate lints.  Tests (and especially ``tests/analysis/fixtures/``, which
#: contain seeded violations on purpose) are out of scope.
_LINT_ROOTS = ("src/", "scripts/", "benchmarks/")


class _GitUnavailable(Exception):
    """``--changed`` cannot compute a diff here — not an error, a note.

    Raised for every shape of git trouble the hook meets in the wild: a
    freshly ``git init``-ed repo with no commit yet, a missing/garbage REF,
    a checkout that is not a git repo at all, or no ``git`` on PATH.  The
    caller prints the note and exits 0 so pre-commit keeps working."""


def _changed_python_files(ref: str):
    """Lintable Python files touched vs ``ref`` (committed, staged, and
    untracked), restricted to the CI lint target set."""
    import subprocess
    from pathlib import Path

    from repro.analysis.runner import discover_repo_root

    root = discover_repo_root(Path.cwd()) or Path.cwd()
    names: set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, cwd=root, capture_output=True, text=True, check=False
            )
        except OSError as exc:  # no git binary on PATH
            raise _GitUnavailable(f"cannot run git ({exc})") from exc
        if proc.returncode != 0:
            detail = proc.stderr.strip().splitlines()
            raise _GitUnavailable(
                f"`{' '.join(cmd)}` failed"
                + (f" ({detail[0]})" if detail else "")
            )
        names.update(line.strip() for line in proc.stdout.splitlines())
    return [
        root / name
        for name in sorted(names)
        if name.endswith(".py")
        and name.startswith(_LINT_ROOTS)
        and (root / name).exists()
    ]


def cmd_lint(args) -> int:
    """Run the repo's own static-analysis pass (`repro lint`).

    Nine AST checkers (RA001-RA009) prove the service layer's concurrency,
    wire, fold-determinism, taint, and resource-lifecycle contracts —
    RA001/RA005-RA009 over one project-wide call graph, with RA008/RA009
    running the dataflow engine on top of it; see docs/development.md for
    the catalog and the waiver/baseline syntax.  Exits 1 when any
    unsuppressed finding remains.
    """
    from pathlib import Path

    from repro.analysis import (
        LintOptions,
        format_text,
        result_to_json,
        result_to_sarif,
        run_lint,
    )
    from repro.analysis.runner import discover_repo_root, write_baseline

    paths = [Path(p) for p in args.paths]
    use_cache = not args.no_cache
    if args.changed is not None:
        try:
            changed = _changed_python_files(args.changed)
        except _GitUnavailable as exc:
            # a hook must not explode in a no-commit/detached/ref-less repo;
            # there is nothing to diff against, so there is nothing to lint
            print(f"repro lint: --changed skipped, {exc}")
            return 0
        if not changed:
            print(f"repro lint: no Python files changed vs {args.changed}")
            return 0
        # the v2 cache is scope-keyed, so a subset run gets its own entry
        # and can never clobber the whole-tree one
        paths = changed
    options = LintOptions(
        paths=paths,
        docs_path=Path(args.docs) if args.docs else None,
        baseline_path=Path(args.baseline) if args.baseline else None,
        select=set(args.select.split(",")) if args.select else None,
        cache_path=Path(args.cache) if args.cache else None,
        use_cache=use_cache,
    )
    result = run_lint(options)
    if args.write_baseline:
        target = Path(args.baseline) if args.baseline else None
        if target is None:
            root = discover_repo_root()
            target = (root or Path.cwd()) / "lint-baseline.json"
        write_baseline(result, target)
        pinned = len(result.findings) + len(result.baselined)
        print(f"wrote {pinned} finding(s) to {target}")
        return 0
    if args.format == "json":
        print(result_to_json(result))
    elif args.format == "sarif":
        print(result_to_sarif(result))
    else:
        print(format_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="TensorLib reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit Verilog for a dataflow")
    _add_common(p_gen)
    p_gen.add_argument("-o", "--output", help="write Verilog here (default stdout)")
    p_gen.add_argument("--width", type=int, default=32)
    p_gen.set_defaults(func=cmd_generate)

    p_ver = sub.add_parser("verify", help="simulate generated netlist vs numpy")
    _add_common(p_ver)
    p_ver.add_argument(
        "--cache", metavar="PATH", help="memoize verification runs in a JSON cache"
    )
    p_ver.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("evaluate", help="performance/area/power models")
    _add_common(p_eval)
    p_eval.add_argument(
        "--cache", metavar="PATH", help="memoize model evaluations in a JSON cache"
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_enum = sub.add_parser("enumerate", help="count the dataflow design space")
    _add_common(p_enum, with_dataflow=False)
    p_enum.add_argument("--one-d", action="store_true", help="1-D dataflow types only")
    p_enum.set_defaults(func=cmd_enumerate)

    p_exp = sub.add_parser(
        "explore", help="sweep + evaluate the design space (multi-workload)"
    )
    _add_explore_args(p_exp)
    p_exp.add_argument(
        "--cache", metavar="PATH", help="on-disk JSON memo cache for warm re-runs"
    )
    p_exp.set_defaults(func=cmd_explore)

    p_sweep = sub.add_parser(
        "sweep",
        help="coordinate one sweep across several `repro serve` instances",
    )
    _add_explore_args(p_sweep)
    p_sweep.add_argument(
        "--url",
        action="append",
        required=True,
        dest="urls",
        metavar="URL",
        help="a running `repro serve` (repeat for every server in the fleet)",
    )
    p_sweep.add_argument(
        "--cache",
        metavar="PATH",
        help="fold the servers' memo caches into this local JSON cache",
    )
    p_sweep.add_argument(
        "--max-inflight",
        type=int,
        default=2,
        help="shard jobs in flight per server (default 2; clamped by each "
        "server's --max-jobs)",
    )
    p_sweep.add_argument(
        "--shard-size",
        type=int,
        default=1,
        help="sweep items grouped into one job (default 1); larger shards "
        "amortize queue overhead on fleets with many small workloads",
    )
    p_sweep.add_argument(
        "--restart-grace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wait this long for a crashed server to restart and resume its "
        "jobs in place (needs servers running with --journal-dir) before "
        "falling back to reassigning the shard (default 0: reassign "
        "immediately)",
    )
    p_sweep.add_argument(
        "--verbose",
        action="store_true",
        help="print per-shard dispatch/retry/reassignment events to stderr",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_cache = sub.add_parser(
        "cache", help="inspect, merge and compact JSON memo caches"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_cmd", required=True)
    p_stats = cache_sub.add_parser("stats", help="per-section entry counts")
    p_stats.add_argument("paths", nargs="+", metavar="CACHE")
    p_stats.set_defaults(func=cmd_cache)
    p_merge = cache_sub.add_parser(
        "merge", help="fold shard caches into one (for distributed sweeps)"
    )
    p_merge.add_argument("-o", "--output", required=True, metavar="OUT")
    p_merge.add_argument("paths", nargs="+", metavar="CACHE")
    p_merge.set_defaults(func=cmd_cache)
    p_compact = cache_sub.add_parser(
        "compact", help="re-serialize a cache compactly (drops foreign junk)"
    )
    p_compact.add_argument("path", metavar="CACHE")
    p_compact.add_argument("-o", "--output", metavar="OUT", help="write here instead of in place")
    p_compact.set_defaults(func=cmd_cache)

    p_serve = sub.add_parser(
        "serve", help="run the async HTTP/JSON evaluation service"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8321, help="0 picks an ephemeral port"
    )
    p_serve.add_argument("--rows", type=int, default=16)
    p_serve.add_argument("--cols", type=int, default=16)
    p_serve.add_argument("--width", type=int, default=16)
    p_serve.add_argument(
        "--workers", type=int, default=0,
        help="accepted as 0 or 1 only: a server evaluates serially; run one "
        "server per core behind `repro sweep` instead",
    )
    p_serve.add_argument(
        "--cache", metavar="PATH", help="server-side JSON memo cache (shared by all clients)"
    )
    p_serve.add_argument(
        "--max-jobs", type=int, default=16,
        help="bound on the queued-sweep job queue (at least 1; a full queue answers 503)",
    )
    p_serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=None,
        help="request-body size ceiling; larger bodies get 413 before any "
        "byte is buffered (default 8 MiB)",
    )
    p_serve.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="append-only NDJSON job journal directory: jobs (rows, results, "
        "status, submit_key dedup) survive a hard crash + restart; "
        "interrupted jobs resume without re-evaluating journaled designs",
    )
    p_serve.set_defaults(func=cmd_serve)

    url_parent = argparse.ArgumentParser(add_help=False)
    url_parent.add_argument(
        "--url", required=True, metavar="URL", help="base URL of a running `repro serve`"
    )
    p_client = sub.add_parser(
        "client", help="run evaluation commands against a remote `repro serve`"
    )
    client_sub = p_client.add_subparsers(dest="client_cmd", required=True)
    c_ver = client_sub.add_parser(
        "verify", parents=[url_parent], help="remote netlist-vs-numpy verification"
    )
    _add_common(c_ver)
    c_ver.set_defaults(func=cmd_verify)
    c_eval = client_sub.add_parser(
        "evaluate", parents=[url_parent], help="remote performance/area/power models"
    )
    _add_common(c_eval)
    c_eval.set_defaults(func=cmd_evaluate)
    c_exp = client_sub.add_parser(
        "explore", parents=[url_parent], help="remote design-space sweep (NDJSON-streamed)"
    )
    _add_explore_args(c_exp)
    c_exp.set_defaults(func=cmd_explore)
    c_stats = client_sub.add_parser(
        "stats", parents=[url_parent], help="remote memo-cache stats"
    )
    c_stats.set_defaults(func=cmd_client_stats)
    c_tail = client_sub.add_parser(
        "tail-job",
        parents=[url_parent],
        help="stream a job's rows live as NDJSON (long-poll until terminal)",
    )
    c_tail.add_argument("job_id", metavar="JOB_ID", help="a /v1/jobs id, e.g. job-3")
    c_tail.add_argument(
        "--since",
        type=int,
        default=0,
        help="resume from this row cursor (a previous row's seq; default 0)",
    )
    c_tail.set_defaults(func=cmd_client_tail_job)

    p_lint = sub.add_parser(
        "lint", help="run the repo's static-analysis pass (checkers RA001-RA009)"
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    p_lint.add_argument(
        "--docs",
        metavar="MD",
        help="service API doc for the wire-contract checker "
        "(default: docs/service-api.md at the repo root, if present)",
    )
    p_lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (sarif suits GitHub code scanning uploads)",
    )
    p_lint.add_argument(
        "--changed",
        nargs="?",
        metavar="REF",
        const="HEAD",
        default=None,
        help="lint only Python files changed vs REF (default HEAD) plus "
        "untracked ones — the fast pre-commit mode",
    )
    p_lint.add_argument(
        "--cache",
        "--cache-path",
        dest="cache",
        metavar="JSON",
        help="result-cache file (default: $REPRO_LINT_CACHE, else "
        ".repro-lint-cache.json at the repo root)",
    )
    p_lint.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the result cache",
    )
    p_lint.add_argument(
        "--baseline",
        metavar="JSON",
        help="baseline file of known findings (default: lint-baseline.json "
        "at the repo root, if present)",
    )
    p_lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="pin every current finding into the baseline file and exit 0",
    )
    p_lint.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated checker ids to run (e.g. RA001,RA003)",
    )
    p_lint.add_argument(
        "--verbose", action="store_true", help="also list waived/baselined findings"
    )
    p_lint.set_defaults(func=cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
