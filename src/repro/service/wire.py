"""Wire-format helpers shared by the service server and the remote client.

The service speaks exactly the versioned JSON the API layer already defines
(:class:`~repro.api.types.DesignRequest` / :class:`~repro.api.types.EvalResult`
with ``schema_version``); this module adds the few shapes that are service
specific and must be identical on both ends:

- **statement payloads** — a Table II workload name plus its loop extents, the
  serializable identity of a :class:`~repro.ir.einsum.Statement` (arbitrary
  statements cannot travel; the design-space endpoints accept exactly what
  the CLI accepts);
- **NDJSON rows** — a job's row log, streamed by ``GET /v1/jobs/<id>/rows``:
  one ``point``/``failure`` row per design *as it is produced*.  Points
  round-trip losslessly: the ``(selection, STT)`` pair reconstructs the
  exact :class:`DataflowSpec` client-side, and :func:`result_from_record`
  closes a job item's folded rows into an :class:`EvaluationResult`;
- **error payloads** — exceptions cross the wire as
  ``{"error", "error_type"}`` and are re-raised client-side as the matching
  built-in type, so ``RemoteSession`` surfaces the same ``LookupError`` /
  ``ValueError`` / :class:`SchemaVersionError` a ``LocalSession`` would;
- **job journal entries** — the durable-job NDJSON log (``repro serve
  --journal-dir``): one ``job`` header entry per submission, then every wire
  row and per-item record *as produced*, then one terminal ``end`` entry.
  :func:`decode_journal` tolerates a torn final line (the crash-consistency
  contract of an append-only log) and :func:`replay_journal` folds the
  entries back into the exact field set a server needs to rebuild the
  ``Job`` after a hard restart.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping, NoReturn

from repro.api.types import SchemaVersionError, array_from_dict
from repro.core.dataflow import DataflowSpec, check_selection
from repro.core.enumerate import EnumerationStats, check_limit
from repro.core.naming import check_bound
from repro.core.stt import STT
from repro.explore.engine import (
    DesignFailure,
    DesignPoint,
    EvaluationResult,
    EvaluationStats,
)
from repro.ir import workloads as workload_lib
from repro.ir.einsum import Statement
from repro.perf.model import ArrayConfig

__all__ = [
    "SCHEMA_HEADER",
    "ENGINE_OPTIONS",
    "MAX_BODY_BYTES",
    "MAX_JOB_ITEMS",
    "PayloadTooLargeError",
    "ServiceBusyError",
    "bounded_body",
    "engine_options",
    "check_selections",
    "statement_payload",
    "instantiate_statement",
    "job_items",
    "array_to_dict",
    "array_from_dict",
    "point_to_row",
    "row_to_point",
    "stats_to_row",
    "row_to_stats",
    "result_from_record",
    "error_payload",
    "raise_remote_error",
    "JOURNAL_SUFFIX",
    "JOURNAL_KINDS",
    "journal_entry",
    "encode_journal_entry",
    "journal_row_line",
    "decode_journal",
    "replay_journal",
]

#: Request header carrying the client's wire-format version; the server
#: refuses mismatches up front (409) instead of failing mid-payload.
SCHEMA_HEADER = "X-Repro-Schema"


class ServiceBusyError(RuntimeError):
    """HTTP 503 from the service: a full job queue.

    Distinct from a transport failure — the server is alive and answered —
    so callers (the sweep coordinator in particular) can back off and
    resubmit instead of writing the server off as dead.
    """


class PayloadTooLargeError(ValueError):
    """HTTP 413: a request body larger than the server's buffering ceiling.

    A subclass of :class:`ValueError` so generic client-error handling still
    treats it as a malformed request, while the server can answer with the
    specific status before reading a single body byte.
    """


#: Hard ceiling on the bytes of request body the server will buffer.  The
#: ``/v1`` payloads are workload references and option blocks, not bulk
#: data; anything near this size is a mistake or an attack, and without a
#: ceiling a single ``Content-Length: 1e12`` request makes ``readexactly``
#: buffer attacker-chosen amounts of memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Cap on the (workload × config) items one job submission may expand to —
#: the queue holds whole jobs, so an unbounded item list smuggles an
#: unbounded sweep past ``max_queued_jobs``.
MAX_JOB_ITEMS = 1024


def bounded_body(raw: Any, limit: int = MAX_BODY_BYTES) -> int:
    """Validate a ``Content-Length`` value against the body-size ceiling.

    The server's single sanitizer for request-sized allocations: returns the
    length as a bounded ``int``, raising ``ValueError`` on garbage and
    :class:`PayloadTooLargeError` (→ HTTP 413) past ``limit`` — *before* the
    body is read, so an oversized request costs the server nothing.
    """
    try:
        length = int(raw or 0)
    except (TypeError, ValueError):
        raise ValueError(f"invalid Content-Length {raw!r}") from None
    if length < 0:
        raise ValueError(f"negative Content-Length {length}")
    if length > limit:
        raise PayloadTooLargeError(
            f"request body of {length} bytes exceeds this server's "
            f"{limit}-byte limit"
        )
    return length


#: ``options`` keys a job payload may pass through to the engine.
#: Everything here is JSON-serializable; ``predicates`` (arbitrary
#: callables) deliberately has no wire identity.
ENGINE_OPTIONS = (
    "one_d_only",
    "selections",
    "bound",
    "per_selection_limit",
    "realizable_only",
    "canonical",
)


def engine_options(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Validate and normalize a payload's engine ``options`` block.

    Shared by the server (validating incoming payloads) and the sweep
    coordinator (validating before anything is submitted), so both ends
    reject the same unknown names, a ``bound`` outside ``1..MAX_BOUND``, a
    flag that is not a boolean, a ``per_selection_limit`` that is not null
    or an integer >= 1 and ``selections`` that are not lists of loop names,
    with the same message.  Which loops a selection may name depends on the
    statement: :func:`check_selections` checks that.
    """
    options = payload.get("options") or {}
    unknown = sorted(set(options) - set(ENGINE_OPTIONS))
    if unknown:
        raise ValueError(
            f"unknown explore option(s) {unknown}; known: {sorted(ENGINE_OPTIONS)}"
        )
    out = dict(options)
    if "bound" in out:
        # the candidate table grows as (2 * bound + 1) ** 9 and is cached for
        # the life of the process: refuse a large bound before any work
        check_bound(out["bound"])
    for flag in ("one_d_only", "realizable_only", "canonical"):
        if flag in out and not isinstance(out[flag], bool):
            raise ValueError(f"{flag} must be a boolean, got {out[flag]!r}")
    check_limit(out.get("per_selection_limit"), "per_selection_limit")
    selections = out.get("selections")
    if selections is not None:
        if not isinstance(selections, (list, tuple)) or not all(
            isinstance(sel, (list, tuple)) and all(isinstance(name, str) for name in sel)
            for sel in selections
        ):
            raise ValueError(
                f"selections must be a list of lists of loop names, got {selections!r}"
            )
        out["selections"] = [tuple(sel) for sel in selections]
    return out


def check_selections(statement: Statement, selections: Any) -> None:
    """Refuse ``selections`` (as :func:`engine_options` returns them) unless
    every entry names 3 distinct loops of ``statement`` and none repeats.

    The library enumerates such entries anyway (a bad one yields nothing, a
    repeated one re-enumerates the whole candidate table); a request must
    say what it means, so the service and the sweep coordinator check here,
    where the statement is instantiated.
    """
    seen: set[tuple[str, ...]] = set()
    for sel in selections or ():
        try:
            check_selection(statement, sel)
        except ValueError as exc:
            raise ValueError(f"selection {list(sel)!r}: {exc}") from None
        key = tuple(sel)
        if key in seen:
            raise ValueError(f"selection {list(sel)!r} is repeated")
        seen.add(key)


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
def statement_payload(
    workload: Statement | str, extents: Mapping[str, int] | None = None
) -> dict[str, Any]:
    """Serialize a workload reference for the design-space endpoints.

    Accepts a Table II name (with optional ``extents`` overrides) or a ready
    :class:`Statement` instantiated from a Table II factory — the same two
    forms ``LocalSession.explore`` takes.  A statement whose name is not a
    Table II entry has no wire identity and is rejected loudly.
    """
    if isinstance(workload, str):
        if workload not in workload_lib.TABLE_II:
            raise KeyError(
                f"unknown workload {workload!r}; known: {sorted(workload_lib.TABLE_II)}"
            )
        return {"workload": workload, "extents": dict(extents or {})}
    statement = workload
    if statement.name not in workload_lib.TABLE_II:
        raise ValueError(
            f"statement {statement.name!r} is not a Table II workload; remote "
            "design-space calls can only ship workloads both ends can "
            f"instantiate by name (known: {sorted(workload_lib.TABLE_II)})"
        )
    if extents:
        raise TypeError("pass extents only with a workload name, not a Statement")
    # a statement's iteration space may name derived loops the factory does
    # not parameterize; only factory-accepted extents are its wire identity
    accepted = workload_lib.accepted_extents(statement.name)
    extent_map = dict(zip(statement.space.names, statement.space.extents))
    return {
        "workload": statement.name,
        "extents": {k: int(v) for k, v in extent_map.items() if k in accepted},
    }


def instantiate_statement(payload: Mapping[str, Any]) -> Statement:
    """Rebuild the :class:`Statement` a :func:`statement_payload` describes.

    Unknown extent keys are rejected (``TypeError``) exactly like
    ``LocalSession.explore`` rejects them — a remote caller must never get
    silently served a different problem size than the one they asked for.
    """
    name = payload["workload"]
    extents = payload.get("extents") or {}
    accepted = workload_lib.accepted_extents(name)  # KeyError names the workload
    unknown = sorted(set(extents) - accepted)
    if unknown:
        raise TypeError(
            f"workload {name!r} does not accept extent(s) {unknown}; "
            f"accepted: {sorted(accepted)}"
        )
    return workload_lib.by_name(name, **{k: int(v) for k, v in extents.items()})


def job_items(payload: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Normalize a job payload's ``workloads`` list into statement payloads.

    Each entry may be a bare Table II name (inheriting the job's top-level
    ``extents``) or a ``{"workload": name, "extents": {...}}`` object carrying
    its own — which is what lets a sweep coordinator group several
    (config, workload) items with *different* problem sizes into one job
    (``shard_size > 1``).  Returns one ``{"workload", "extents"}`` payload per
    item, in job order; the shapes are validated here, the names/extents by
    :func:`instantiate_statement`.
    """
    workloads = payload.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        raise ValueError('job body needs a non-empty "workloads" list')
    if len(workloads) > MAX_JOB_ITEMS:
        raise ValueError(
            f'job "workloads" lists {len(workloads)} items; '
            f"jobs are capped at {MAX_JOB_ITEMS}"
        )
    base_extents = payload.get("extents") or {}
    if not isinstance(base_extents, Mapping):
        raise ValueError('job "extents" must be an object')
    items: list[dict[str, Any]] = []
    for entry in workloads:
        if isinstance(entry, str):
            items.append({"workload": entry, "extents": dict(base_extents)})
            continue
        if not isinstance(entry, Mapping) or not isinstance(
            entry.get("workload"), str
        ):
            raise ValueError(
                '"workloads" entries must be workload names or '
                '{"workload": name, "extents": {...}} objects'
            )
        extents = entry.get("extents")
        if extents is not None and not isinstance(extents, Mapping):
            raise ValueError('a workloads entry "extents" must be an object')
        items.append(
            {
                "workload": entry["workload"],
                "extents": dict(base_extents if extents is None else extents),
            }
        )
    return items


# ----------------------------------------------------------------------
# Array configs (the validating decoder, ``array_from_dict``, lives in
# ``repro.api.types``, so request bodies decode through the same checks)
# ----------------------------------------------------------------------
def array_to_dict(array: ArrayConfig) -> dict[str, Any]:
    return dataclasses.asdict(array)


# ----------------------------------------------------------------------
# NDJSON rows (a job's row log)
# ----------------------------------------------------------------------
def point_to_row(point: DesignPoint) -> dict[str, Any]:
    """One streamed design: metrics for successes, stage+reason for failures.

    ``seq`` (the point's 1-based emission index, when the engine assigned
    one) travels with the row — it is the cursor a job's row stream
    (``GET /v1/jobs/<id>/rows?since=``) resumes from, and lets any stream
    consumer detect dropped rows.
    """
    row: dict[str, Any] = {
        "row": "point" if point.ok else "failure",
        "selection": list(point.spec.selected),
        "stt": [list(r) for r in point.spec.stt.matrix],
    }
    if point.seq is not None:
        row["seq"] = point.seq
    if point.ok:
        row.update(
            normalized_perf=point.normalized_perf,
            cycles=point.cycles,
            area_mm2=point.area_mm2,
            power_mw=point.power_mw,
        )
    else:
        assert point.failure is not None
        row.update(stage=point.failure.stage, reason=point.failure.reason)
    return row


def row_to_point(row: Mapping[str, Any], statement: Statement) -> DesignPoint:
    """Reconstruct the exact :class:`DesignPoint` a ``point``/``failure`` row encodes."""
    # trusted adoption: the emitting server validated the STT when the
    # design was enumerated, and folding reads only the scalar metrics —
    # this keeps the per-row decode O(parse) on the streaming hot path
    spec = DataflowSpec(statement, tuple(row["selection"]), STT.trusted(row["stt"]))
    seq = row.get("seq")
    if row["row"] == "point":
        return DesignPoint(
            spec=spec,
            normalized_perf=row["normalized_perf"],
            cycles=row["cycles"],
            area_mm2=row["area_mm2"],
            power_mw=row["power_mw"],
            seq=seq,
        )
    return DesignPoint(
        spec=spec,
        failure=DesignFailure(
            spec_name=spec.name,
            letters=spec.letters,
            stage=row["stage"],
            reason=row["reason"],
        ),
        seq=seq,
    )


def stats_to_row(stats: EvaluationStats) -> dict[str, Any]:
    """The ``stats`` of a job's per-item record."""
    return dataclasses.asdict(stats)


def row_to_stats(row: Mapping[str, Any]) -> EvaluationStats:
    data = dict(row)
    data["enum"] = EnumerationStats(**data.get("enum", {}))
    return EvaluationStats(**data)


def result_from_record(
    record: Mapping[str, Any],
    points: list[DesignPoint],
    failures: list[DesignPoint],
) -> EvaluationResult:
    """The :class:`EvaluationResult` of one finished job item: its per-item
    record (from the ``/rows`` end frame) plus the item's folded rows."""
    return EvaluationResult(
        workload=record["workload"],
        array=array_from_dict(record["array"]),
        points=points,
        failures=failures,
        stats=row_to_stats(record["stats"]),
    )


# ----------------------------------------------------------------------
# Job journals (repro serve --journal-dir)
# ----------------------------------------------------------------------
#: File suffix of one job's append-only journal inside ``--journal-dir``.
#: The name stem is the server-generated job id (``job-<n>``) — never a
#: request-derived value, so journal paths need no sanitizing.
JOURNAL_SUFFIX = ".ndjson"

#: Entry kinds a job journal may contain, in the order a job's life writes
#: them: one ``job`` header, interleaved ``row``/``record`` entries as the
#: runner produces them, then one terminal ``end`` entry.
JOURNAL_KINDS = ("job", "row", "record", "end")


def journal_entry(kind: str, fields: Mapping[str, Any]) -> dict[str, Any]:
    """One journal entry: the payload dict tagged with its ``journal`` kind.

    ``row`` entries embed the exact ``/rows`` wire row (with its ``seq``
    and ``item`` keys), ``record`` entries the exact per-item result
    record — both are flat merges, which is what lets :func:`replay_journal`
    hand them straight back to a rebuilt ``Job`` without a second codec.
    """
    if kind not in JOURNAL_KINDS:
        raise ValueError(f"unknown journal entry kind {kind!r}; known: {JOURNAL_KINDS}")
    return {"journal": kind, **fields}


def encode_journal_entry(entry: Mapping[str, Any]) -> bytes:
    """One NDJSON journal line, newline-terminated (the torn-line sentinel)."""
    return json.dumps(entry).encode() + b"\n"


def journal_row_line(row_line: bytes) -> bytes:
    """The journal line of a ``row`` entry, made from the row's NDJSON line.

    ``row_line`` is ``json.dumps(row).encode() + b"\\n"`` for a non-empty wire
    row; the result is byte-identical to
    ``encode_journal_entry(journal_entry("row", row))``, so a job's rows are
    JSON-encoded once for both its ``/rows`` log and its journal.
    """
    return b'{"journal": "row", ' + row_line[1:]


def decode_journal(data: bytes) -> list[dict[str, Any]]:
    """Decode a journal file's bytes, tolerating a torn tail.

    A crash can leave the final line half-written (no trailing newline, or
    bytes that no longer parse); anything from the first damaged line on is
    dropped — every line *before* it was written and fsynced whole, so the
    decoded prefix is exactly the durable history.  An empty (or fully torn)
    file decodes to ``[]``.
    """
    entries: list[dict[str, Any]] = []
    complete, _, _tail = data.rpartition(b"\n")
    for line in complete.split(b"\n"):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            break  # a damaged line voids everything after it
        if not isinstance(entry, dict) or entry.get("journal") not in JOURNAL_KINDS:
            break
        entries.append(entry)
    return entries


def replay_journal(entries: list[dict[str, Any]]) -> dict[str, Any] | None:
    """Fold decoded journal entries back into a job's rebuildable field set.

    Returns ``None`` when the journal never got a ``job`` header (an empty or
    fully torn file — the job id was never durably created).  Otherwise the
    returned dict carries ``id``/``payload``/``total_items`` from the
    header, the replayed ``rows`` and per-item ``results``, and the
    terminal ``status``/``error``/``cancelled_while`` — with ``status=None``
    when no ``end`` entry survived, i.e. the job was still queued or running
    when the server died and must be resumed.
    """
    fields: dict[str, Any] | None = None
    for entry in entries:
        kind = entry["journal"]
        if kind == "job":
            fields = {
                "id": str(entry.get("id", "")),
                "payload": dict(entry.get("payload") or {}),
                "total_items": int(entry.get("total_items", 0)),
                "rows": [],
                "results": [],
                "status": None,
                "error": None,
                "cancelled_while": None,
            }
            continue
        if fields is None:
            return None  # entries before a header: not a journal we wrote
        body = {k: v for k, v in entry.items() if k != "journal"}
        if kind == "row":
            fields["rows"].append(body)
        elif kind == "record":
            fields["results"].append(body)
        else:  # "end"
            fields["status"] = body.get("status")
            fields["error"] = body.get("error")
            fields["cancelled_while"] = body.get("cancelled_while")
    if fields is None or not fields["id"]:
        return None
    return fields


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
#: Exception types a server error payload may name; anything else re-raises
#: as RuntimeError so an unexpected server-side crash is visibly remote.
_ERROR_TYPES: dict[str, type[BaseException]] = {
    "SchemaVersionError": SchemaVersionError,
    "LookupError": LookupError,
    "KeyError": KeyError,
    "ValueError": ValueError,
    "TypeError": TypeError,
    "NotImplementedError": NotImplementedError,
    "PayloadTooLargeError": PayloadTooLargeError,
}


def error_payload(exc: BaseException) -> dict[str, Any]:
    message = str(exc)
    if isinstance(exc, KeyError) and exc.args:
        # KeyError stringifies as the repr of its key; keep the message
        message = str(exc.args[0])
    return {"error": message, "error_type": type(exc).__name__}


def raise_remote_error(payload: Mapping[str, Any], status: int) -> NoReturn:
    """Re-raise a server error payload as the matching local exception."""
    message = payload.get("error", f"HTTP {status}")
    if status == 503:
        raise ServiceBusyError(message)
    exc_type = _ERROR_TYPES.get(payload.get("error_type", ""), RuntimeError)
    raise exc_type(message)
