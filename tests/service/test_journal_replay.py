"""Property test: journal replay is exact under arbitrary crash points.

The durability argument for ``--journal-dir`` rests on one invariant: for
*any* byte offset a crash can truncate the NDJSON journal at — mid-line,
between lines, at zero — decoding tolerates the tear and replays a job
whose snapshot equals the pre-crash snapshot **up to the last durably
written ``seq``**: the surviving rows are exactly a prefix, their seqs
contiguous from 1, the per-item records a matching prefix, and the terminal
status present only when the ``end`` entry itself survived whole.

Hypothesis drives random row/record interleavings, terminal states and cut
offsets (the empty file and the torn final line fall out of the offset
range); a second property feeds random garbage tails to pin the
drop-everything-after-damage rule.  One server-level test pins how a
row-less journal written by an older build replays.
"""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.api import LocalSession  # noqa: E402
from repro.perf.model import ArrayConfig  # noqa: E402
from repro.service import RemoteSession, ServiceThread, wire  # noqa: E402
from repro.service.server import Job  # noqa: E402

from .faultlib import data_rows  # noqa: E402


def _entries(n_rows: int, item_size: int, with_end: bool, status: str):
    """A plausible journal history: header, rows, per-item records, end."""
    entries: list[tuple[str, dict]] = [
        (
            "job",
            {
                "schema_version": 1,
                "id": "job-3",
                "payload": {"workloads": ["w"], "submit_key": "sk"},
                "total_items": max(1, (n_rows + item_size - 1) // item_size),
                # earlier builds wrote this flag; replay must ignore it
                "keep_rows": True,
            },
        )
    ]
    for i in range(n_rows):
        entries.append(
            (
                "row",
                {
                    "row": "point" if i % 3 else "failure",
                    "seq": i + 1,
                    "item": i // item_size,
                    "name": f"d{i}",
                    "metrics": {"x": i},
                },
            )
        )
        if (i + 1) % item_size == 0:
            entries.append(
                (
                    "record",
                    {
                        "workload": "w",
                        "item": i // item_size,
                        "points": item_size,
                        "failures": 0,
                    },
                )
            )
    if with_end:
        entries.append(
            ("end", {"status": status, "error": None, "cancelled_while": None})
        )
    return entries


@given(
    n_rows=st.integers(0, 25),
    item_size=st.integers(1, 8),
    with_end=st.booleans(),
    status=st.sampled_from(["done", "failed", "cancelled"]),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_any_truncation_replays_the_durable_prefix(
    n_rows, item_size, with_end, status, data
):
    entries = _entries(n_rows, item_size, with_end, status)
    lines = [
        wire.encode_journal_entry(wire.journal_entry(kind, fields))
        for kind, fields in entries
    ]
    blob = b"".join(lines)
    cut = data.draw(st.integers(0, len(blob)), label="cut")

    # ground truth: exactly the lines whose trailing newline survived the cut
    whole, consumed = 0, 0
    for line in lines:
        if consumed + len(line) > cut:
            break
        whole += 1
        consumed += len(line)

    decoded = wire.decode_journal(blob[:cut])
    assert decoded == [
        wire.journal_entry(kind, fields) for kind, fields in entries[:whole]
    ]

    fields = wire.replay_journal(decoded)
    if whole == 0:
        # the header never became durable: the job was never created
        assert fields is None
        return

    survived = entries[1:whole]
    exp_rows = [f for kind, f in survived if kind == "row"]
    exp_records = [f for kind, f in survived if kind == "record"]
    end_survived = with_end and whole == len(entries)

    assert fields["id"] == "job-3"
    assert fields["payload"]["submit_key"] == "sk"  # dedup data survives
    assert fields["rows"] == exp_rows
    assert fields["results"] == exp_records
    assert fields["status"] == (status if end_survived else None)

    # rebuild the Job the way the server's startup replay does, and compare
    # its snapshot to the pre-crash job truncated at the last durable seq
    job = Job.restore(fields)
    rows = [json.loads(line) for line in job.rows]
    assert rows == exp_rows
    # seqs are a contiguous prefix: seq == index + 1 is the cursor invariant
    assert [row["seq"] for row in rows] == list(range(1, len(exp_rows) + 1))
    snap = job.snapshot()
    assert snap["progress"]["completed"] == len(exp_records)
    assert snap["status"] == (status if end_survived else "queued")


@given(
    n_rows=st.integers(0, 10),
    garbage=st.binary(min_size=1, max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_garbage_tail_never_corrupts_the_prefix(n_rows, garbage):
    """Damage after the durable prefix is dropped wholesale, never parsed."""
    assume(b'"journal"' not in garbage)  # a forged valid line is not damage
    entries = _entries(n_rows, 3, False, "done")
    blob = b"".join(
        wire.encode_journal_entry(wire.journal_entry(kind, fields))
        for kind, fields in entries
    )
    decoded = wire.decode_journal(blob + garbage)
    # the tail is torn (no trailing newline) or damaged (unparseable /
    # untagged): either way everything before it is intact, nothing after
    # the first damaged line leaks through
    assert decoded[: len(entries)] == [
        wire.journal_entry(kind, fields) for kind, fields in entries
    ]
    assert len(decoded) == len(entries)


@pytest.mark.parametrize("ended", [True, False])
def test_rowless_journal_from_an_older_build_replays(tmp_path, ended):
    """Older builds kept no row log for a job submitted without
    ``stream_rows``: its header flags the job as keeping none, and the
    journal holds records but no rows.  It still replays here.  A terminal job
    serves an empty log (``start``, then ``end`` with ``rows_total: 0``);
    an interrupted one re-runs only the items without a record, so its log
    starts mid-job with the rows of those items alone."""
    record = {"workload": "batched_gemv", "item": 0, "points": 1, "failures": 0}
    entries = [
        (
            "job",
            {
                "schema_version": 1,
                "id": "job-3",
                "payload": {
                    "workloads": ["batched_gemv", "batched_gemv"],
                    "extents": {"m": 8, "n": 8, "k": 8},
                    "options": {"one_d_only": True},
                },
                "total_items": 2,
                "keep_rows": False,
            },
        ),
        ("record", record),
    ]
    if ended:
        entries += [
            ("record", {**record, "item": 1}),
            ("end", {"status": "done", "error": None, "cancelled_while": None}),
        ]
    journal = tmp_path / "journal"
    journal.mkdir()
    (journal / ("job-3" + wire.JOURNAL_SUFFIX)).write_bytes(
        b"".join(
            wire.encode_journal_entry(wire.journal_entry(kind, fields))
            for kind, fields in entries
        )
    )
    with ServiceThread(
        LocalSession(ArrayConfig(rows=8, cols=8)), journal_dir=journal
    ) as srv:
        frames = list(RemoteSession(srv.url).iter_job_rows("job-3"))
    end = frames[-1]
    assert end["row"] == "end" and end["status"] == "done"
    rows = data_rows(frames)
    assert end["rows_total"] == len(rows)
    assert [r["seq"] for r in rows] == list(range(1, len(rows) + 1))
    if ended:
        assert rows == []
        assert end["job"]["results"] == [record, {**record, "item": 1}]
    else:
        assert rows and {r["item"] for r in rows} == {1}
        assert end["job"]["resumed"] is True and end["job"]["replayed_rows"] == 0
        assert end["job"]["results"][0] == record


def test_entries_before_header_are_rejected():
    """A journal that starts mid-history is not one this server wrote."""
    row = wire.journal_entry("row", {"seq": 1, "item": 0})
    assert wire.replay_journal([row]) is None


def test_empty_journal_replays_to_nothing():
    assert wire.decode_journal(b"") == []
    assert wire.replay_journal([]) is None
