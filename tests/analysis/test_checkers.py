"""Each RA checker catches its seeded fixture; the suppression layers work.

The fixtures under ``tests/analysis/fixtures/`` are loaded as *text* and fed
through :meth:`SourceFile.from_text` — they are never imported, and each
seeded violation is marked with a ``SEEDED:`` comment in the fixture itself.
"""

from pathlib import Path

import pytest

from repro.analysis import LintOptions, run_lint
from repro.analysis.checkers import LintContext
from repro.analysis.checkers.blocking import BlockingInAsyncChecker, classify_blocking
from repro.analysis.checkers.determinism import FoldDeterminismChecker
from repro.analysis.checkers.error_contract import ErrorEnvelopeChecker
from repro.analysis.checkers.taint import TaintChecker
from repro.analysis.checkers.wire_contract import WireContractChecker
from repro.analysis.findings import scan_waivers
from repro.analysis.source import SourceFile, load_source

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).parent.parent.parent
SRC = REPO / "src" / "repro"


def real_source(rel: str) -> SourceFile:
    """A real repo module, display-pathed the way the runner loads it."""
    return load_source(SRC / rel, SRC.parent)


def real_service_sources() -> list[SourceFile]:
    """The modules the cross-module checkers need for surgery tests."""
    rels = [
        "service/wire.py",
        "service/server.py",
        "service/client.py",
        "service/coordinator.py",
        "explore/engine.py",
        "api/types.py",
    ]
    return [real_source(rel) for rel in rels]


def surgically(sources: list[SourceFile], rel_suffix: str, old: str, new: str):
    """Replace ``old`` with ``new`` in the one source ending in ``rel_suffix``."""
    out = []
    for source in sources:
        if source.rel.endswith(rel_suffix):
            assert old in source.text, f"{old!r} not found in {source.rel}"
            out.append(SourceFile.from_text(source.text.replace(old, new), source.rel))
        else:
            out.append(source)
    return out


def fixture_source(name: str, rel: str | None = None) -> SourceFile:
    text = (FIXTURES / name).read_text()
    return SourceFile.from_text(text, rel=rel or name)


def check_one(checker, *sources, docs_text=None):
    context = LintContext(docs_text=docs_text, summary={})
    return checker.check(list(sources), context)


class TestBlockingChecker:
    def test_direct_blocking_call_caught(self):
        findings = check_one(BlockingInAsyncChecker(), fixture_source("ra001_blocking.py"))
        direct = [f for f in findings if f.symbol == "handler" and "time.sleep" in f.message]
        assert direct, findings
        assert "in async handler" in direct[0].message

    def test_indirect_chain_caught_and_reported(self):
        findings = check_one(BlockingInAsyncChecker(), fixture_source("ra001_blocking.py"))
        indirect = [f for f in findings if f.symbol == "_sync_helper"]
        assert indirect, findings
        # the message names the whole call chain back to the coroutine
        assert "handler -> _middle -> _sync_helper" in indirect[0].message

    def test_executor_reference_not_flagged(self):
        findings = check_one(BlockingInAsyncChecker(), fixture_source("ra001_blocking.py"))
        assert not [f for f in findings if f.symbol == "offloaded_is_fine"]

    def test_classifier_strips_self(self):
        assert classify_blocking("self.session.flush") is not None
        assert classify_blocking("asyncio.sleep") is None


class TestWireContractChecker:
    """The miniature server/client/docs trio drifts in exactly one place."""

    def trio(self):
        server = fixture_source("ra002_server.py", rel="mini/service/server.py")
        client = fixture_source("ra002_client.py", rel="mini/service/client.py")
        docs = (FIXTURES / "ra002_docs.md").read_text()
        return server, client, docs

    def test_seeded_drift_caught(self):
        server, client, docs = self.trio()
        findings = check_one(WireContractChecker(), server, client, docs_text=docs)
        assert len(findings) == 1, findings
        assert "POST /v1/flush" in findings[0].message
        assert findings[0].path == "mini/service/client.py"

    def test_agreeing_trio_is_clean(self):
        server, client, docs = self.trio()
        fixed = client.text.replace('self._call("POST", "/v1/flush")', "None")
        client = SourceFile.from_text(fixed, rel=client.rel)
        findings = check_one(WireContractChecker(), server, client, docs_text=docs)
        assert findings == [], findings

    def test_no_service_sources_is_a_noop(self):
        context = LintContext(summary={})
        findings = WireContractChecker().check(
            [fixture_source("ra001_blocking.py")], context
        )
        assert findings == []
        assert context.summary["ra002_routes"] == 0


class TestErrorEnvelopeChecker:
    def trio(self):
        return [
            fixture_source("ra006_wire.py", rel="fixsvc/wire.py"),
            fixture_source("ra006_server.py", rel="fixsvc/server.py"),
            fixture_source("ra006_client.py", rel="fixsvc/client.py"),
        ]

    def test_unmapped_raise_on_server_path_caught(self):
        findings = check_one(ErrorEnvelopeChecker(), *self.trio())
        assert len(findings) == 1, findings
        finding = findings[0]
        assert finding.symbol == "MiniServer._submit"
        assert "PermissionError" in finding.message
        assert "_route -> " in finding.message or "-> MiniServer._submit" in finding.message

    def test_unreachable_raise_not_flagged(self):
        findings = check_one(ErrorEnvelopeChecker(), *self.trio())
        assert not [f for f in findings if "OSError" in f.message]

    def test_mapped_raises_are_clean(self):
        sources = self.trio()
        fixed = surgically(
            sources,
            "fixsvc/server.py",
            'raise PermissionError("admin endpoints are disabled")',
            'raise ValueError("admin endpoints are disabled")',
        )
        findings = check_one(ErrorEnvelopeChecker(), *fixed)
        assert findings == [], findings

    def test_client_without_decoder_caught(self):
        broken = surgically(
            self.trio(),
            "fixsvc/client.py",
            """class RemoteSession:
    def _call(self, payload):
        if "error_type" in payload:
            wire.raise_remote_error(payload)
        return payload""",
            """class RemoteSession:
    def _call(self, payload):
        return payload""",
        )
        findings = check_one(ErrorEnvelopeChecker(), *broken)
        assert any(
            f.symbol == "RemoteSession" and "raise_remote_error" in f.message
            for f in findings
        ), findings

    def test_no_error_table_is_a_noop(self):
        findings = check_one(
            ErrorEnvelopeChecker(), fixture_source("ra001_blocking.py")
        )
        assert findings == []

    def test_real_contract_is_clean_and_not_vacuous(self):
        context = LintContext(summary={})
        findings = ErrorEnvelopeChecker().check(real_service_sources(), context)
        assert findings == [], findings
        assert context.summary["ra006_error_types"] >= 6
        assert context.summary["ra006_server_raises"] >= 10
        assert context.summary["ra006_decoders"] == 2

    def test_deletion_sensitivity_error_types_entry(self):
        """Dropping wire._ERROR_TYPES['ValueError'] must fail the lint."""
        sources = surgically(
            real_service_sources(),
            "service/wire.py",
            '    "ValueError": ValueError,\n',
            "",
        )
        findings = check_one(ErrorEnvelopeChecker(), *sources)
        assert any("ValueError" in f.message for f in findings), findings

    def test_deletion_sensitivity_decoder_table_use(self):
        """raise_remote_error that stops consulting the table must fail."""
        sources = surgically(
            real_service_sources(),
            "service/wire.py",
            "exc_type = _ERROR_TYPES.get(",
            "exc_type = dict().get(",
        )
        findings = check_one(ErrorEnvelopeChecker(), *sources)
        assert any(
            f.symbol == "raise_remote_error" and "_ERROR_TYPES" in f.message
            for f in findings
        ), findings


class TestFoldDeterminismChecker:
    def test_bare_set_iteration_caught(self):
        findings = check_one(FoldDeterminismChecker(), fixture_source("ra007_fold.py"))
        sets = [f for f in findings if "bare set" in f.message]
        assert len(sets) == 1, findings
        assert sets[0].symbol == "MiniCoordinator._fold_rows"

    def test_clock_read_down_the_chain_caught(self):
        findings = check_one(FoldDeterminismChecker(), fixture_source("ra007_fold.py"))
        clocks = [f for f in findings if "time.time" in f.message]
        assert len(clocks) == 1, findings
        assert clocks[0].symbol == "MiniCoordinator._stamp"
        assert "fold path" in clocks[0].message

    def test_sorted_set_and_session_jitter_not_flagged(self):
        findings = check_one(FoldDeterminismChecker(), fixture_source("ra007_fold.py"))
        assert not [f for f in findings if f.symbol == "MiniCoordinator.sorted_fold"]
        assert not [f for f in findings if f.symbol.startswith("MiniSession")]

    def test_real_fold_paths_only_carry_the_waived_token(self):
        context = LintContext(summary={})
        findings = FoldDeterminismChecker().check(real_service_sources(), context)
        # the sweep token is the single (inline-waived) finding; checker-level
        # runs see it raw because waivers apply at the runner layer
        assert len(findings) == 1, findings
        assert "uuid.uuid4" in findings[0].message
        assert findings[0].symbol == "SweepCoordinator.sweep"
        assert context.summary["ra007_roots"] >= 5
        assert context.summary["ra007_reachable"] >= 20

    def test_deletion_sensitivity_fold_over_bare_set(self):
        """Making _fold_caches iterate a set(...) must be caught."""
        sources = surgically(
            real_service_sources(),
            "service/coordinator.py",
            "for server in self._healthy_servers():",
            "for server in set(self._healthy_servers()):",
        )
        findings = check_one(FoldDeterminismChecker(), *sources)
        assert any(
            "bare set" in f.message and f.path.endswith("coordinator.py")
            for f in findings
        ), findings


class TestTaintChecker:
    def test_seeded_flows_caught(self):
        findings = check_one(TaintChecker(), fixture_source("ra008_taint.py"))
        assert {f.line for f in findings} == {12, 18, 22, 38, 44, 48}, findings
        by_line = {f.line: f.message for f in findings}
        assert "filesystem path" in by_line[12]
        assert "sequence-repeat allocation" in by_line[18]
        assert "dynamic attribute dispatch" in by_line[22]
        assert "read sized by the value" in by_line[38]
        assert "subprocess invocation" in by_line[44]
        assert "memo-cache key" in by_line[48]

    def test_int_launders_content_but_not_magnitude(self):
        # /v1/batch wraps the body field in int() and still fires: int()
        # clears the string-content taint, not the attacker-sized magnitude
        findings = check_one(TaintChecker(), fixture_source("ra008_taint.py"))
        batch = [f for f in findings if f.line == 18]
        assert batch, findings

    def test_one_level_summary_crosses_into_helpers(self):
        # the /v1/jobs/ path segment only reaches subprocess.run inside
        # _job_tool — caught via the call-summary walk, reported there
        findings = check_one(TaintChecker(), fixture_source("ra008_taint.py"))
        helper = [f for f in findings if f.symbol == "MiniServer._job_tool"]
        assert len(helper) == 1, findings
        assert "request 'path'" in helper[0].message

    def test_sanitized_route_is_clean(self):
        # /v1/ok routes everything through _job_items/_since_param: no
        # finding may point at the clean branch (lines 27-32)
        findings = check_one(TaintChecker(), fixture_source("ra008_taint.py"))
        assert not [f for f in findings if 27 <= f.line <= 32], findings

    def test_no_route_class_is_a_noop(self):
        findings = check_one(TaintChecker(), fixture_source("ra007_fold.py"))
        assert findings == []

    def test_real_server_is_clean_and_not_vacuous(self):
        context = LintContext(summary={})
        findings = TaintChecker().check(real_service_sources(), context)
        assert findings == [], findings
        assert context.summary["ra008_sources"] >= 5

    def test_deletion_sensitivity_body_bound(self):
        """Replacing the bounded_body() call with a raw int() of the wire
        header must trip RA008: content-length then sizes readexactly with
        its magnitude unchecked."""
        sources = surgically(
            real_service_sources(),
            "service/server.py",
            "length = wire.bounded_body(\n"
            '            headers.get("content-length"), self.max_body_bytes\n'
            "        )",
            'length = int(headers.get("content-length", 0) or 0)',
        )
        findings = check_one(TaintChecker(), *sources)
        assert any(
            f.symbol == "EvaluationService._read_request"
            and "read sized by the value" in f.message
            for f in findings
        ), findings


class TestWaivers:
    def test_waiver_suppresses_inline_and_standalone(self):
        source = fixture_source("waivers.py")
        result = run_lint(LintOptions(select={"RA001"}), sources=[source])
        assert [f.symbol for f in result.findings if f.checker == "RA001"] == [
            "unwaived"
        ], result.findings
        waived_symbols = {f.symbol for f, _ in result.waived}
        assert waived_symbols == {"waived_inline", "waived_standalone"}

    def test_malformed_pragmas_become_ra000(self):
        source = fixture_source("waivers.py")
        waivers, malformed = scan_waivers(source.rel, source.text)
        assert len(waivers) == 2
        messages = sorted(f.message for f in malformed)
        assert len(malformed) == 2, malformed
        assert any("malformed" in m for m in messages)
        assert any("no justification" in m for m in messages)

    def test_ra000_findings_fail_the_run(self):
        source = fixture_source("waivers.py")
        result = run_lint(LintOptions(select={"RA001"}), sources=[source])
        assert {f.checker for f in result.findings} == {"RA000", "RA001"}
        assert not result.ok

    def test_pragma_text_in_docstrings_is_ignored(self):
        source = SourceFile.from_text(
            '"""Docs quoting the syntax: # repro-lint: waive[RA001] reason."""\n'
        )
        waivers, malformed = scan_waivers(source.rel, source.text)
        assert waivers == [] and malformed == []


class TestOutput:
    def test_text_verdict_line(self):
        from repro.analysis import format_text

        source = fixture_source("ra001_blocking.py")
        result = run_lint(LintOptions(select={"RA001"}), sources=[source])
        text = format_text(result)
        assert "2 finding(s)" in text.splitlines()[-1]
        assert "_sync_helper" in text


class TestCli:
    def test_lint_subcommand_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "mod.py"
        bad.write_text(
            "import time\n\n\nasync def f():\n    time.sleep(1)\n"
        )
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RA001" in out and "time.sleep" in out

    def test_lint_subcommand_clean_exit(self, tmp_path, capsys):
        from repro.cli import main

        good = tmp_path / "mod.py"
        good.write_text("async def f():\n    return 1\n")
        assert main(["lint", str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_unknown_select_id_fails(self, capsys):
        """An id no checker has would run nothing and read as clean."""
        from repro.cli import main

        assert main(["lint", "--select", "RA099"]) != 0
        assert "RA099" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name",
    [
        "ra001_blocking.py",
        "ra002_server.py",
        "ra002_client.py",
        "ra006_wire.py",
        "ra006_server.py",
        "ra006_client.py",
        "ra007_fold.py",
        "ra008_taint.py",
        "waivers.py",
    ],
)
def test_fixtures_parse(name):
    fixture_source(name)
