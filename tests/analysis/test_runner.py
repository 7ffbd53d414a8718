"""The ``repro lint`` plumbing around the checkers: collecting sources,
selecting checkers, splitting findings into active and waived, and the one
text report.

Checker behaviour lives in ``test_checkers.py``; these tests feed tiny
in-memory sources or hand-built findings, so each one runs in milliseconds.
"""

import pytest

from repro.analysis import Finding, LintOptions, LintResult, format_text, run_lint
from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.findings import apply_suppressions, scan_waivers
from repro.analysis.source import SourceFile, collect_sources

BLOCKING = "import time\n\n\nasync def f():\n    time.sleep(1)\n"


def finding(line: int, checker: str = "RA001", path: str = "mod.py") -> Finding:
    return Finding(path=path, line=line, checker=checker, message="m")


def split(text: str, findings: list[Finding], path: str = "mod.py"):
    waivers, malformed = scan_waivers(path, text)
    assert malformed == []
    return apply_suppressions(findings, waivers)


class TestSuppressions:
    def test_waiver_for_another_checker_does_not_suppress(self):
        active, waived = split(
            "x = 1  # repro-lint: waive[RA008] reason\n", [finding(1, "RA001")]
        )
        assert active == [finding(1, "RA001")] and waived == []

    def test_standalone_waiver_covers_only_the_next_line(self):
        text = "# repro-lint: waive[RA001] reason\nx = 1\ny = 2\n"
        active, waived = split(text, [finding(2), finding(3)])
        assert [f.line for f, _ in waived] == [2]
        assert [f.line for f in active] == [3]

    def test_inline_waiver_covers_only_its_own_line(self):
        text = "x = 1  # repro-lint: waive[RA001] reason\ny = 2\n"
        active, waived = split(text, [finding(1), finding(2)])
        assert [f.line for f, _ in waived] == [1]
        assert [f.line for f in active] == [2]

    def test_one_waiver_can_name_several_checkers(self):
        text = "x = 1  # repro-lint: waive[RA001, RA008] reason\n"
        active, waived = split(text, [finding(1, "RA001"), finding(1, "RA008")])
        assert active == []
        assert {f.checker for f, _ in waived} == {"RA001", "RA008"}
        assert {w.reason for _, w in waived} == {"reason"}

    def test_waiver_in_another_file_does_not_suppress(self):
        text = "x = 1  # repro-lint: waive[RA001] reason\n"
        active, waived = split(text, [finding(1, path="other.py")])
        assert active == [finding(1, path="other.py")] and waived == []

    def test_every_finding_lands_on_exactly_one_side_in_order(self):
        text = "".join(
            f"x{n} = {n}  # repro-lint: waive[RA001] reason\n" if n % 2 else f"x{n} = {n}\n"
            for n in range(1, 7)
        )
        findings = [finding(n) for n in range(1, 7)]
        active, waived = split(text, findings)
        assert [f.line for f in active] == [2, 4, 6]
        assert [f.line for f, _ in waived] == [1, 3, 5]


class TestStaleWaivers:
    STALE = "import time\n\nx = 1  # repro-lint: waive[RA001] nothing blocks here\n"

    def test_waiver_that_suppresses_nothing_fails_the_run(self):
        source = SourceFile.from_text(self.STALE, rel="mod.py")
        result = run_lint(LintOptions(), sources=[source])
        assert not result.ok
        (stale,) = result.findings
        assert (stale.checker, stale.line) == ("RA000", 3)
        assert "stale waiver" in stale.message and "RA001" in stale.message

    def test_waiver_for_a_checker_that_did_not_run_is_not_judged(self):
        source = SourceFile.from_text(self.STALE, rel="mod.py")
        assert run_lint(LintOptions(select={"RA008"}), sources=[source]).ok


class TestSelect:
    @pytest.mark.parametrize("bad", ["RA000", "RA003", "RA099", "ra001"])
    def test_unregistered_id_raises(self, bad):
        # a pass that runs no checker must not read as clean
        source = SourceFile.from_text(BLOCKING, rel="mod.py")
        with pytest.raises(ValueError, match=bad):
            run_lint(LintOptions(select={bad}), sources=[source])

    def test_error_names_only_the_unknown_ids(self):
        source = SourceFile.from_text(BLOCKING, rel="mod.py")
        with pytest.raises(ValueError) as excinfo:
            run_lint(LintOptions(select={"RA001", "RA098", "RA099"}), sources=[source])
        unknown, _, registered = str(excinfo.value).partition("registered:")
        assert "RA098" in unknown and "RA099" in unknown
        assert "RA001" not in unknown
        assert registered.split(", ")[0].strip() == ALL_CHECKERS[0].id

    def test_select_runs_only_the_named_checkers_in_registry_order(self):
        source = SourceFile.from_text(BLOCKING, rel="mod.py")
        result = run_lint(LintOptions(select={"RA008", "RA001"}), sources=[source])
        assert result.checkers == ["RA001", "RA008"]
        assert {f.checker for f in result.findings} == {"RA001"}
        everything = run_lint(LintOptions(), sources=[source])
        assert everything.checkers == [c.id for c in ALL_CHECKERS]


class TestFormatText:
    def test_clean_verdict_names_the_checkers_and_the_waived_count(self):
        (waiver,), _ = scan_waivers("a.py", "x = 1  # repro-lint: waive[RA001] why\n")
        result = LintResult(
            findings=[],
            waived=[(finding(1, path="a.py"), waiver)],
            files=["a.py", "b.py"],
            checkers=["RA001", "RA008"],
            summary={},
        )
        assert result.ok
        assert format_text(result) == (
            "repro lint: clean across 2 file(s), checkers RA001, RA008 (1 waived)"
        )

    def test_verbose_lists_waived_findings_with_their_reason(self):
        text = "import time\n\n\nasync def f():\n" + (
            "    time.sleep(1)  # repro-lint: waive[RA001] startup only\n"
        )
        source = SourceFile.from_text(text, rel="mod.py")
        result = run_lint(LintOptions(select={"RA001"}), sources=[source])
        assert result.ok and len(result.waived) == 1
        quiet = format_text(result).splitlines()
        loud = format_text(result, verbose=True).splitlines()
        assert len(quiet) == 1 and "(1 waived)" in quiet[0]
        assert len(loud) == 2
        assert loud[0].startswith("mod.py:5: RA001")
        assert loud[0].endswith("[waived: startup only]")


class TestCollectSources:
    def test_single_file_is_displayed_by_name(self, tmp_path):
        path = tmp_path / "solo.py"
        path.write_text("x = 1\n")
        (source,) = collect_sources(path)
        assert source.rel == "solo.py"
        assert source.tree.body

    def test_directory_is_sorted_relative_to_its_parent_and_skips_pycache(
        self, tmp_path
    ):
        pkg = tmp_path / "pkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "__pycache__").mkdir()
        for rel in ("b.py", "a.py", "sub/c.py", "__pycache__/a.py", "notes.txt"):
            (pkg / rel).write_text("x = 1\n")
        rels = [source.rel for source in collect_sources(pkg)]
        assert rels == ["pkg/a.py", "pkg/b.py", "pkg/sub/c.py"]


class TestCliOptions:
    def test_lint_takes_four_options(self, capsys):
        import re

        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        flags = set(re.findall(r"\[(--?[a-z-]+)", usage))
        assert flags == {"-h", "--docs", "--select", "--verbose"}
        assert "PATH ..." in usage

    def test_unknown_id_in_a_list_fails_and_is_named(self, capsys):
        from repro.cli import main

        assert main(["lint", "--select", "RA001,RA003"]) == 2
        err = capsys.readouterr().err
        assert "RA003" in err.partition("registered:")[0]

    def test_lint_leaves_no_files_behind(self, tmp_path, monkeypatch, capsys):
        # no result cache: neither the old environment variable nor the
        # working directory gets a file
        from repro.cli import main

        mod = tmp_path / "mod.py"
        mod.write_text(BLOCKING)
        monkeypatch.setenv("REPRO_LINT_CACHE", str(tmp_path / "cache.json"))
        monkeypatch.chdir(tmp_path)
        assert main(["lint", str(mod)]) == 1
        assert "RA001" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mod.py"]
