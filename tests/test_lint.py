"""Tier-1 gate: ``repro lint`` stays clean on the repo's own sources.

This is the analysis pass eating its own dog food — every checker runs over
``src/repro`` *plus* ``scripts/`` and ``benchmarks/`` with the real docs,
exactly like the CI ``lint-analysis`` job and a developer's ``repro lint``.
A finding here means either a real concurrency/wire-contract regression or
a checker that needs a fix or a waiver; the failure message renders each
finding so the culprit is one click away.
"""

import re
from pathlib import Path

from repro.analysis import LintOptions, run_lint
from repro.analysis.checkers import ALL_CHECKERS

REPO = Path(__file__).resolve().parents[1]

LINT_PATHS = [REPO / "src" / "repro", REPO / "scripts", REPO / "benchmarks"]

_CACHED_RESULT = None


def repo_result():
    # module-level memo: the tests below share one (expensive) full-tree run
    global _CACHED_RESULT
    if _CACHED_RESULT is None:
        options = LintOptions(
            paths=LINT_PATHS, docs_path=REPO / "docs" / "service-api.md"
        )
        _CACHED_RESULT = run_lint(options)
    return _CACHED_RESULT


def test_repo_sources_lint_clean():
    result = repo_result()
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.ok, f"repro lint found regressions:\n{rendered}"


def test_pass_actually_covered_the_service_layer():
    """Guard against a vacuous pass: the wire comparison and the call-graph
    walk must have seen the real surface, not an empty file set."""
    result = repo_result()
    assert len(result.files) > 40
    assert result.summary["ra002_routes"] >= 10
    assert set(result.summary["ra002_params"]) == {"since", "keepalive"}
    assert result.summary["ra001_async_functions"] >= 20


def test_project_graph_resolved_the_cross_module_surface():
    """The project-wide graph is real: RA006 and RA007 saw the actual error
    table and fold roots, and the import resolver stitched a substantial
    number of cross-module call edges."""
    result = repo_result()
    assert result.summary["cross_module_edges"] >= 50
    assert result.summary["ra006_error_types"] >= 6
    assert result.summary["ra006_server_raises"] >= 10
    assert result.summary["ra006_decoders"] == 2
    assert result.summary["ra007_roots"] >= 5
    assert result.summary["ra007_reachable"] >= 20


def test_dataflow_checkers_saw_the_real_surface():
    """RA008 is not vacuous: the taint pass seeded real request sources in
    the server."""
    result = repo_result()
    assert result.summary["ra008_sources"] >= 5
    assert result.summary["ra008_findings"] == 0


def test_lint_target_set_includes_scripts_and_benchmarks():
    files = set(repo_result().files)
    assert any(rel.startswith("scripts/") for rel in files), files
    assert any(rel.startswith("benchmarks/") for rel in files), files


def test_waivers_in_production_code_stay_justified():
    """Every inline waiver in src/ carries a reason and suppresses a live
    finding: ``run_lint`` reports a reason-less or stale waiver as RA000."""
    result = repo_result()
    for finding, waiver in result.waived:
        assert waiver.reason, finding.render()
    waiver_findings = [f.render() for f in result.findings if f.checker == "RA000"]
    assert not waiver_findings, "\n".join(waiver_findings)


def test_checker_catalog_matches_the_registry():
    """docs/development.md has one catalog row per registered checker, plus
    RA000 (malformed waivers), and no row for a checker that is gone."""
    docs = (REPO / "docs" / "development.md").read_text()
    documented = set(re.findall(r"^\|\s*`(RA\d{3})`\s*\|", docs, re.MULTILINE))
    registered = {checker.id for checker in ALL_CHECKERS} | {"RA000"}
    assert documented == registered, (
        f"only in the code: {sorted(registered - documented)}; "
        f"only in docs/development.md: {sorted(documented - registered)}"
    )
