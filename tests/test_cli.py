"""CLI smoke tests."""

import re

import pytest

from repro.cli import main


def test_generate_to_file(tmp_path, capsys):
    out = tmp_path / "gemm.v"
    rc = main(
        ["generate", "gemm", "MNK-SST", "--rows", "2", "--cols", "2", "-o", str(out),
         "--extent", "m=4", "--extent", "n=4", "--extent", "k=4"]
    )
    assert rc == 0
    text = out.read_text()
    assert "module pe (" in text
    assert "endmodule" in text


def test_generate_stdout(capsys):
    rc = main(["generate", "gemm", "MNK-SST", "--rows", "2", "--cols", "2",
               "--extent", "m=4", "--extent", "n=4", "--extent", "k=4"])
    assert rc == 0
    assert "module" in capsys.readouterr().out


def test_verify(capsys):
    rc = main(["verify", "gemm", "MNK-SST", "--rows", "2", "--cols", "2",
               "--extent", "m=4", "--extent", "n=4", "--extent", "k=4"])
    assert rc == 0
    assert "matches" in capsys.readouterr().out


def test_evaluate(capsys):
    rc = main(["evaluate", "gemm", "MNK-MTM", "--rows", "16", "--cols", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "performance" in out and "mW" in out


def test_enumerate(capsys):
    rc = main(["enumerate", "gemm", "--extent", "m=8", "--extent", "n=8",
               "--extent", "k=8"])
    assert rc == 0
    assert "distinct realizable designs" in capsys.readouterr().out


def test_explore(tmp_path, capsys):
    cache = tmp_path / "memo.json"
    argv = ["explore", "gemm", "--rows", "8", "--cols", "8", "--top", "3",
            "--extent", "m=64", "--extent", "n=64", "--extent", "k=64",
            "--cache", str(cache)]
    rc = main(argv)
    assert rc == 0
    out = capsys.readouterr().out
    assert "gemm on 8x8" in out
    assert "pareto frontier" in out
    assert cache.exists()
    # warm rerun reuses the memo cache: nothing re-evaluated
    rc = main(argv)
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 evaluated" in out
    assert "space cache hit" in out


def test_explore_multi_workload(capsys):
    rc = main(["explore", "gemm", "batched_gemv", "--rows", "4", "--cols", "4",
               "--one-d", "--top", "2",
               "--extent", "m=16", "--extent", "n=16", "--extent", "k=16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gemm on 4x4" in out
    assert "batched_gemv on 4x4" in out


def test_explore_unknown_extent_rejected(capsys):
    rc = main(["explore", "gemm", "--rows", "4", "--cols", "4", "--extent", "mm=2048"])
    assert rc == 2
    assert "mm" in capsys.readouterr().err


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["generate", "nope", "MNK-SST"])


def test_explore_has_no_workers_flag(capsys):
    """Local explore is serial; more cores means `repro sweep` over servers."""
    with pytest.raises(SystemExit):
        main(["explore", "gemm", "--workers", "2"])
    assert "--workers" in capsys.readouterr().err


def test_serve_refuses_max_jobs_zero(capsys):
    """--max-jobs 0 would mean an unbounded queue: one error line, no serve."""
    assert main(["serve", "--port", "0", "--max-jobs", "0"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: max_queued_jobs")


@pytest.mark.parametrize("workers", ["2", "-1"])
def test_serve_refuses_parallel_workers(capsys, workers):
    """--workers is accepted as 0/1 only: one error line naming the fleet
    recipe, no serve (a negative value used to start and then fail every
    explore and job)."""
    assert main(["serve", "--port", "0", "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: workers={workers}")
    assert "repro serve" in err


def _shard(path, *, backend):
    """Populate one memo-cache shard via the verify/evaluate front door."""
    from repro.api import LocalSession
    from repro.perf.model import ArrayConfig

    LocalSession(ArrayConfig(rows=2, cols=2), cache=path).evaluate(
        "gemm", "MNK-SST", backend=backend, extents={"m": 4, "n": 4, "k": 4}
    )


class TestCacheCommands:
    """`repro cache merge|compact|stats` end-to-end through main(argv)."""

    def test_stats(self, tmp_path, capsys):
        shard = tmp_path / "a.json"
        _shard(shard, backend="perf")
        assert main(["cache", "stats", str(shard)]) == 0
        out = capsys.readouterr().out
        assert "1 api" in out and str(shard) in out

    def test_stats_missing_file(self, tmp_path, capsys):
        assert main(["cache", "stats", str(tmp_path / "nope.json")]) == 1
        assert "no such cache file" in capsys.readouterr().err

    def test_merge_combines_shards(self, tmp_path, capsys):
        a, b, merged = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        _shard(a, backend="perf")
        _shard(b, backend="cost")
        assert main(["cache", "merge", "-o", str(merged), str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "merged" in out and merged.exists()
        assert main(["cache", "stats", str(merged)]) == 0
        assert "2 api" in capsys.readouterr().out

    def test_merge_rejects_corrupt_shard(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        _shard(good, backend="perf")
        bad.write_text('{"api": {tru')
        merged = tmp_path / "m.json"
        assert main(["cache", "merge", "-o", str(merged), str(good), str(bad)]) == 1
        assert "corrupt" in capsys.readouterr().err
        assert not merged.exists()

    def test_compact_in_place_and_to_output(self, tmp_path, capsys):
        shard = tmp_path / "a.json"
        _shard(shard, backend="perf")
        assert main(["cache", "compact", str(shard)]) == 0
        assert "compacted" in capsys.readouterr().out
        out = tmp_path / "b.json"
        assert main(["cache", "compact", str(shard), "-o", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()
        # the compacted copy is a working cache: stats still parse it
        assert main(["cache", "stats", str(out)]) == 0
        assert "1 api" in capsys.readouterr().out


class TestClientCommands:
    """`repro client ... --url` drives the same cmd_* functions remotely."""

    @pytest.fixture(scope="class")
    def service_url(self):
        from repro.api import LocalSession
        from repro.perf.model import ArrayConfig
        from repro.service import ServiceThread

        with ServiceThread(LocalSession(ArrayConfig(rows=8, cols=8))) as thread:
            yield thread.url

    def test_client_evaluate(self, service_url, capsys):
        rc = main(["client", "evaluate", "gemm", "MNK-MTM", "--rows", "8",
                   "--cols", "8", "--url", service_url])
        assert rc == 0
        out = capsys.readouterr().out
        assert "performance" in out and "mW" in out

    def test_client_verify(self, service_url, capsys):
        rc = main(["client", "verify", "gemm", "MNK-SST", "--rows", "2", "--cols", "2",
                   "--extent", "m=4", "--extent", "n=4", "--extent", "k=4",
                   "--url", service_url])
        assert rc == 0
        assert "matches" in capsys.readouterr().out

    def test_client_explore(self, service_url, capsys):
        rc = main(["client", "explore", "gemm", "--rows", "8", "--cols", "8",
                   "--top", "2", "--extent", "m=64", "--extent", "n=64",
                   "--extent", "k=64", "--url", service_url])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gemm on 8x8" in out and "pareto frontier" in out

    def test_client_stats(self, service_url, capsys):
        rc = main(["client", "stats", "--url", service_url])
        assert rc == 0
        assert service_url in capsys.readouterr().out

    def test_client_tail_job_streams_ndjson(self, service_url, capsys):
        """`repro client tail-job` prints the job's row log as NDJSON lines
        (start/point/failure/end frames) and exits 0 once the job ends."""
        import json

        from repro.service import RemoteSession

        remote = RemoteSession(service_url)
        job = remote.submit_job(
            ["batched_gemv"], one_d_only=True, extents={"m": 8, "n": 8, "k": 8}
        )
        remote.close()
        rc = main(["client", "tail-job", job["id"], "--url", service_url])
        assert rc == 0
        captured = capsys.readouterr()
        rows = [json.loads(line) for line in captured.out.splitlines()]
        assert rows[0]["row"] == "start"
        assert rows[-1]["row"] == "end" and rows[-1]["status"] == "done"
        assert any(r["row"] in ("point", "failure") for r in rows)
        assert f"job {job['id']}: done" in captured.err

    def test_client_tail_job_unknown_id(self, service_url, capsys):
        rc = main(["client", "tail-job", "job-424242", "--url", service_url])
        assert rc == 1
        assert "no such job" in capsys.readouterr().err

    def test_client_requires_url(self):
        with pytest.raises(SystemExit):
            main(["client", "evaluate", "gemm", "MNK-SST"])


class TestSweepCommand:
    """`repro sweep --url A --url B` coordinates across several servers."""

    @pytest.fixture(scope="class")
    def fleet_urls(self):
        from repro.api import LocalSession
        from repro.perf.model import ArrayConfig
        from repro.service import ServiceThread

        with ServiceThread(LocalSession(ArrayConfig(rows=8, cols=8))) as a:
            with ServiceThread(LocalSession(ArrayConfig(rows=8, cols=8))) as b:
                yield a.url, b.url

    def test_sweep_over_two_servers(self, fleet_urls, tmp_path, capsys):
        cache = tmp_path / "fold.json"
        rc = main(
            ["sweep", "gemm", "batched_gemv", "--rows", "8", "--cols", "8",
             "--top", "2", "--one-d", "--url", fleet_urls[0],
             "--url", fleet_urls[1], "--cache", str(cache)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "gemm on 8x8" in out and "batched_gemv on 8x8" in out
        assert "pareto frontier" in out
        assert "coordinated 2 item(s) in 2 shard(s) over 2 server(s)" in out
        assert cache.exists()  # remote memo caches folded locally

    def test_sweep_shard_size_and_verbose(self, fleet_urls, capsys):
        """--shard-size groups items per job; --verbose itemizes the report."""
        rc = main(
            ["sweep", "gemm", "batched_gemv", "--rows", "8", "--cols", "8",
             "--top", "2", "--one-d", "--shard-size", "2", "--verbose",
             "--url", fleet_urls[0], "--url", fleet_urls[1]]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "coordinated 2 item(s) in 1 shard(s)" in out
        assert "row(s) streamed" in out

    def test_sweep_verbose_surfaces_reassignment(self, fleet_urls, capsys):
        """A dead fleet member's shards are reassigned loudly under
        --verbose instead of folding silently (the stderr event lines)."""
        rc = main(
            ["sweep", "gemm", "--rows", "8", "--cols", "8", "--one-d",
             "--verbose", "--url", "http://127.0.0.1:9", "--url", fleet_urls[0]]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "[sweep:server_lost]" in err
        # every event line is stamped: wall clock, elapsed, per-event delta
        event_lines = [ln for ln in err.splitlines() if ln.startswith("[sweep:")]
        assert event_lines
        for line in event_lines:
            assert re.search(
                r"^\[sweep:\w+\] \d{2}:\d{2}:\d{2}\.\d{3} "
                r"\+\d+\.\d{3}s Δ\d+\.\d{3}s ",
                line,
            ), line

    def test_sweep_all_servers_dead(self, capsys):
        rc = main(
            ["sweep", "gemm", "--rows", "8", "--cols", "8",
             "--url", "http://127.0.0.1:9"]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_sweep_requires_url(self):
        with pytest.raises(SystemExit):
            main(["sweep", "gemm"])
