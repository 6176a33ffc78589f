"""The perf-regression harness itself: report shape, verdicts, CLI exit.

The real CI gate runs the full microbench (``repro bench``); these tests
use a miniature configuration (few vertices, zero latency scale, no
speedup threshold) so they validate the harness mechanics — measurement,
bit-identity checks, verdict logic, report serialization — in seconds.
"""

import json

from repro.bench import regression
from repro.bench.reporting import write_report

TINY = dict(
    vertices=40,
    iterations=2,
    num_nodes=2,
    io_latency_scale=0.0,
    workers=(2,),
    repeats=1,
    graph_seed=3,
)


def run_tiny(min_speedup=0.0, **overrides):
    config = dict(TINY, min_speedup=min_speedup)
    config.update(overrides)
    return regression.run_regression(**config)


def test_report_structure_and_bit_identity():
    report = run_tiny()
    assert report["benchmark"] == "parallel-superstep-microbench"
    assert report["algorithm"] == "pagerank"
    assert report["config"]["vertices"] == 40
    sequential = report["sequential"]
    assert sequential["parallelism"] == 1
    assert sequential["seconds"] > 0
    assert sequential["supersteps"] > 0
    assert sequential["throughput_vertex_supersteps_per_sec"] > 0
    (parallel,) = report["parallel"]
    assert parallel["parallelism"] == 2
    assert parallel["bit_identical_to_sequential"] is True
    assert parallel["speedup"] > 0
    # min_speedup=0: the verdict reduces to the determinism check.
    assert report["pass"] is True


def test_unreachable_speedup_threshold_fails_the_verdict():
    # Without latency realism a single-core box cannot speed anything
    # up 1000x, so the perf gate must report failure.
    report = run_tiny(min_speedup=1000.0)
    assert report["pass"] is False
    assert all(r["bit_identical_to_sequential"] for r in report["parallel"])


def test_worker_counts_are_deduplicated_and_sorted():
    report = run_tiny(workers=(4, 2, 2, 1))
    assert [r["parallelism"] for r in report["parallel"]] == [2, 4]


def test_write_report_round_trips(tmp_path):
    report = run_tiny()
    path = str(tmp_path / "BENCH_parallel.json")
    assert write_report(report, path) == path
    with open(path) as handle:
        assert json.load(handle) == report


def test_summary_lines_render_verdict():
    report = run_tiny()
    lines = regression.summary_lines(report)
    assert any("sequential:" in line for line in lines)
    assert any("parallel-2:" in line for line in lines)
    assert lines[-1].startswith("  verdict: PASS")


def test_cli_bench_exit_status_tracks_verdict(tmp_path, capsys):
    from repro.cli import main

    out = str(tmp_path / "bench.json")
    argv = [
        "bench",
        "--out", out,
        "--vertices", "40",
        "--iterations", "2",
        "--nodes", "2",
        "--parallel", "2",
        "--io-latency", "0",
        "--repeats", "1",
        "--min-speedup", "0",
    ]
    assert main(argv) == 0
    with open(out) as handle:
        report = json.load(handle)
    assert report["pass"] is True
    assert "verdict: PASS" in capsys.readouterr().out


def test_cli_bench_out_is_honoured_and_defaults_per_gate(tmp_path, monkeypatch):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    elastic = ["bench", "--elastic", "--vertices", "40", "--iterations", "4",
               "--nodes", "2", "--io-latency", "0", "--repeats", "1",
               "--max-overhead", "1000"]
    # An explicit --out wins even when it names another gate's default.
    main(elastic + ["--out", "BENCH_parallel.json"], out=lambda line: None)
    with open(tmp_path / "BENCH_parallel.json") as handle:
        assert json.load(handle)["benchmark"] == "elastic-rebalance-microbench"
    assert not (tmp_path / "BENCH_elastic.json").exists()
    main(elastic, out=lambda line: None)
    with open(tmp_path / "BENCH_elastic.json") as handle:
        assert json.load(handle)["benchmark"] == "elastic-rebalance-microbench"
