"""Tests for the command-line interface."""

import argparse
import dataclasses
import json
import os

import pytest

from repro.cli import build_parser, main
from repro.pregelix.api import PlanChoice
from repro.serve import AutoscalePolicy, ServeConfig, TenantQuota


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, lines


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nope", "--input", "x"])

    @pytest.mark.parametrize("argv", [
        ["run", "pagerank", "--input", "x", "--parallel", "4"],
        ["run", "pagerank", "--input", "x", "--io-latency", "200"],
        ["pipeline", "pagerank", "--input", "x", "--parallel", "4"],
        ["serve", "--parallel=4"],
    ], ids=" ".join)
    def test_clone_concurrency_flags_are_gone(self, argv, capsys):
        # Clones run one after another and nothing sleeps for simulated
        # time: an old command line fails loudly instead of being ignored.
        with pytest.raises(SystemExit) as error:
            build_parser().parse_args(argv)
        assert error.value.code == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err

    def test_figures_choices(self):
        args = build_parser().parse_args(["figures", "table3", "figure12a"])
        assert args.which == ["table3", "figure12a"]


class TestSurface:
    """The option surface of every subcommand, pinned: a flag added,
    removed or renamed, or a choice or default moved, fails here."""

    PINNED = os.path.join(os.path.dirname(__file__), "cli_surface.json")

    @staticmethod
    def surface(parser):
        """``{command: sorted "option choices=... default=..." lines}``."""
        sub = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
        return {
            name: sorted(
                "%s choices=%s default=%r" % (
                    " ".join(action.option_strings) or action.dest,
                    ",".join(sorted(action.choices))
                    if action.choices is not None else "-",
                    action.default,
                )
                for action in command._actions
            )
            for name, command in sub.choices.items()
        }

    def test_option_surface_is_pinned(self):
        with open(self.PINNED) as handle:
            assert self.surface(build_parser()) == json.load(handle)


class TestBadValues:
    """A bad value exits 2 with one ``error:`` line, before anything runs."""

    @pytest.mark.parametrize("argv", [
        ["chaos", "--plans", "bogus"],
        ["chaos", "--plans", "foj/sort/unmerged/btree,loj/x/merged/lsm"],
        ["chaos", "--budgets", "bogus"],
        ["chaos", "--actions", "bogus"],
        ["chaos", "--nodes", "0"],
        ["chaos", "--vertices", "0"],
        ["run", "sssp", "--input", "x", "--nodes", "0"],
        ["run", "sssp", "--input", "x", "--scale-at", "2"],
        ["run", "sssp", "--input", "x", "--scale-at", "2=0"],
        ["run", "pagerank", "--input", "x", "--checkpoint-interval", "-1"],
        ["run", "pagerank", "--input", "x", "--checkpoint-interval", "0"],
        ["pipeline", "sssp", "--input", "x", "--nodes", "0"],
        ["explain", "sssp", "--nodes", "0"],
        ["figures", "table3", "--nodes", "0"],
        ["checkpoints", "verify", "--nodes", "0"],
        ["checkpoints", "verify", "--vertices", "0"],
        ["checkpoints", "verify", "--interval", "0"],
        ["generate", "--files", "0", "--out", "unused"],
        ["generate", "--vertices", "0", "--out", "unused"],
        ["serve", "top", "--url", "https://localhost:8080"],
        ["serve", "top", "--url", "http://localhost:port"],
    ], ids=" ".join)
    def test_exits_2_with_one_error_line(self, argv, capsys):
        lines = []
        with pytest.raises(SystemExit) as exit:
            main(argv, out=lines.append)
        assert exit.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err
        assert lines == []  # refused before anything ran


class TestGenerate:
    def test_generate_chain(self, tmp_path):
        out_dir = str(tmp_path / "g")
        code, lines = run_cli(
            ["generate", "--family", "chain", "--vertices", "12", "--out", out_dir,
             "--files", "3"]
        )
        assert code == 0
        files = sorted(os.listdir(out_dir))
        assert files == ["part-00000", "part-00001", "part-00002"]
        total = sum(
            len(open(os.path.join(out_dir, f)).read().splitlines()) for f in files
        )
        assert total == 12

    def test_generate_btc_degree(self, tmp_path):
        out_dir = str(tmp_path / "btc")
        code, _ = run_cli(
            ["generate", "--family", "btc", "--vertices", "200", "--out", out_dir]
        )
        assert code == 0


class TestRun:
    @pytest.fixture
    def chain_dir(self, tmp_path):
        out_dir = str(tmp_path / "in")
        run_cli(["generate", "--family", "chain", "--vertices", "15", "--out", out_dir])
        return out_dir

    def test_run_sssp_end_to_end(self, chain_dir, tmp_path):
        out_dir = str(tmp_path / "out")
        code, lines = run_cli(
            ["run", "sssp", "--input", chain_dir, "--output", out_dir, "--nodes", "2"]
        )
        assert code == 0
        assert any("supersteps" in line for line in lines)
        values = {}
        for name in os.listdir(out_dir):
            for line in open(os.path.join(out_dir, name)):
                fields = line.split()
                values[int(fields[0])] = float(fields[1])
        assert values[14] == pytest.approx(14.0)

    def test_run_with_plan_overrides(self, chain_dir):
        code, lines = run_cli(
            ["run", "sssp", "--input", chain_dir, "--nodes", "2",
             "--join", "foj", "--groupby", "sort", "--connector", "merged",
             "--storage", "lsm"]
        )
        assert code == 0
        assert any("foj/sort/merged/lsm" in line
                   for line in lines)

    def test_plan_flags_move_only_their_axes(self):
        from repro.cli import _build_job

        argv = ["run", "sssp", "--input", "x", "--groupby", "sort",
                "--storage", "lsm"]
        _module, job = _build_job("sssp", build_parser().parse_args(argv))
        # sssp's own hints are loj/hashsort/unmerged/btree.
        assert PlanChoice.of(job).signature() == "loj/sort/unmerged/lsm"

    def test_run_with_optimizer(self, chain_dir):
        code, lines = run_cli(
            ["run", "sssp", "--input", chain_dir, "--nodes", "2", "--optimize"]
        )
        assert code == 0

    def test_run_pagerank_reports_counts(self, chain_dir):
        code, lines = run_cli(
            ["run", "pagerank", "--input", chain_dir, "--nodes", "2",
             "--iterations", "3"]
        )
        assert code == 0
        assert any("vertices: 15" in line for line in lines)

    @pytest.mark.parametrize("command", ["run", "pipeline"])
    def test_missing_input_directory(self, tmp_path, command):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        code, lines = run_cli([command, "sssp", "--input", empty])
        assert code == 2
        assert lines == ["error: no input files in %s" % empty]
        missing = str(tmp_path / "missing")
        code, lines = run_cli([command, "sssp", "--input", missing])
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert missing in lines[0]

    @pytest.mark.parametrize("command", ["run", "pipeline"])
    def test_failed_job_exits_1_with_one_error_line(self, tmp_path, command):
        # On a cycle every rank doubles each round until it outgrows the
        # INT64 value serde.
        cycle = tmp_path / "cycle"
        cycle.mkdir()
        (cycle / "part-0").write_text("0 _ 1:1.0\n1 _ 2:1.0\n2 _ 0:1.0\n")
        code, lines = run_cli(
            [command, "list-ranking", "--input", str(cycle), "--nodes", "1"])
        assert code == 1
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: vertex ")
        assert "'value'" in lines[0]

    def test_pipeline_of_one_writes_what_run_writes(self, chain_dir, tmp_path):
        """The CI recipe: `repro pipeline X` and `repro run X` agree."""
        outputs = {}
        for command in ("run", "pipeline"):
            out_dir = str(tmp_path / command)
            code, _lines = run_cli(
                [command, "pagerank", "--input", chain_dir, "--output", out_dir,
                 "--nodes", "3", "--iterations", "3"]
            )
            assert code == 0
            outputs[command] = {
                name: open(os.path.join(out_dir, name)).read()
                for name in sorted(os.listdir(out_dir))
            }
        assert outputs["pipeline"] == outputs["run"]
        assert len(outputs["run"]) == 3


class TestTrace:
    @pytest.fixture
    def chain_dir(self, tmp_path):
        out_dir = str(tmp_path / "in")
        run_cli(["generate", "--family", "chain", "--vertices", "15", "--out", out_dir])
        return out_dir

    def test_run_with_trace_writes_chrome_json(self, chain_dir, tmp_path):
        trace_path = str(tmp_path / "trace.json")
        code, lines = run_cli(
            ["run", "pagerank", "--input", chain_dir, "--nodes", "2",
             "--iterations", "2", "--trace", trace_path]
        )
        assert code == 0
        assert any("trace written to" in line for line in lines)
        with open(trace_path) as handle:
            document = json.load(handle)
        names = {event["name"] for event in document["traceEvents"]}
        assert "pregelix:pagerank" in names
        assert "superstep:1" in names
        assert document["otherData"]["sim_seconds"] > 0

    def test_trace_jsonl_sidecar(self, chain_dir, tmp_path):
        jsonl_path = str(tmp_path / "telemetry.jsonl")
        code, _lines = run_cli(
            ["run", "sssp", "--input", chain_dir, "--nodes", "2",
             "--trace-jsonl", jsonl_path]
        )
        assert code == 0
        with open(jsonl_path) as handle:
            records = [json.loads(line) for line in handle]
        assert {"span", "metric"} <= {record["type"] for record in records}

    def test_stats_prints_telemetry_summary(self, chain_dir):
        code, lines = run_cli(
            ["run", "sssp", "--input", chain_dir, "--nodes", "2", "--stats"]
        )
        assert code == 0
        assert any("-- telemetry summary --" in line for line in lines)


class TestLoc:
    def test_loc_prints_table(self):
        code, lines = run_cli(["loc"])
        assert code == 0
        assert any("Pregel-specific core" in line for line in lines)

    def test_experiments_md_quotes_every_line_verbatim(self):
        """EXPERIMENTS.md §7.6 is the command's output, pasted: the rule
        CI's ``figures`` job applies too."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "EXPERIMENTS.md")) as handle:
            document = handle.read()
        _code, lines = run_cli(["loc"])
        stale = [line.rstrip() for line in lines
                 if line.strip() and line.rstrip() not in document]
        assert not stale, "EXPERIMENTS.md section 7.6 is stale: %s" % stale


class TestEdgeListInput:
    def test_run_with_edge_list(self, tmp_path):
        in_dir = tmp_path / "edges"
        in_dir.mkdir()
        (in_dir / "part-0").write_text("0 1\n1 2\n2 3\n")
        out_dir = str(tmp_path / "out")
        code, lines = run_cli(
            ["run", "sssp", "--input", str(in_dir), "--output", out_dir,
             "--nodes", "2", "--input-format", "edges"]
        )
        assert code == 0
        values = {}
        for name in os.listdir(out_dir):
            for line in open(os.path.join(out_dir, name)):
                fields = line.split()
                values[int(fields[0])] = float(fields[1])
        assert values[3] == 3.0


class TestExplain:
    def test_explain_prints_plans(self):
        code, lines = run_cli(["explain", "pagerank"])
        assert code == 0
        text = "\n".join(lines)
        assert "plan signature" in text
        assert "-- superstep plan --" in text
        assert "IndexFullOuterJoin" in text
        assert "MsgWrite" in text

    def test_explain_loj_shows_vid_machinery(self):
        code, lines = run_cli(["explain", "sssp", "--join", "loj"])
        assert code == 0
        text = "\n".join(lines)
        assert "MergeChoose" in text
        assert "IndexLeftOuterJoin" in text
        assert "VidScan" in text

    def test_explain_merged_connector(self):
        code, lines = run_cli(
            ["explain", "pagerank", "--connector", "merged", "--groupby", "sort"]
        )
        assert code == 0
        text = "\n".join(lines)
        assert "MToNPartitioningMergingConnector" in text
        assert "ReceiverPreclusteredGroupBy" in text


class TestChaos:
    def test_quick_smoke_passes(self):
        code, lines = run_cli(["chaos", "--quick", "--vertices", "60"])
        assert code == 0
        assert any(line.startswith("chaos sssp: OK") for line in lines)

    def test_single_cell_reproduction_command_shape(self):
        code, lines = run_cli(
            [
                "chaos",
                "--algorithm", "cc",
                "--plans", "loj/hashsort/unmerged/lsm",
                "--budgets", "spill",
                "--fault-seed", "7",
                "--vertices", "60",
            ]
        )
        assert code == 0
        assert any("chaos cc: OK" in line for line in lines)

    def test_show_schedule_prints_fault_plan(self):
        code, lines = run_cli(
            [
                "chaos",
                "--quick",
                "--vertices", "60",
                "--show-schedule",
                "--fault-seed", "9",
            ]
        )
        assert code == 0
        assert any("fault plan (seed=9" in line for line in lines)

    def test_no_faults_runs_single_schedule(self):
        code, lines = run_cli(
            [
                "chaos",
                "--algorithm", "sssp",
                "--plans", "foj/sort/unmerged/btree",
                "--budgets", "roomy",
                "--no-faults",
                "--vertices", "60",
                "--verbose",
            ]
        )
        assert code == 0
        # verbose mode prints the one cell, then the OK summary
        assert any("budget=roomy" in line for line in lines)
        assert any("1 plans x 1 budgets x 1 schedules" in line for line in lines)

    def test_bad_plan_signature_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit:
            run_cli(["chaos", "--plans", "bogus"])
        assert exit.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == [
            "repro chaos: error: argument --plans: plan signature must be "
            "join/groupby/connector/storage, got 'bogus'"
        ]
        # A signature of four parts names the axis it fails on, and the
        # spellings that axis accepts.
        with pytest.raises(SystemExit) as exit:
            run_cli(["chaos", "--plans", "loj/hashsort/m-to-n-partitioning/btree"])
        assert exit.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == [
            "repro chaos: error: argument --plans: connector must be one of "
            "unmerged, merged, got 'm-to-n-partitioning' in "
            "'loj/hashsort/m-to-n-partitioning/btree'"
        ]

    def test_durability_action_pool(self):
        code, lines = run_cli(
            [
                "chaos",
                "--algorithm", "sssp",
                "--plans", "foj/sort/unmerged/btree",
                "--budgets", "roomy",
                "--fault-seed", "5",
                "--actions", "corrupt,torn_write,transient_io",
                "--vertices", "60",
                "--show-schedule",
            ]
        )
        assert code == 0
        text = "\n".join(lines)
        assert "chaos sssp: OK" in text
        # The printed schedule draws from the requested durability pool.
        assert any(
            action in text for action in ("corrupt", "torn_write", "transient_io")
        )


class TestCheckpoints:
    def test_verify_clean_run(self):
        code, lines = run_cli(
            ["checkpoints", "verify", "--vertices", "60", "--interval", "2"]
        )
        assert code == 0
        text = "\n".join(lines)
        assert "committed checkpoints:" in text
        assert "VERIFIED" in text and "FAILED" not in text
        assert "recovery would use: checkpoint" in text

    @pytest.mark.parametrize("damage", ["corrupt", "tear"])
    def test_verify_detects_injected_damage(self, damage):
        code, lines = run_cli(
            [
                "checkpoints", "verify",
                "--vertices", "60",
                "--interval", "2",
                "--damage", damage,
            ]
        )
        assert code == 0  # exit 0 means the audit *caught* the damage
        text = "\n".join(lines)
        assert "injected %s" % damage in text
        assert "FAILED" in text
        assert "damage detection: OK" in text
        # The damaged newest checkpoint is not the one recovery would use.
        assert "recovery would use: checkpoint" in text

    @pytest.mark.parametrize("damage", ["corrupt", "tear"])
    def test_verify_events_land_in_the_drivers_session(self, damage, monkeypatch):
        import contextlib

        from repro.bench import reporting

        drivers = []
        graph_driver = reporting.graph_driver

        @contextlib.contextmanager
        def recording(*args, **kwargs):
            with graph_driver(*args, **kwargs) as driver:
                drivers.append(driver)
                yield driver

        monkeypatch.setattr(reporting, "graph_driver", recording)
        code, _ = run_cli(
            [
                "checkpoints", "verify",
                "--vertices", "60",
                "--interval", "2",
                "--damage", damage,
            ]
        )
        assert code == 0
        events = drivers[0].telemetry.events
        [failed] = events.snapshot(name="checkpoint.verify_failed")
        [fallback] = events.snapshot(name="recovery.fallback")
        assert fallback.args["superstep"] < failed.args["superstep"]


class TestRunJson:
    @pytest.fixture
    def chain_dir(self, tmp_path):
        out_dir = str(tmp_path / "in")
        run_cli(["generate", "--family", "chain", "--vertices", "15", "--out", out_dir])
        return out_dir

    def test_json_document_shape(self, chain_dir, tmp_path):
        out_dir = str(tmp_path / "out")
        code, lines = run_cli(
            ["run", "sssp", "--input", chain_dir, "--output", out_dir,
             "--nodes", "2", "--json"]
        )
        assert code == 0
        document = json.loads("\n".join(lines))
        assert document["algorithm"] == "sssp"
        assert document["num_vertices"] == 15
        assert document["supersteps"] > 0
        assert len(document["results"]) == 15
        assert document["superstep_stats"][0]["superstep"] == 1
        # --json replaces the prose entirely: the output is one JSON blob.
        assert lines[0].lstrip().startswith("{")

    def test_json_without_output_omits_results(self, chain_dir):
        code, lines = run_cli(
            ["run", "cc", "--input", chain_dir, "--nodes", "2", "--json"]
        )
        assert code == 0
        document = json.loads("\n".join(lines))
        assert "results" not in document
        assert document["algorithm"] == "cc"

    def test_json_matches_served_document_shape(self, chain_dir):
        """repro run --json and GET /jobs/<id>/result share the formatter."""
        from repro.graphs.generators import chain_graph
        from repro.serve import JobService

        code, lines = run_cli(
            ["run", "cc", "--input", chain_dir, "--nodes", "2", "--json"]
        )
        assert code == 0
        direct = json.loads("\n".join(lines))

        service = JobService(num_nodes=2, workers=1)
        try:
            service.add_dataset("chain", vertices=chain_graph(15))
            service.start()
            record = service.submit(
                {"tenant": "t", "algorithm": "cc", "dataset": "chain"}
            )
            record.wait(120)
            served = record.result
        finally:
            service.shutdown(timeout=120)
        # Identical keys; identical results modulo the served copy
        # always carrying the dumped lines.
        assert set(direct) | {"results"} == set(served)
        assert direct["aggregate"] == served["aggregate"]
        assert direct["num_edges"] == served["num_edges"]


class TestPipeline:
    @pytest.fixture
    def chain_dir(self, tmp_path):
        out_dir = str(tmp_path / "in")
        run_cli(["generate", "--family", "chain", "--vertices", "15", "--out", out_dir])
        return out_dir

    def test_compatible_jobs_share_one_segment(self, chain_dir, tmp_path):
        out_dir = str(tmp_path / "out")
        code, lines = run_cli(
            ["pipeline", "cc", "reachability", "--input", chain_dir,
             "--output", out_dir, "--nodes", "2"]
        )
        assert code == 0
        text = "\n".join(lines)
        assert "2 jobs in 1 segment(s)" in text
        assert os.listdir(out_dir)

    def test_json_reports_each_job(self, chain_dir):
        code, lines = run_cli(
            ["pipeline", "cc", "cc", "--input", chain_dir, "--nodes", "2",
             "--json"]
        )
        assert code == 0
        document = json.loads("\n".join(lines))
        assert document["segments"] == 1
        assert [job["algorithm"] for job in document["jobs"]] == ["cc", "cc"]
        assert all(job["supersteps"] > 0 for job in document["jobs"])

    def test_incompatible_jobs_split_segments(self, chain_dir):
        # cc carries int component ids, sssp float distances: a type
        # boundary forces materialization between segments.
        code, lines = run_cli(
            ["pipeline", "cc", "sssp", "--input", chain_dir, "--nodes", "2",
             "--json"]
        )
        assert code == 0
        document = json.loads("\n".join(lines))
        assert document["segments"] == 2

    def test_empty_input_fails(self, tmp_path):
        empty = str(tmp_path / "empty")
        os.makedirs(empty)
        code, lines = run_cli(["pipeline", "cc", "--input", empty])
        assert code == 2


class TestServeCommand:
    def test_smoke_passes_end_to_end(self):
        code, lines = run_cli(["serve", "--smoke"])
        assert code == 0
        text = "\n".join(lines)
        assert "serve smoke: PASS" in text
        assert "over-quota is a structured 429" in text
        assert "repeat is a cache hit" in text

    def test_dataset_spec_parsing(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--dataset", "web=/tmp/web",
             "--quota", "alice=2:1:5:0.5", "--quota", "bob=1"]
        )
        assert args.dataset == [("web", "/tmp/web")]
        quotas = ServeConfig.from_args(args).quotas
        assert quotas["alice"].max_running == 1
        assert quotas["alice"].memory_fraction == 0.5
        assert quotas["bob"].weight == 1.0

    def test_bad_dataset_spec_is_an_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--dataset", "nodir"])

    @pytest.mark.parametrize("flags", [
        ["--autoscale", "4"],
        ["--result-cache", "-1"],
        ["--quota", "bob=0"],
        ["--quota", "bob=1:2:3:4:5:6"],
        ["--quota", "bob=1:2:3:4"],
        ["--dataset", "g=/nonexistent"],
        ["--workers", "0"],
        ["--shed-queue-depth", "-3"],
        ["--smoke", "--workers", "0"],
        ["--smoke-restart", "--result-cache", "-1"],
    ], ids=" ".join)
    def test_bad_flag_exits_2_with_one_error_line(self, flags, capsys):
        try:
            code, lines = run_cli(["serve", "--port", "0"] + flags)
        except SystemExit as exit:  # argparse refused the value itself
            code, lines = exit.code, capsys.readouterr().err.splitlines()
        assert code == 2
        assert len([line for line in lines if "error:" in line]) == 1, lines

    def test_recover_over_an_empty_journal(self, tmp_path):
        # The argv shape perfbench's serve.recover_s spawns.
        code, lines = run_cli(
            ["serve", "recover", "--journal", str(tmp_path), "--nodes", "2",
             "--workers", "1", "--demo-dataset", "20"]
        )
        assert code == 0
        assert any(line.startswith("journal replay: 0 job(s)") for line in lines)

    def test_top_action_parses(self):
        args = build_parser().parse_args(
            ["serve", "top", "--url", "http://h:1", "--interval", "0.5",
             "--count", "3"]
        )
        assert args.action == "top"
        assert args.url == "http://h:1"
        assert args.interval == 0.5
        assert args.count == 3

    def test_top_unreachable_service_fails_cleanly(self):
        code, lines = run_cli(
            ["serve", "top", "--url", "http://127.0.0.1:1", "--count", "1"]
        )
        assert code == 1
        assert "unreachable" in "\n".join(lines)

    def test_render_top_frame(self):
        from repro.cli import _render_top, _sparkline

        stats = {
            "state": "serving", "uptime_seconds": 12.0, "nodes": 3,
            "queue_depth": 2, "running": ["a"], "jobs_executed": 5,
            "rejected": 1, "shed": 0, "jobs": {"succeeded": 4},
            "result_cache": {"entries": 2, "hits": 3, "misses": 1},
            "journal": {"appends": 9, "avg_append_seconds": 0.002},
            "latency": {"alice": {"e2e": {
                "count": 4, "p50": 0.1, "p95": 0.2, "p99": 0.3}}},
        }
        history = {"samples": [
            {"queue_depth": d, "cache_hit_ratio": 0.5,
             "journal_append_seconds": 0.001,
             "virtual_time_by_tenant": {"alice": 1000.0}}
            for d in (0, 1, 2)
        ]}
        text = "\n".join(_render_top("http://h:1", stats, history))
        assert "serving" in text
        assert "queue 2" in text
        assert "75% hit" in text
        assert "latency alice" in text and "p95" in text
        assert "queue depth" in text and "now 2" in text
        assert "vt=1000" in text
        # Sparklines scale to the window peak and tolerate None gaps.
        assert _sparkline([]) == ""
        assert _sparkline([0.0, None, 1.0])[-1] == _sparkline([5, 10])[-1]


class TestServeConfigFlags:
    """``ServeConfig`` is the one declaration of a service knob: each
    field's flag, type and default live on the field."""

    #: field -> (flag value, parsed field value)
    SAMPLES = {
        "num_nodes": ("3", 3),
        "workers": ("5", 5),
        "node_memory_bytes": ("8", 8 << 20),
        "quotas": ("bob=2:1", {"bob": TenantQuota(weight=2.0, max_running=1)}),
        "result_cache_capacity": ("0", 0),
        "autoscale": ("2:4", AutoscalePolicy(2, 4)),
        "journal": ("wal-dir", "file:" + os.path.abspath("wal-dir")),
        "default_deadline_seconds": ("1.5", 1.5),
        "shed_queue_depth": ("7", 7),
        "shed_append_seconds": ("0.25", 0.25),
        "batch_max": ("4", 4),
        "batch_window": ("0.1", 0.1),
    }
    #: set by the chaos drill and tests only (``parallelism``: 1 only): no flag
    API_ONLY = {"checkpoint_interval", "watchdog", "parallelism"}

    @staticmethod
    def plain(value):
        """``AutoscalePolicy`` compares by identity; compare its fields."""
        return value.to_dict() if isinstance(value, AutoscalePolicy) else value

    def test_each_field_has_one_flag_that_round_trips(self):
        knobs = {knob.name: knob for knob in dataclasses.fields(ServeConfig)}
        assert set(self.SAMPLES) | self.API_ONLY == set(knobs)
        assert not set(self.SAMPLES) & self.API_ONLY
        flags = [knob.metadata["flag"] for knob in knobs.values()]
        flagged = [flag for flag in flags if flag]
        assert len(flagged) == len(set(flagged)) == len(self.SAMPLES)
        default = ServeConfig()
        for name, (text, expected) in self.SAMPLES.items():
            args = build_parser().parse_args(
                ["serve", knobs[name].metadata["flag"], text]
            )
            config = ServeConfig.from_args(args)
            assert self.plain(getattr(config, name)) == self.plain(expected), name
            # ... and that flag moved nothing else.
            assert dataclasses.replace(
                config, **{name: getattr(default, name)}
            ) == default, name

    def test_unknown_service_keyword_is_a_type_error(self):
        from repro.serve import JobService

        with pytest.raises(TypeError):
            JobService(bogus=1)

    @pytest.mark.parametrize("changes", [
        {"workers": 0}, {"num_nodes": 0}, {"result_cache_capacity": -1},
        {"shed_queue_depth": -3}, {"batch_max": 0}, {"batch_window": -0.1},
        {"checkpoint_interval": -1}, {"parallelism": 0}, {"parallelism": 4},
    ], ids=repr)
    def test_api_refuses_what_the_cli_refuses(self, changes):
        with pytest.raises(ValueError):
            ServeConfig(**changes)

    @pytest.mark.parametrize("changes", [
        {"autoscale": "2:4"}, {"watchdog": None},
    ], ids=repr)
    def test_one_type_per_field(self, changes):
        with pytest.raises(TypeError):
            ServeConfig(**changes)

    def test_serve_burst_argv(self, tmp_path):
        """The flag set perfbench's ``serve_burst`` spawns ``repro serve``
        with."""
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--nodes", "3", "--workers", "2",
             "--demo-dataset", "300", "--journal", str(tmp_path),
             "--batch-max", "8", "--batch-window", "0.05",
             "--result-cache", "256"]
        )
        assert (args.port, args.demo_dataset) == (0, 300)
        assert ServeConfig.from_args(args) == ServeConfig(
            num_nodes=3, workers=2, journal="file:%s" % tmp_path,
            batch_max=8, batch_window=0.05, result_cache_capacity=256,
        )

    def test_serve_recover_argv(self, tmp_path):
        """The flag set perfbench's ``serve.recover_s`` runs."""
        args = build_parser().parse_args(
            ["serve", "recover", "--journal", str(tmp_path), "--nodes", "3",
             "--workers", "2", "--demo-dataset", "300"]
        )
        assert (args.action, args.demo_dataset) == ("recover", 300)
        assert ServeConfig.from_args(args) == ServeConfig(
            num_nodes=3, workers=2, journal="file:%s" % tmp_path,
        )
