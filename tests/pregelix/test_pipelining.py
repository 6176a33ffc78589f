"""Job pipelining tests (paper Section 5.6)."""

import contextlib
import os

import pytest

from repro.algorithms import connected_components as cc
from repro.algorithms import graph_cleaning, pagerank, sssp
from repro.common.errors import CheckpointNotFound, ReproError
from repro.graphs.generators import btc_graph, de_bruijn_path_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import ConnectorPolicy, GroupByStrategy, PregelixDriver
from repro.pregelix.pipelining import check_compatibility, run_pipeline


class TestCompatibility:
    def test_same_serde_types_compatible(self):
        check_compatibility([cc.build_job(), cc.build_job()])

    def test_different_value_serdes_rejected(self):
        with pytest.raises(ReproError):
            check_compatibility([cc.build_job(), pagerank.build_job()])

    def test_empty_pipeline_rejected(self):
        with pytest.raises(ReproError):
            check_compatibility([])


class TestPipelineExecution:
    def test_two_cc_rounds(self, driver, dfs):
        write_graph_to_dfs(dfs, "/in/g", btc_graph(100, seed=7), num_files=3)
        outcome = run_pipeline(
            driver,
            [cc.build_job(), cc.build_job()],
            "/in/g",
            output_path="/out/pipe",
            parse_line=cc.parse_line,
            format_record=cc.format_record,
        )
        assert len(outcome.outcomes) == 2
        # The second (idempotent) round converges quickly: every vertex
        # re-propagates once, then everything is stable.
        assert outcome.outcomes[1].supersteps <= outcome.outcomes[0].supersteps
        labels = {
            int(l.split()[0]): int(l.split()[1])
            for l in driver.read_output("/out/pipe")
        }
        assert len(labels) == 100

    @pytest.mark.parametrize("virtual_partitions", [None, 8])
    @pytest.mark.parametrize("groupby", list(GroupByStrategy))
    @pytest.mark.parametrize("connector", list(ConnectorPolicy))
    def test_pipeline_matches_single_run(
        self, tmp_path, virtual_partitions, groupby, connector
    ):
        """A pipeline of one job *is* a plain run of that job: same
        bytes, supersteps, engine jobs and partitions."""

        def job():
            return pagerank.build_job(
                iterations=4, groupby_strategy=groupby, connector_policy=connector
            )

        with HyracksCluster(
            num_nodes=4, root_dir=str(tmp_path / "c"),
            virtual_partitions=virtual_partitions,
        ) as cluster:
            dfs = cluster.dfs
            driver = PregelixDriver(cluster, dfs)
            write_graph_to_dfs(dfs, "/in/one", btc_graph(80, seed=8), num_files=3)
            before = cluster.jobs_executed
            plain = driver.run(job(), "/in/one", output_path="/out/plain")
            plain_jobs = cluster.jobs_executed - before
            piped = run_pipeline(driver, [job()], "/in/one", output_path="/out/pipe1")
            assert cluster.jobs_executed - before - plain_jobs == plain_jobs
            (only,) = piped.outcomes
            assert only.supersteps == plain.supersteps
            plain_files = dfs.list_files("/out/plain")
            piped_files = dfs.list_files("/out/pipe1")
            assert len(piped_files) == len(plain_files) == (virtual_partitions or 4)
            assert [dfs.read(path) for path in piped_files] == [
                dfs.read(path) for path in plain_files
            ]

    def test_loads_once(self, driver, dfs, cluster):
        write_graph_to_dfs(dfs, "/in/lo", btc_graph(60, seed=9), num_files=3)
        before = cluster.jobs_executed
        outcome = run_pipeline(
            driver,
            [cc.build_job(), cc.build_job()],
            "/in/lo",
            parse_line=cc.parse_line,
            format_record=cc.format_record,
        )
        jobs = cluster.jobs_executed - before
        # 1 load + supersteps + 1 reactivation; a non-pipelined pair would
        # add another load and a dump/reload round trip.
        expected = 1 + sum(o.supersteps for o in outcome.outcomes) + 1
        assert jobs == expected

    def test_mutation_then_analysis_pipeline(self, driver, dfs):
        """Genomix-style: clean the graph, then analyze the result."""
        write_graph_to_dfs(
            dfs, "/in/genome", de_bruijn_path_graph(4, 6, seed=3), num_files=2
        )
        cleaning = graph_cleaning.build_job()
        components = cc.build_job(vertex_storage=cleaning.vertex_storage)
        outcome = run_pipeline(
            driver,
            [cleaning, components],
            "/in/genome",
            output_path="/out/genome",
            parse_line=graph_cleaning.parse_line,
            format_record=graph_cleaning.format_record,
        )
        lines = driver.read_output("/out/genome")
        # Paths merged, then labeled: far fewer vertices than the input.
        assert 0 < len(lines) < 28


def _pagerank_pair(checkpoint_interval=0):
    return [
        pagerank.build_job(iterations=n, checkpoint_interval=checkpoint_interval)
        for n in (6, 4)
    ]


@contextlib.contextmanager
def _four_node_cluster(root):
    with HyracksCluster(num_nodes=4, root_dir=str(root)) as cluster:
        write_graph_to_dfs(cluster.dfs, "/in/g", btc_graph(80, seed=8), num_files=3)
        yield cluster, cluster.dfs, PregelixDriver(cluster, cluster.dfs)


@pytest.fixture
def four_nodes(tmp_path):
    with _four_node_cluster(tmp_path / "four") as parts:
        yield parts


def _before_plan(cluster, suffix, action, occurrence=1):
    """Call ``action()`` just before the ``occurrence``-th plan whose
    spec name ends with ``suffix`` executes; returns the hit list."""
    execute = cluster.execute
    hits = []

    def wrapped(spec):
        if spec.name.endswith(suffix):
            hits.append(spec.name)
            if len(hits) == occurrence:
                action()
        return execute(spec)

    cluster.execute = wrapped
    return hits


def _static_pipeline(tmp_path, checkpoint_interval=0):
    """The undisturbed two-pagerank pipeline: (superstep counts, output)."""
    with _four_node_cluster(tmp_path / "static") as (_cluster, dfs, driver):
        outcome = run_pipeline(
            driver, _pagerank_pair(checkpoint_interval), "/in/g",
            output_path="/out/p",
        )
        return (
            [o.supersteps for o in outcome.outcomes],
            [dfs.read(path) for path in dfs.list_files("/out/p")],
        )


class TestPipelineIsARun:
    """What `run` guarantees, a pipeline guarantees: one placement pin,
    one run id on every span, recovery from its own checkpoints only,
    nothing left behind."""

    def test_drain_at_a_job_boundary(self, tmp_path, four_nodes):
        cluster, dfs, driver = four_nodes
        still_a_member = []

        def drain():
            cluster.drain_node("node3")
            # Pinned by the pipeline: draining, not retired under the run.
            still_a_member.append("node3" in cluster.alive_node_ids())

        fired = _before_plan(cluster, "-reactivate", drain)
        outcome = run_pipeline(
            driver, _pagerank_pair(), "/in/g", output_path="/out/p"
        )
        assert fired and still_a_member == [True]
        supersteps, lines = _static_pipeline(tmp_path)
        assert [o.supersteps for o in outcome.outcomes] == supersteps
        assert [dfs.read(path) for path in dfs.list_files("/out/p")] == lines
        assert "node3" in cluster.retired_nodes

    @pytest.mark.parametrize("kill_before, recovers", [(2, False), (4, True)])
    def test_failure_in_job_two_sees_only_job_two_checkpoints(
        self, tmp_path, four_nodes, kill_before, recovers
    ):
        """Superstep numbers restart per job; job 1 left checkpoints 2
        and 4 behind. Job 2 checkpoints after its superstep 2, so a
        machine lost before that has nothing to recover from (the
        paper's stated trade) and one lost after it replays job 2's own
        checkpoint — never job 1's."""
        cluster, dfs, driver = four_nodes
        # Job 1 ran a superstep of that number too: the second is job 2's.
        _before_plan(
            cluster, "-superstep-%d" % kill_before,
            lambda: cluster.kill_node("node1"), occurrence=2,
        )
        jobs = _pagerank_pair(checkpoint_interval=2)
        if not recovers:
            with pytest.raises(CheckpointNotFound):
                run_pipeline(driver, jobs, "/in/g", output_path="/out/p")
            return
        outcome = run_pipeline(driver, jobs, "/in/g", output_path="/out/p")
        supersteps, lines = _static_pipeline(tmp_path, checkpoint_interval=2)
        assert [o.supersteps for o in outcome.outcomes] == supersteps == [6, 4]
        assert [o.recoveries for o in outcome.outcomes] == [0, 1]
        assert [dfs.read(path) for path in dfs.list_files("/out/p")] == lines

    def test_every_task_span_carries_the_pipeline_run_id(self, four_nodes):
        cluster, _dfs, driver = four_nodes
        cluster.telemetry.task_spans = True
        outcome = run_pipeline(
            driver, _pagerank_pair(), "/in/g", output_path="/out/p"
        )
        run_id = outcome.outcomes[0].run_id
        assert {o.run_id for o in outcome.outcomes} == {run_id}
        tasks = cluster.telemetry.tracer.finished_spans(category="task")
        assert tasks
        assert {span.args.get("run_id") for span in tasks} == {run_id}

    def test_a_finished_pipeline_leaves_nothing_behind(self, four_nodes):
        cluster, dfs, driver = four_nodes
        outcome = run_pipeline(
            driver, _pagerank_pair(checkpoint_interval=2), "/in/g",
            output_path="/out/p",
        )
        run_id = outcome.outcomes[0].run_id
        assert not dfs.list_files("/pregelix/%s" % run_id)
        for node in cluster.nodes.values():
            assert not node.services.get("indexes")
            assert not [
                name for name in os.listdir(node.files.root) if run_id in name
            ]
        # No pin survives: an unpinned drain retires at once.
        cluster.drain_node("node0")
        assert "node0" in cluster.retired_nodes


class TestJobArrays:
    def test_compatible_segments_split(self):
        from repro.pregelix.pipelining import compatible_segments

        jobs = [cc.build_job(), cc.build_job(), pagerank.build_job(), sssp.build_job()]
        segments = compatible_segments(jobs)
        assert [len(s) for s in segments] == [2, 2]
        # pagerank and sssp share float value/edge serdes -> compatible.
        assert segments[1][0].name == "pagerank"

    def test_mixed_array_materializes_at_boundary(self, driver, dfs):
        from repro.pregelix.pipelining import run_job_array

        write_graph_to_dfs(dfs, "/in/arr", btc_graph(60, seed=12), num_files=2)
        jobs = [cc.build_job(), sssp.build_job(source_id=0)]
        outcomes = run_job_array(
            driver,
            jobs,
            "/in/arr",
            output_path="/out/arr",
            parsers={"connected-components": cc.parse_line},
            formatters={"connected-components": cc.format_record},
        )
        assert len(outcomes) == 2  # two segments: CC | SSSP
        # The final output is SSSP distances over the same topology.
        values = {
            int(l.split()[0]): float(l.split()[1])
            for l in driver.read_output("/out/arr")
        }
        assert values[0] == 0.0
        assert len(values) == 60
