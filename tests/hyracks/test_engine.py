"""End-to-end tests of job execution on the simulated cluster."""

import pytest

from repro.chaos import FaultPlan, FaultSpec
from repro.common.errors import JobFailure, SchedulingError
from repro.hyracks.connectors import (
    MToNPartitioningConnector,
    MToOneAggregatorConnector,
    OneToOneConnector,
)
from repro.hyracks.engine import HyracksCluster
from repro.hyracks.job import JobSpec
from repro.hyracks.operators.aggregate import (
    GlobalAggregateOperator,
    LocalAggregateOperator,
    SumAggregator,
)
from repro.hyracks.operators.func import (
    CollectSinkOperator,
    FilterOperator,
    GeneratorSourceOperator,
    MapOperator,
    UnionOperator,
)
from repro.hyracks.scheduler import AbsoluteLocationConstraint


@pytest.fixture
def cluster(tmp_path):
    with HyracksCluster(num_nodes=3, root_dir=str(tmp_path / "c")) as c:
        yield c


def word_count_job():
    """A classic two-stage job exercising source, shuffle, and sink."""
    documents = {
        0: ["a b a", "c"],
        1: ["b b", "a c"],
        2: [],
    }
    spec = JobSpec("wordcount")
    source = spec.add(
        GeneratorSourceOperator(
            lambda ctx, p: [
                (word, 1) for line in documents[p] for word in line.split()
            ]
        )
    )
    count = spec.add(
        MapOperator(lambda t: t, name="CountStage")
    )
    sink = spec.add(CollectSinkOperator("counts"))
    spec.connect(
        MToNPartitioningConnector(key_fn=lambda t: t[0]), source, count
    )
    spec.connect(OneToOneConnector(), count, sink)
    return spec


class TestExecution:
    def test_pipeline_with_shuffle(self, cluster):
        result = cluster.execute(word_count_job())
        gathered = result.gather("counts")
        totals = {}
        for word, one in gathered:
            totals[word] = totals.get(word, 0) + one
        assert totals == {"a": 3, "b": 3, "c": 2}

    def test_same_key_lands_in_one_partition(self, cluster):
        result = cluster.execute(word_count_job())
        partition_of = {}
        for partition, tuples in result.collected["counts"].items():
            for word, _one in tuples:
                partition_of.setdefault(word, set()).add(partition)
        assert all(len(parts) == 1 for parts in partition_of.values())

    def test_two_stage_aggregate_job(self, cluster):
        spec = JobSpec("sum")
        source = spec.add(
            GeneratorSourceOperator(lambda ctx, p: [p + 1, p + 1])
        )
        local = spec.add(LocalAggregateOperator(SumAggregator()))
        final = spec.add(GlobalAggregateOperator(SumAggregator()))
        sink = spec.add(CollectSinkOperator("total"))
        spec.connect(OneToOneConnector(), source, local)
        spec.connect(MToOneAggregatorConnector(), local, final)
        spec.connect(OneToOneConnector(), final, sink)
        result = cluster.execute(spec)
        assert result.gather("total") == [2 * (1 + 2 + 3)]

    def test_filter_and_union(self, cluster):
        spec = JobSpec("fu")
        evens = spec.add(GeneratorSourceOperator(lambda ctx, p: [0, 2, 4]))
        odds = spec.add(GeneratorSourceOperator(lambda ctx, p: [1, 3, 5]))
        union = spec.add(UnionOperator())
        keep_small = spec.add(FilterOperator(lambda x: x < 3))
        sink = spec.add(CollectSinkOperator("vals"))
        spec.connect(OneToOneConnector(), evens, union)
        spec.connect(OneToOneConnector(), odds, union)
        spec.connect(OneToOneConnector(), union, keep_small)
        spec.connect(OneToOneConnector(), keep_small, sink)
        result = cluster.execute(spec)
        assert sorted(result.gather("vals")) == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_operator_timing_recorded(self, cluster):
        result = cluster.execute(word_count_job())
        assert "GeneratorSource" in result.operator_seconds
        assert result.elapsed >= 0

    def test_absolute_constraint_places_on_node(self, cluster):
        observed = []
        spec = JobSpec("where")
        source = spec.add(
            GeneratorSourceOperator(
                lambda ctx, p: observed.append(ctx.node.node_id) or []
            )
        )
        source.partition_constraint = AbsoluteLocationConstraint(["node2", "node0"])
        cluster.execute(spec)
        assert observed == ["node2", "node0"]

    def test_cycle_detection(self, cluster):
        spec = JobSpec("cycle")
        a = spec.add(MapOperator(lambda t: t))
        b = spec.add(MapOperator(lambda t: t))
        spec.connect(OneToOneConnector(), a, b)
        spec.connect(OneToOneConnector(), b, a)
        with pytest.raises(SchedulingError):
            cluster.execute(spec)


class TestFailures:
    def test_dead_node_breaks_absolute_constraint(self, cluster):
        spec = JobSpec("doomed")
        op = spec.add(GeneratorSourceOperator(lambda ctx, p: []))
        op.partition_constraint = AbsoluteLocationConstraint(["node1"])
        cluster.kill_node("node1")
        with pytest.raises(SchedulingError):
            cluster.execute(spec)

    def test_injected_failure_fails_job(self, cluster):
        cluster.fault_injector.arm(FaultPlan(
            [FaultSpec("operator.open", action="kill", node="node0", at_hit=1)]
        ))
        with pytest.raises(JobFailure):
            cluster.execute(word_count_job())
        assert "node0" not in cluster.alive_node_ids()

    def test_cluster_survives_with_remaining_nodes(self, cluster):
        cluster.kill_node("node2")
        result = cluster.execute(word_count_job_for_two())
        assert len(result.gather("out")) == 2

    def test_revive_node(self, cluster):
        cluster.kill_node("node1")
        cluster.revive_node("node1")
        assert cluster.alive_node_ids() == ["node0", "node1", "node2"]

    def test_aggregate_memory_shrinks_with_dead_nodes(self, cluster):
        before = cluster.aggregate_memory_bytes()
        cluster.kill_node("node0")
        assert cluster.aggregate_memory_bytes() == before * 2 // 3


def word_count_job_for_two():
    spec = JobSpec("small")
    source = spec.add(GeneratorSourceOperator(lambda ctx, p: [p]))
    sink = spec.add(CollectSinkOperator("out"))
    spec.connect(OneToOneConnector(), source, sink)
    return spec


class TestAccounting:
    def test_network_bytes_counted(self, tmp_path):
        from repro.common import serde

        with HyracksCluster(num_nodes=2, root_dir=str(tmp_path / "net")) as cluster:
            spec = JobSpec("net")
            source = spec.add(
                GeneratorSourceOperator(lambda ctx, p: [(i, float(i)) for i in range(10)])
            )
            sink = spec.add(CollectSinkOperator("out"))
            spec.connect(
                MToNPartitioningConnector(
                    key_fn=lambda t: t[0],
                    tuple_serde=serde.PairSerde(serde.INT64, serde.FLOAT64),
                ),
                source,
                sink,
            )
            result = cluster.execute(spec)
            assert result.network_io.network_bytes > 0
            assert len(result.gather("out")) == 20

    def test_jobs_executed_counter(self, cluster):
        cluster.execute(word_count_job_for_two())
        assert cluster.jobs_executed == 1

    def test_unused_node_retiring_mid_job_keeps_io_deltas_nonnegative(self, cluster):
        # node2 did I/O earlier, the job never lands on it, and it retires
        # while the job runs (what an autoscaler or a finishing concurrent
        # job does): its counters must not be subtracted from this job's.
        idle = cluster.nodes["node2"]
        idle.files.record_run_write(5000)
        idle.files.record_run_read(7000)
        idle.buffer_cache.stats.misses += 3
        idle.buffer_cache.stats.writebacks += 2

        def drain_then_emit(ctx, partition):
            if partition == 0:
                cluster.drain_node("node2")
            return [partition]

        spec = JobSpec("drain-mid-job")
        source = spec.add(GeneratorSourceOperator(drain_then_emit))
        sink = spec.add(CollectSinkOperator("out"))
        for operator in (source, sink):
            operator.partition_constraint = AbsoluteLocationConstraint(
                ["node0", "node1"]
            )
        spec.connect(OneToOneConnector(), source, sink)
        result = cluster.execute(spec)
        assert "node2" not in cluster.nodes  # it really retired mid-job
        assert all(value >= 0 for value in result.disk_io.snapshot().values())
        assert result.cache_misses >= 0 and result.cache_writebacks >= 0
