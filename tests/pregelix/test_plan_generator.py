"""Structural tests of the physical plans the generator emits."""

import pytest

from repro.algorithms import pagerank, sssp
from repro.graphs.generators import chain_graph
from repro.graphs.io import parse_adjacency_line, write_graph_to_dfs
from repro.hyracks.connectors import (
    MToNPartitioningConnector,
    MToNPartitioningMergingConnector,
)
from repro.hyracks.operators.groupby import (
    HashSortGroupByOperator,
    PreclusteredGroupByOperator,
    SortGroupByOperator,
)
from repro.hyracks.operators.join import (
    IndexFullOuterJoinOperator,
    IndexLeftOuterJoinOperator,
    MergeChooseOperator,
)
from repro.pregelix import ConnectorPolicy, GroupByStrategy, JoinStrategy
from repro.pregelix.physical import PartitionMap, PlanGenerator
from repro.pregelix.types import GlobalState


@pytest.fixture
def partition_map():
    return PartitionMap(["node0", "node1", "node2"])


def generator_for(job, dfs, partition_map):
    return PlanGenerator(job, dfs, "test-run", partition_map)


def op_types(spec):
    return [type(op).__name__ for op in spec.operators]


class TestPartitionMap:
    def test_partition_count(self, partition_map):
        assert partition_map.num_partitions == 3

    def test_partition_of_is_stable(self, partition_map):
        assert partition_map.partition_of(17) == partition_map.partition_of(17)
        assert 0 <= partition_map.partition_of(12345) < 3

    def test_balanced_round_robin_from_offset(self):
        pm = PartitionMap.balanced(["a", "b", "c"], 4, offset=1)
        assert pm.locations == ["b", "c", "a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PartitionMap([])


class TestSuperstepPlanShapes:
    def test_full_outer_join_plan(self, dfs, partition_map):
        job = pagerank.build_job(join_strategy=JoinStrategy.FULL_OUTER)
        spec = generator_for(job, dfs, partition_map).superstep_plan(GlobalState())
        names = op_types(spec)
        assert "IndexFullOuterJoinOperator" in names
        assert "IndexLeftOuterJoinOperator" not in names
        assert "MergeChooseOperator" not in names

    def test_left_outer_join_plan(self, dfs, partition_map):
        job = sssp.build_job(join_strategy=JoinStrategy.LEFT_OUTER)
        spec = generator_for(job, dfs, partition_map).superstep_plan(GlobalState())
        names = op_types(spec)
        assert "IndexLeftOuterJoinOperator" in names
        assert "MergeChooseOperator" in names
        assert "IndexScanOperator" in names  # the Vid scan
        assert "IndexBulkLoadOperator" in names  # Vid rebuild

    @pytest.mark.parametrize("strategy,expected", [
        (GroupByStrategy.SORT, "SortGroupByOperator"),
        (GroupByStrategy.HASHSORT, "HashSortGroupByOperator"),
    ])
    def test_unmerged_connector_regroups_at_receiver(self, dfs, partition_map, strategy, expected):
        job = pagerank.build_job(
            groupby_strategy=strategy, connector_policy=ConnectorPolicy.UNMERGED
        )
        spec = generator_for(job, dfs, partition_map).superstep_plan(GlobalState())
        names = op_types(spec)
        assert names.count(expected) == 2  # sender and receiver sides
        assert "PreclusteredGroupByOperator" not in names
        connector_types = [type(e.connector).__name__ for e in spec.edges]
        assert "MToNPartitioningConnector" in connector_types
        assert "MToNPartitioningMergingConnector" not in connector_types

    @pytest.mark.parametrize("strategy,expected", [
        (GroupByStrategy.SORT, "SortGroupByOperator"),
        (GroupByStrategy.HASHSORT, "HashSortGroupByOperator"),
    ])
    def test_merged_connector_preclusters_at_receiver(self, dfs, partition_map, strategy, expected):
        job = pagerank.build_job(
            groupby_strategy=strategy, connector_policy=ConnectorPolicy.MERGED
        )
        spec = generator_for(job, dfs, partition_map).superstep_plan(GlobalState())
        names = op_types(spec)
        assert names.count(expected) == 1  # sender side only
        assert "PreclusteredGroupByOperator" in names
        connector_types = [type(e.connector).__name__ for e in spec.edges]
        assert "MToNPartitioningMergingConnector" in connector_types

    def test_sticky_constraints_match_partition_map(self, dfs, partition_map):
        job = pagerank.build_job()
        spec = generator_for(job, dfs, partition_map).superstep_plan(GlobalState())
        pinned = [
            op
            for op in spec.operators
            if op.partition_constraint is not None
            and hasattr(op.partition_constraint, "locations")
        ]
        assert pinned, "superstep operators must be pinned"
        for op in pinned:
            assert op.partition_constraint.locations == partition_map.locations

    def test_global_gs_single_partition(self, dfs, partition_map):
        from repro.hyracks.scheduler import CountConstraint

        job = pagerank.build_job()
        spec = generator_for(job, dfs, partition_map).superstep_plan(GlobalState())
        gs_ops = [op for op in spec.operators if type(op).__name__ == "GlobalGSOperator"]
        assert len(gs_ops) == 1
        assert isinstance(gs_ops[0].partition_constraint, CountConstraint)
        assert gs_ops[0].partition_constraint.count == 1


class TestLoadingPlan:
    def test_loading_plan_structure(self, dfs, partition_map):
        write_graph_to_dfs(dfs, "/in/g", chain_graph(10), num_files=3)
        job = pagerank.build_job()
        spec = generator_for(job, dfs, partition_map).loading_plan(
            "/in/g", parse_adjacency_line
        )
        names = op_types(spec)
        assert "HDFSScanOperator" in names
        assert "ExternalSortOperator" in names
        assert "IndexBulkLoadOperator" in names
        assert "_InitGSOperator" in names

    def test_loj_loading_builds_vid_index(self, dfs, partition_map):
        write_graph_to_dfs(dfs, "/in/g", chain_graph(10), num_files=3)
        job = sssp.build_job()
        spec = generator_for(job, dfs, partition_map).loading_plan(
            "/in/g", parse_adjacency_line
        )
        bulk_loads = [
            op for op in spec.operators if type(op).__name__ == "IndexBulkLoadOperator"
        ]
        assert len(bulk_loads) == 2  # vertex + vid

    def test_missing_input_raises(self, dfs, partition_map):
        job = pagerank.build_job()
        with pytest.raises(FileNotFoundError):
            generator_for(job, dfs, partition_map).loading_plan(
                "/nope", parse_adjacency_line
            )

    def test_scan_gets_locality_choices(self, dfs, partition_map):
        from repro.hyracks.scheduler import ChoiceLocationConstraint

        write_graph_to_dfs(dfs, "/in/g", chain_graph(10), num_files=3)
        job = pagerank.build_job()
        spec = generator_for(job, dfs, partition_map).loading_plan(
            "/in/g", parse_adjacency_line
        )
        scan = next(op for op in spec.operators if type(op).__name__ == "HDFSScanOperator")
        assert isinstance(scan.partition_constraint, ChoiceLocationConstraint)


class TestTopologicalValidity:
    @pytest.mark.parametrize("join_strategy", list(JoinStrategy))
    def test_superstep_plans_are_acyclic(self, dfs, partition_map, join_strategy):
        job = pagerank.build_job(join_strategy=join_strategy)
        spec = generator_for(job, dfs, partition_map).superstep_plan(GlobalState())
        order = spec.topological_order()
        assert len(order) == len(spec.operators)
