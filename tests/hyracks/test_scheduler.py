"""Tests for the constraint-based task scheduler."""

import pytest

from repro.common.errors import SchedulingError
from repro.hyracks.connectors import MToNPartitioningConnector, OneToOneConnector
from repro.hyracks.job import JobSpec
from repro.hyracks.operators.func import MapOperator
from repro.hyracks.scheduler import (
    AbsoluteLocationConstraint,
    ChoiceLocationConstraint,
    CountConstraint,
    place,
)

NODES = ["n0", "n1", "n2", "n3"]


class TestConstraints:
    def test_absolute_placement(self):
        constraint = AbsoluteLocationConstraint(["n2", "n0"])
        assert constraint.solve(NODES) == ["n2", "n0"]

    def test_absolute_on_dead_node_raises(self):
        constraint = AbsoluteLocationConstraint(["n9"])
        with pytest.raises(SchedulingError):
            constraint.solve(NODES)

    def test_absolute_empty_raises(self):
        with pytest.raises(SchedulingError):
            AbsoluteLocationConstraint([])

    def test_choice_balances_load(self):
        constraint = ChoiceLocationConstraint(
            [["n0", "n1"], ["n0", "n1"], ["n0", "n1"], ["n0", "n1"]]
        )
        placement = constraint.solve(NODES)
        assert placement.count("n0") == 2
        assert placement.count("n1") == 2

    def test_choice_respects_candidates(self):
        constraint = ChoiceLocationConstraint([["n3"], ["n2", "n3"]])
        placement = constraint.solve(NODES)
        assert placement[0] == "n3"
        assert placement[1] in {"n2", "n3"}

    def test_choice_with_no_alive_candidate_raises(self):
        constraint = ChoiceLocationConstraint([["dead"]])
        with pytest.raises(SchedulingError):
            constraint.solve(NODES)

    def test_count_round_robin(self):
        constraint = CountConstraint(6)
        placement = constraint.solve(["a", "b"])
        assert placement == ["a", "b", "a", "b", "a", "b"]

    def test_count_must_be_positive(self):
        with pytest.raises(SchedulingError):
            CountConstraint(0)


class TestSchedulerPlacement:
    def test_default_one_partition_per_node(self):
        spec = JobSpec()
        op = spec.add(MapOperator(lambda t: t))
        placement = place(spec, NODES)
        assert placement[op.op_id] == NODES

    def test_default_follows_preferred_nodes(self):
        spec = JobSpec()
        op = spec.add(MapOperator(lambda t: t))
        placement = place(spec, NODES, ["n3", "n1", "gone"])
        assert placement[op.op_id] == ["n3", "n1"]

    def test_explicit_constraint_wins(self):
        spec = JobSpec()
        op = spec.add(MapOperator(lambda t: t))
        op.partition_constraint = AbsoluteLocationConstraint(["n1"])
        placement = place(spec, NODES)
        assert placement[op.op_id] == ["n1"]

    def test_sticky_placement_is_reproducible(self):
        """Same constraints, same alive set -> same placement (stickiness)."""
        spec = JobSpec()
        op = spec.add(MapOperator(lambda t: t))
        op.partition_constraint = AbsoluteLocationConstraint(["n3", "n1"])
        first = place(spec, NODES)
        second = place(spec, NODES)
        assert first == second

    def test_one_to_one_arity_mismatch_rejected(self):
        spec = JobSpec()
        a = spec.add(MapOperator(lambda t: t))
        b = spec.add(MapOperator(lambda t: t))
        a.partition_constraint = CountConstraint(2)
        b.partition_constraint = CountConstraint(3)
        spec.connect(OneToOneConnector(), a, b)
        with pytest.raises(SchedulingError):
            place(spec, NODES)

    def test_mton_arity_mismatch_allowed(self):
        spec = JobSpec()
        a = spec.add(MapOperator(lambda t: t))
        b = spec.add(MapOperator(lambda t: t))
        a.partition_constraint = CountConstraint(2)
        b.partition_constraint = CountConstraint(3)
        spec.connect(MToNPartitioningConnector(key_fn=lambda t: t), a, b)
        placement = place(spec, NODES)
        assert len(placement[a.op_id]) == 2
        assert len(placement[b.op_id]) == 3

    def test_no_alive_nodes_raises(self):
        spec = JobSpec()
        spec.add(MapOperator(lambda t: t))
        with pytest.raises(SchedulingError):
            place(spec, [])
