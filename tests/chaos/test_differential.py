"""Differential matrix tests: 16 plans x budgets x fault schedules.

This is the acceptance suite for the paper's plan-equivalence claim:
PageRank, SSSP, and connected components each run across all 16
physical plans (both join strategies, all four group-by strategies,
both B-tree and LSM vertex storage) under a spill-forcing memory
budget, with and without seeded faults, and every run must agree with
the independent networkx/nxadapter reference.
"""

import pytest

from repro.chaos import (
    BUDGETS,
    DifferentialChecker,
    PlanChoice,
    all_plans,
    values_close,
)
from repro.pregelix.api import JoinStrategy, VertexStorage


class TestPlanSpace:
    def test_sixteen_plans(self):
        plans = all_plans()
        assert len(plans) == 16
        assert len({p.signature() for p in plans}) == 16
        # Both storages and both joins are present.
        assert {p.storage for p in plans} == set(VertexStorage)
        assert {p.join for p in plans} == set(JoinStrategy)

    def test_signature_parse_roundtrip(self):
        for plan in all_plans():
            assert PlanChoice.parse(plan.signature()) == plan

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            PlanChoice.parse("foj/sort/unmerged")
        with pytest.raises(ValueError):
            PlanChoice.parse("foj/sort/unmerged/floppy")

    def test_spill_budget_is_actually_tiny(self):
        spill = BUDGETS["spill"]
        assert spill.buffer_cache_bytes <= 16 * 4096
        assert spill.groupby_memory_bytes <= 4096


class TestValuesClose:
    def test_exact_mode(self):
        assert values_close(1.5, 1.5)
        assert not values_close(1.5, 1.5 + 1e-12)
        assert values_close(3, 3)

    def test_tolerant_mode(self):
        assert values_close(1.5, 1.5 + 1e-12, tolerance=1e-9)
        assert not values_close(1.5, 1.6, tolerance=1e-9)

    def test_infinities(self):
        inf = float("inf")
        assert values_close(inf, inf, tolerance=1e-9)
        assert not values_close(inf, 5.0, tolerance=1e-9)

    def test_none(self):
        assert values_close(None, None)
        assert not values_close(None, 1.0)


class TestDifferentialMatrix:
    """The full 16-plan sweep for each algorithm, spill budget included."""

    @pytest.mark.parametrize("algorithm", ["sssp", "cc", "pagerank"])
    def test_all_16_plans_spill_budget_with_faults(
        self, differential_checker, algorithm
    ):
        checker = differential_checker(algorithm)
        report = checker.run_matrix(budgets=("spill",), fault_seeds=(None, 13))
        assert len(report.cells) == 32
        assert report.ok, "\n".join(report.summary_lines())
        # The faulted sweep must have actually exercised recovery
        # somewhere, or the schedule was a no-op.
        assert any(c.faults_fired for c in report.cells), (
            "fault seed 13 fired nothing across 16 plans; pick a new seed"
        )

    @pytest.mark.parametrize("algorithm", ["sssp", "cc"])
    def test_roomy_and_spill_agree(self, differential_checker, algorithm):
        checker = differential_checker(algorithm)
        plans = [PlanChoice.parse("foj/sort/unmerged/btree")]
        report = checker.run_matrix(plans=plans, budgets=("roomy", "spill"))
        assert report.ok, "\n".join(report.summary_lines())
        roomy, spill = report.cells
        # Min-combining algorithms are order-insensitive: bit-equal even
        # across budgets.
        assert roomy.lines == spill.lines

    def test_divergence_reports_repro_command(self, differential_checker):
        checker = differential_checker("sssp")
        plan = PlanChoice.parse("loj/hashsort/unmerged/lsm")
        cell = checker.run_cell(plan, budget="spill", fault_seed=21)
        command = cell.repro_command()
        assert "--algorithm sssp" in command
        assert "--plans loj/hashsort/unmerged/lsm" in command
        assert "--budgets spill" in command
        assert "--fault-seed 21" in command

    def test_reference_mismatch_detected(self, chaos_graph):
        """A deliberately wrong reference must be flagged, proving the
        comparison has teeth."""
        checker = DifferentialChecker("cc", chaos_graph)
        real_reference = checker.case.reference

        def wrong_reference(vertices):
            expected = dict(real_reference(vertices))
            some_vid = next(iter(expected))
            expected[some_vid] = expected[some_vid] + 10**9
            return expected

        checker.case.reference = wrong_reference
        report = checker.run_matrix(
            plans=[PlanChoice.parse("foj/sort/unmerged/btree")]
        )
        assert not report.ok
        assert report.reference_mismatches
        # A mismatch names its budget and bit-identity class.
        assert report.reference_mismatches[0].startswith(
            "budget roomy, sort/unmerged group-by: "
        )

    def test_failed_cell_reported_not_raised(self, chaos_graph):
        """A cell whose job crashes becomes a finding, not a test crash."""
        checker = DifferentialChecker("sssp", chaos_graph)
        original = checker.case.build_job

        def broken_job():
            job = original()
            job.max_supersteps = None
            job.checkpoint_interval = None  # fault without checkpoint
            return job

        checker.case.build_job = broken_job
        from repro.chaos import FaultPlan

        # min_superstep=0 so the fault lands before any checkpoint could
        # have been taken even if one were configured.
        checker.checkpoint_interval = None
        plan = PlanChoice.parse("foj/sort/unmerged/btree")
        cell = checker.run_cell(plan, fault_seed=5)
        # With checkpointing disabled the faulted run must either fail
        # (reported in-band) or the schedule never fired; both are
        # legitimate, but an exception must not escape run_cell and a
        # failed cell must carry its error instead of half a result.
        assert (cell.error is None) == (cell.lines is not None)

    def test_a_surviving_spilled_run_fails_the_cell(self, chaos_graph, monkeypatch):
        """The verdict covers what a run leaves on disk: runs that are
        not cleaned up turn an otherwise correct cell into a finding."""
        from repro.hyracks.storage.run_file import SortedRuns

        monkeypatch.setattr(SortedRuns, "__exit__", lambda self, *exc: False)
        checker = DifferentialChecker("sssp", chaos_graph)
        plan = PlanChoice.parse("foj/sort/unmerged/btree")
        cell = checker.run_cell(plan, budget="spill")
        assert not cell.ok and "groupby-run-" in cell.error

    def test_a_surviving_msg_run_file_fails_the_cell(self, chaos_graph, monkeypatch):
        """Under ``spill`` every ``Msg`` partition is a run file; one left
        behind after the run released it fails the cell as a sorted run
        does. Under ``roomy`` the same leak leaves no file to find."""
        from repro.hyracks.storage.run_file import RunFile

        monkeypatch.setattr(RunFile, "destroy", lambda self: None)
        checker = DifferentialChecker("sssp", chaos_graph)
        plan = PlanChoice.parse("foj/sort/unmerged/btree")
        cell = checker.run_cell(plan, budget="spill")
        assert not cell.ok and "msg-" in cell.error
        assert checker.run_cell(plan, budget="roomy").ok
