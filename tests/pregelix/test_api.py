"""Unit tests for the user-facing Pregel API."""

import dataclasses

import pytest

from repro.common import serde
from repro.common.errors import GraphMutationConflict, ReproError
from repro.pregelix.api import (
    Combiner,
    ConnectorPolicy,
    DefaultListCombiner,
    Edge,
    GroupByStrategy,
    JoinStrategy,
    MaxCombiner,
    MinCombiner,
    PlanChoice,
    PregelixJob,
    SumCombiner,
    Vertex,
    VertexResolver,
    VertexStorage,
    all_plans,
)


class EchoVertex(Vertex):
    def compute(self, messages):
        self.vote_to_halt()


class TestVertexBinding:
    def make_bound(self):
        vertex = EchoVertex()
        vertex._bind(7, 1.5, [(8, 0.5), (9, 0.25)], 3, 42.0, 100, 500)
        return vertex

    def test_accessors(self):
        vertex = self.make_bound()
        assert vertex.vertex_id == 7
        assert vertex.value == 1.5
        assert vertex.superstep == 3
        assert vertex.global_aggregate == 42.0
        assert vertex.num_vertices == 100
        assert vertex.num_edges == 500
        assert vertex.edges == [Edge(8, 0.5), Edge(9, 0.25)]

    def test_value_setter(self):
        vertex = self.make_bound()
        vertex.value = 9.9
        assert vertex.value == 9.9

    def test_send_message(self):
        vertex = self.make_bound()
        vertex.send_message(8, 0.1)
        assert vertex._outbox == [(8, 0.1)]

    def test_send_message_to_all_edges(self):
        vertex = self.make_bound()
        vertex.send_message_to_all_edges(2.0)
        assert vertex._outbox == [(8, 2.0), (9, 2.0)]

    def test_vote_to_halt(self):
        vertex = self.make_bound()
        assert not vertex._halted
        vertex.vote_to_halt()
        assert vertex._halted

    def test_edge_mutators(self):
        vertex = self.make_bound()
        vertex.add_edge(10, 1.0)
        assert vertex.edges[-1] == Edge(10, 1.0)
        vertex.remove_edges_to(8)
        assert all(e.target != 8 for e in vertex.edges)
        vertex.set_edges([(1, 0.5)])
        assert vertex.edges == [Edge(1, 0.5)]

    def test_mutation_requests(self):
        vertex = self.make_bound()
        vertex.add_vertex(50, 1.0, edges=[(7, 1.0)])
        vertex.remove_vertex(51)
        assert vertex._mutations[0][0] == "insert"
        assert vertex._mutations[0][3] == [Edge(7, 1.0)]
        assert vertex._mutations[1] == ("delete", 51, None, None)

    def test_aggregate_contributions(self):
        vertex = self.make_bound()
        vertex.aggregate(3)
        vertex.aggregate(4, name="max-seen")
        assert vertex._agg_contribs == [(None, 3), ("max-seen", 4)]

    def test_named_global_aggregate_access(self):
        vertex = self.make_bound()
        vertex._global_aggregate = {"sum": 7, "max": 9}
        assert vertex.get_global_aggregate("sum") == 7
        assert vertex.get_global_aggregate("missing") is None
        scalar = self.make_bound()
        assert scalar.get_global_aggregate("anything") == 42.0

    def test_rebind_resets_transient_state(self):
        vertex = self.make_bound()
        vertex.send_message(8, 1.0)
        vertex.vote_to_halt()
        vertex._bind(1, None, [], 4, None, 10, 10)
        assert vertex._outbox == []
        assert not vertex._halted

    @pytest.mark.parametrize(
        "name", ["vertex_id", "superstep", "num_vertices", "num_edges", "global_aggregate"]
    )
    def test_framework_state_is_read_only(self, name):
        vertex = self.make_bound()
        before = getattr(vertex, name)
        with pytest.raises(AttributeError):
            setattr(vertex, name, 3)
        assert getattr(vertex, name) == before

    def test_a_superstep_bind_collects_every_vertex_into_its_lists(self):
        vertex = EchoVertex()
        outbox, contributions, mutations = [], [], []
        vertex._bind_superstep(5, 1.0, 10, 20, outbox, contributions, mutations)
        for vid in (1, 2):
            vertex._bind_vertex(vid, 0.0, [(vid + 1, None)])
            vertex.send_message_to_all_edges(vid)
            vertex.aggregate(vid)
            vertex.remove_vertex(vid)
            assert (vertex.vertex_id, vertex.superstep, vertex.num_edges) == (vid, 5, 20)
        assert outbox == [(2, 1), (3, 2)]
        assert contributions == [(None, 1), (None, 2)]
        assert mutations == [("delete", 1, None, None), ("delete", 2, None, None)]

    def test_compute_must_be_overridden(self):
        with pytest.raises(NotImplementedError):
            Vertex().compute(iter(()))


class TestCombiners:
    def roundtrip(self, combiner, payloads):
        state = combiner.init()
        for payload in payloads:
            state = combiner.accumulate(state, payload)
        return combiner.finish(state)

    def test_default_list_combiner(self):
        combiner = DefaultListCombiner()
        bundle = self.roundtrip(combiner, [3.0, 1.0, 2.0])
        assert bundle == [3.0, 1.0, 2.0]
        assert list(combiner.expand(bundle)) == [3.0, 1.0, 2.0]

    def test_default_list_merge(self):
        combiner = DefaultListCombiner()
        assert combiner.merge([1], [2, 3]) == [1, 2, 3]

    def test_default_bundle_serde(self):
        combiner = DefaultListCombiner()
        codec = combiner.bundle_serde(serde.FLOAT64)
        assert codec.loads(codec.dumps([1.0, 2.0])) == [1.0, 2.0]

    def test_min_combiner(self):
        combiner = MinCombiner()
        assert self.roundtrip(combiner, [3.0, 1.0, 2.0]) == 1.0
        assert combiner.merge(None, 5.0) == 5.0
        assert combiner.merge(2.0, None) == 2.0
        assert list(combiner.expand(1.0)) == [1.0]

    def test_max_combiner(self):
        combiner = MaxCombiner()
        assert self.roundtrip(combiner, [3.0, 9.0, 2.0]) == 9.0

    def test_sum_combiner(self):
        combiner = SumCombiner()
        assert self.roundtrip(combiner, [1.0, 2.0, 3.5]) == 6.5
        assert combiner.merge(1.0, 2.0) == 3.0

    def test_base_combiner_abstract(self):
        with pytest.raises(NotImplementedError):
            Combiner().init()


class TestResolver:
    def test_deletion_only(self):
        outcome = VertexResolver().resolve(1, [("delete", 1, None, None)], True)
        assert outcome == ("delete",)

    def test_insertion_wins_over_deletion(self):
        """The paper's partial order: deletions apply before insertions."""
        mutations = [("delete", 1, None, None), ("insert", 1, 5.0, [])]
        outcome = VertexResolver().resolve(1, mutations, True)
        assert outcome == ("insert", 5.0, [])

    def test_conflicting_insertions_raise(self):
        mutations = [("insert", 1, 5.0, []), ("insert", 1, 6.0, [])]
        with pytest.raises(GraphMutationConflict):
            VertexResolver().resolve(1, mutations, False)

    def test_custom_resolver_can_choose(self):
        class LastWins(VertexResolver):
            def choose_insertion(self, vid, insertions):
                return insertions[-1]

        mutations = [("insert", 1, 5.0, []), ("insert", 1, 6.0, [])]
        assert LastWins().resolve(1, mutations, False) == ("insert", 6.0, [])

    def test_empty_mutations(self):
        assert VertexResolver().resolve(1, [], True) is None


class TestPregelixJob:
    def test_defaults_match_paper_default_plan(self):
        job = PregelixJob("j", EchoVertex)
        assert job.join_strategy == JoinStrategy.FULL_OUTER
        assert job.groupby_strategy == GroupByStrategy.SORT
        assert job.connector_policy == ConnectorPolicy.UNMERGED
        assert job.vertex_storage == VertexStorage.BTREE

    def test_rejects_non_vertex_class(self):
        with pytest.raises(ReproError):
            PregelixJob("bad", dict)

    def test_plan_signature(self):
        job = PregelixJob("j", EchoVertex)
        assert job.plan_signature() == "foj/sort/unmerged/btree"

    def test_sixteen_distinct_plans(self):
        signatures = set()
        import itertools

        for js, gb, cp, vs in itertools.product(
            JoinStrategy, GroupByStrategy, ConnectorPolicy, VertexStorage
        ):
            job = PregelixJob(
                "j",
                EchoVertex,
                join_strategy=js,
                groupby_strategy=gb,
                connector_policy=cp,
                vertex_storage=vs,
            )
            signatures.add(job.plan_signature())
        assert len(signatures) == 16

    def test_gs_codec_roundtrip(self):
        from repro.pregelix.types import (
            GlobalState,
            decode_global_state,
            encode_global_state,
        )

        job = PregelixJob("j", EchoVertex)
        gs = GlobalState(halt=True, aggregate=None, superstep=5, num_vertices=10, num_edges=20)
        codec = job.gs_codec()
        assert decode_global_state(codec, encode_global_state(codec, gs)) == gs


class TestPlanEncoding:
    """The enums' values are the plan's one spelling; every spelling of a
    plan the system persists or prints is pinned here."""

    def test_one_spelling_of_one_plan(self):
        from repro.algorithms import sssp
        from repro.pregelix.api import PlanChoice

        job = sssp.build_job(vertex_storage=VertexStorage.LSM_BTREE)
        # the journal's plan pin and the result document's `plan`
        assert job.plan_signature() == "loj/hashsort/unmerged/lsm"
        # the result cache's bit-identity class
        assert PlanChoice.of(job).identity_class == "hashsort/unmerged"
        assert PlanChoice.parse("loj/hashsort/unmerged/lsm") == PlanChoice.of(job)

    def test_chaos_re_exports_the_same_objects(self):
        import repro.chaos
        from repro.pregelix import api

        assert repro.chaos.PlanChoice is api.PlanChoice
        assert repro.chaos.all_plans is api.all_plans
        assert len(api.all_plans()) == 16


@pytest.fixture(scope="module")
def sssp_run():
    """One finished sssp run: its outcome and dumped lines."""
    from repro.algorithms import sssp
    from repro.graphs.generators import chain_graph
    from repro.graphs.io import write_graph_to_dfs
    from repro.hyracks.engine import HyracksCluster
    from repro.pregelix import PregelixDriver

    with HyracksCluster(num_nodes=2) as cluster:
        write_graph_to_dfs(cluster.dfs, "/in", iter(chain_graph(6)), num_files=2)
        driver = PregelixDriver(cluster, cluster.dfs)
        outcome = driver.run(sssp.build_job(), "/in", "/out")
        return outcome, driver.read_output("/out")


@pytest.mark.parametrize(
    "plan", all_plans(), ids=lambda plan: plan.signature().replace("/", "-")
)
def test_every_printed_spelling_parses_back(plan, sssp_run):
    """Whatever prints a plan prints the spelling ``PlanChoice.parse``
    reads, so a reported plan can be resubmitted as it stands."""
    from repro.algorithms import sssp
    from repro.chaos.differential import CellResult
    from repro.cli import main
    from repro.pregelix.multiquery import MultiQueryProgram
    from repro.serve.api import result_document

    outcome, lines = sssp_run
    job = plan.apply(sssp.build_job())
    program = MultiQueryProgram(sssp, [{"source_id": 0}], template_job=job)
    command = CellResult("sssp", plan, "roomy", None).repro_command().split()
    spellings = [
        result_document("sssp", job, outcome)["plan"],
        program.lane_document(0, "sssp", outcome, lines, lane_supersteps=1)["plan"],
        command[command.index("--plans") + 1],
    ]
    assert [PlanChoice.parse(spelling) for spelling in spellings] == [plan] * 3
    # `explain` takes no --storage flag: its job keeps sssp's B-tree.
    printed = []
    argv = ["explain", "sssp", "--nodes", "2"]
    for axis in ("join", "groupby", "connector"):
        argv += ["--" + axis, getattr(plan, axis).value]
    assert main(argv, out=printed.append) == 0
    (signature,) = [
        line[len("plan signature: "):] for line in printed
        if line.startswith("plan signature: ")
    ]
    assert PlanChoice.parse(signature) == dataclasses.replace(
        plan, storage=VertexStorage.BTREE
    )
