"""Seeded equivalence harness for multi-query superstep sharing.

Every batched lane must produce a result document whose digest equals
the digest of a solo run of the same query — across random graphs,
random batch compositions (duplicate queries allowed) and all four
group-by × connector plan classes.
"""

import random

import pytest

from repro.algorithms import bfs_spanning_tree, reachability, sssp
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hdfs import MiniDFS
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.pregelix.api import ConnectorPolicy, GroupByStrategy
from repro.pregelix.multiquery import (
    LaneMapSerde,
    LanePairSerde,
    LaneVectorSerde,
    MultiQueryError,
    MultiQueryProgram,
)
from repro.common import serde
from repro.serve.api import result_document
from repro.serve.cache import result_digest

ALGORITHMS = {
    "sssp": (sssp, lambda rng, n: {"source_id": rng.randrange(n)}),
    "reachability": (
        reachability,
        lambda rng, n: {
            "sources": tuple(
                sorted(rng.sample(range(n), rng.randint(1, 3)))
            )
        },
    ),
    "bfs-tree": (bfs_spanning_tree, lambda rng, n: {"root": rng.randrange(n)}),
}

PLAN_CLASSES = [
    (gb, cp)
    for gb in (GroupByStrategy.SORT, GroupByStrategy.HASHSORT)
    for cp in (ConnectorPolicy.UNMERGED, ConnectorPolicy.MERGED)
]


def _driver(tmp_path, tag):
    cluster = HyracksCluster(
        num_nodes=3, root_dir=str(tmp_path / ("cluster-%s" % tag))
    )
    dfs = MiniDFS(datanodes=cluster.node_ids())
    return cluster, PregelixDriver(cluster, dfs)


def _load(driver, vertices):
    write_graph_to_dfs(driver.dfs, "/in", iter(vertices), num_files=3)


def _apply_plan(job, plan):
    if plan is not None:
        job.groupby_strategy, job.connector_policy = plan
    return job


def _solo_digest(tmp_path, vertices, module, name, params, plan=None,
                 tag="solo"):
    cluster, driver = _driver(tmp_path, tag)
    try:
        _load(driver, vertices)
        job = _apply_plan(module.build_job(**params), plan)
        outcome = driver.run(
            job, "/in", "/out",
            parse_line=getattr(module, "parse_line", None),
            format_record=getattr(module, "format_record", None),
        )
        doc = result_document(
            name, job, outcome, results=driver.read_output("/out")
        )
    finally:
        cluster.close()
    return result_digest(doc), doc["supersteps"]


def _batched_digests(tmp_path, vertices, module, name, param_sets, plan=None,
                     tag="batch"):
    cluster, driver = _driver(tmp_path, tag)
    try:
        _load(driver, vertices)
        template = _apply_plan(module.build_job(**param_sets[0]), plan)
        program = MultiQueryProgram(module, param_sets, template_job=template)
        outcome, lane_lines = program.run(driver, "/in", "/out")
        docs = [
            program.lane_document(lane, name, outcome, lane_lines[lane])
            for lane in range(len(param_sets))
        ]
    finally:
        cluster.close()
    return [(result_digest(doc), doc["supersteps"]) for doc in docs]


@pytest.mark.parametrize("plan", PLAN_CLASSES,
                         ids=lambda p: "%s-%s" % (p[0].value, p[1].value))
def test_every_plan_class_is_lane_equivalent(tmp_path, plan):
    """All 4 group-by × connector combos: batched digest == solo digest."""
    vertices = list(btc_graph(48, seed=21))
    param_sets = [{"source_id": s} for s in (0, 9, 9, 30, 47)]
    batched = _batched_digests(
        tmp_path, vertices, sssp, "sssp", param_sets, plan=plan
    )
    for lane, params in enumerate(param_sets):
        solo = _solo_digest(
            tmp_path, vertices, sssp, "sssp", params, plan=plan,
            tag="solo-%d" % lane,
        )
        assert batched[lane] == solo, (
            "lane %d (%r) diverged from solo under plan %r" % (lane, params, plan)
        )


@pytest.mark.parametrize("round_seed", [101, 202, 303])
def test_random_batches_match_solo(tmp_path, round_seed):
    """Random graph, algorithm, and batch (sizes 1-8, duplicates allowed)."""
    rng = random.Random(round_seed)
    num_vertices = rng.choice([36, 48, 60])
    vertices = list(btc_graph(num_vertices, seed=rng.randrange(1000)))
    name = rng.choice(sorted(ALGORITHMS))
    module, sample = ALGORITHMS[name]
    batch_size = rng.randint(1, 8)
    param_sets = [sample(rng, num_vertices) for _ in range(batch_size)]
    if batch_size >= 2 and rng.random() < 0.7:
        # force a duplicate: two identical queries are two lanes
        param_sets[-1] = dict(param_sets[0])
    batched = _batched_digests(
        tmp_path, vertices, module, name, param_sets
    )
    solo_cache = {}
    for lane, params in enumerate(param_sets):
        key = repr(sorted(params.items()))
        if key not in solo_cache:
            solo_cache[key] = _solo_digest(
                tmp_path, vertices, module, name, params,
                tag="solo-%d" % lane,
            )
        assert batched[lane] == solo_cache[key], (
            "seed %d: lane %d of %d (%s %r) diverged from solo"
            % (round_seed, lane, batch_size, name, params)
        )


def test_full_8_lane_batch_matches_solo(tmp_path):
    """A full 8-lane batch, duplicate sources included, stays in the solo class."""
    vertices = list(btc_graph(48, seed=5))
    sources = (0, 7, 7, 13, 22, 31, 40, 47)
    param_sets = [{"source_id": s} for s in sources]
    batched = _batched_digests(tmp_path, vertices, sssp, "sssp", param_sets)
    for lane, source in enumerate(sources):
        solo = _solo_digest(
            tmp_path, vertices, sssp, "sssp", {"source_id": source},
            tag="solo-%d" % lane,
        )
        assert batched[lane] == solo, (
            "lane %d (source %d) diverged from solo" % (lane, source)
        )


def test_cancelled_lane_does_not_disturb_survivors(tmp_path):
    """Cancelling one lane mid-run leaves the other lanes bit-identical."""
    vertices = list(btc_graph(48, seed=13))
    sources = (0, 17, 33)
    cluster, driver = _driver(tmp_path, "cancel")
    try:
        _load(driver, vertices)
        program = MultiQueryProgram(
            sssp, [{"source_id": s} for s in sources]
        )

        def chain(superstep):
            if superstep == 2:
                program.control.cancel(1)

        outcome, lane_lines = program.run(
            driver, "/in", "/out", boundary_chain=chain
        )
        docs = [
            program.lane_document(lane, "sssp", outcome, lane_lines[lane])
            for lane in range(len(sources))
        ]
    finally:
        cluster.close()
    for lane in (0, 2):
        solo = _solo_digest(
            tmp_path, vertices, sssp, "sssp",
            {"source_id": sources[lane]}, tag="solo-%d" % lane,
        )
        assert (result_digest(docs[lane]), docs[lane]["supersteps"]) == solo
    # the cancelled lane froze: it ran at most up to the cancel boundary
    assert docs[1]["supersteps"] <= outcome.gs.superstep


def test_lane_serdes_round_trip():
    vector_serde = LaneVectorSerde(serde.FLOAT64)
    vector = [(False, None), (True, 2.5), (True, None), (False, 0.0)]
    encoded = vector_serde.dumps(vector)
    assert vector_serde.loads(encoded) == vector
    assert vector_serde.sizeof(vector) == len(encoded)

    pair_serde = LanePairSerde(serde.FLOAT64)
    encoded = pair_serde.dumps((7, 1.25))
    assert pair_serde.loads(encoded) == (7, 1.25)
    assert pair_serde.sizeof((7, 1.25)) == len(encoded) == 9

    map_serde = LaneMapSerde(serde.FLOAT64)
    bundle = {3: 0.5, 0: -1.0, 7: 9.75}
    encoded = map_serde.dumps(bundle)
    assert map_serde.loads(encoded) == bundle
    assert map_serde.sizeof(bundle) == len(encoded)
    # encoding is canonical regardless of dict insertion order
    assert map_serde.dumps({7: 9.75, 0: -1.0, 3: 0.5}) == encoded


def test_batch_construction_guards():
    with pytest.raises(MultiQueryError):
        MultiQueryProgram(sssp, [])
    with pytest.raises(MultiQueryError):
        MultiQueryProgram(sssp, [{"source_id": 0}] * 256)
    from repro.algorithms import pagerank

    job = pagerank.build_job()
    if job.aggregator is not None:
        with pytest.raises(MultiQueryError):
            MultiQueryProgram(pagerank, [{}], template_job=job)
