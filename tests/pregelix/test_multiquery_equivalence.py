"""Seeded equivalence harness for multi-query superstep sharing.

Every batched lane must produce a result document whose digest equals
the digest of a solo run of the same query — across random graphs,
random batch compositions (duplicate queries allowed) and all four
group-by × connector plan classes.
"""

import json
import random

import pytest

from repro.algorithms import bfs_spanning_tree, reachability, sssp
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.pregelix.api import ConnectorPolicy, DefaultListCombiner, GroupByStrategy
from repro.pregelix.multiquery import (
    MultiQueryCombiner,
    MultiQueryError,
    MultiQueryProgram,
    lane_column_serde,
    lane_message_serde,
)
from repro.common import serde
from repro.serve.api import result_document
from repro.serve.cache import DIGEST_FIELDS, result_digest

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
    return cluster, PregelixDriver(cluster, cluster.dfs)


def _load(driver, vertices):
    write_graph_to_dfs(driver.dfs, "/in", iter(vertices), num_files=3)


def _apply_plan(job, plan):
    if plan is not None:
        job.groupby_strategy, job.connector_policy = plan
    return job


def _solo_digest(tmp_path, vertices, module, name, params, plan=None,
                 tag="solo"):
    doc = _solo_document(tmp_path, vertices, module, name, params, plan, tag)
    return result_digest(doc), doc["supersteps"]


def _solo_document(tmp_path, vertices, module, name, params, plan=None,
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
    return doc


def _batched_digests(tmp_path, vertices, module, name, param_sets, plan=None,
                     tag="batch"):
    docs = _batched_documents(
        tmp_path, vertices, module, name, param_sets, plan, tag
    )
    return [(result_digest(doc), doc["supersteps"]) for doc in docs]


def _batched_documents(tmp_path, vertices, module, name, param_sets, plan=None,
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
    return docs


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


@pytest.mark.parametrize("lanes", [1, 3, 6])
def test_lane_documents_are_the_solo_documents_byte_for_byte(tmp_path, lanes):
    """Each lane's lines — a vertex's edge text formatted once for all
    of its lanes — and every other digest field are the solo run's,
    byte for byte and in the same order."""
    vertices = list(btc_graph(48, seed=17))
    sources = (0, 11, 11, 23, 35, 47)[:lanes]
    batched = _batched_documents(
        tmp_path, vertices, sssp, "sssp", [{"source_id": s} for s in sources]
    )
    for lane, source in enumerate(sources):
        solo = _solo_document(
            tmp_path, vertices, sssp, "sssp", {"source_id": source},
            tag="solo-%d" % lane,
        )
        for name in DIGEST_FIELDS:
            assert json.dumps(batched[lane][name]) == json.dumps(solo[name]), (
                "lane %d of %d: %s differs from solo" % (lane, lanes, name)
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
    vector_serde = lane_column_serde(serde.FLOAT64, 4)
    vector = ((False, None), (True, 2.5), (True, None), (False, 0.0))
    encoded = vector_serde.dumps(vector)
    assert vector_serde.loads(encoded) == vector
    assert vector_serde.sizeof(vector) == len(encoded) == 4 * (1 + 1 + 8)

    pair_serde = lane_message_serde(serde.FLOAT64)
    encoded = pair_serde.dumps((7, 1.25))
    assert pair_serde.loads(encoded) == (7, 1.25)
    assert pair_serde.sizeof((7, 1.25)) == len(encoded) == 9

    bundle_serde = MultiQueryCombiner(
        sssp.build_job().combiner, serde.FLOAT64, 8
    ).bundle_serde(None)
    bundle = (-1.0, None, None, 0.5, None, None, None, 9.75)
    encoded = bundle_serde.dumps(bundle)
    assert bundle_serde.loads(encoded) == bundle
    assert bundle_serde.sizeof(bundle) == len(encoded) == 8 * (1 + 8)


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
    # Lanes are fixed-width vectors: a value, message or bundle codec
    # without one width is refused before anything runs.
    for field, codec in [
        ("value_serde", serde.STRING),
        ("value_serde", serde.TupleSerde(serde.INT64, serde.INT64)),
        ("msg_serde", serde.ListSerde(serde.FLOAT64)),
    ]:
        job = sssp.build_job()
        setattr(job, field, codec)
        with pytest.raises(MultiQueryError, match="not fixed-width"):
            MultiQueryProgram(sssp, [{"source_id": 0}], template_job=job)
    job = sssp.build_job()
    job.combiner = DefaultListCombiner()
    with pytest.raises(MultiQueryError, match="not fixed-width"):
        MultiQueryProgram(sssp, [{"source_id": 0}], template_job=job)
