"""Node memory decides where ``Msg`` lives, and nothing else.

A ``Msg`` partition keeps its image in memory while the node's budget
takes it and is a run file only past it; a B-tree whose pages never
leave the buffer cache has no file. So a node memory of 0 (every
``Msg`` partition on disk) and a roomy one (every partition in memory)
must give the same output and the same checkpoint blobs, byte for byte,
and a roomy run must not touch the local disk at all.
"""

import os
import random
import zlib

import pytest

from repro.chaos.reference import algorithm_case
from repro.graphs.generators import btc_graph, chain_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import JoinStrategy, PregelixDriver, VertexStorage

RUN_ID = "resident-run"
JOINS = {"foj": JoinStrategy.FULL_OUTER, "loj": JoinStrategy.LEFT_OUTER}
STORAGES = {"btree": VertexStorage.BTREE, "lsm": VertexStorage.LSM_BTREE}
#: The buffer cache both memories share: only where ``Msg`` lives differs.
CACHE_BYTES = 1 << 20


def run_keeping_checkpoints(tmp_path, memory, name, join, storage, graph, nodes):
    """Output lines, every checkpoint blob the run wrote and the bytes its
    nodes wrote to local disk, under node memory ``memory``."""
    case = algorithm_case(name)
    cluster = HyracksCluster(
        num_nodes=nodes, node_memory_bytes=memory,
        buffer_cache_bytes=CACHE_BYTES, root_dir=str(tmp_path / str(memory)),
    )
    with cluster:
        dfs = cluster.dfs
        write_graph_to_dfs(dfs, "/in/g", iter(graph), num_files=nodes)
        job = case.build_job()
        job.join_strategy, job.vertex_storage = JOINS[join], STORAGES[storage]
        job.checkpoint_interval = 1
        blobs = {}

        def keep_blobs(superstep, gs):
            for path in dfs.list_files("/pregelix/%s/ckpt" % RUN_ID):
                blobs[path] = dfs.read(path)

        driver = PregelixDriver(cluster, dfs)
        outcome = driver.run(
            job, "/in/g", output_path="/out", run_id=RUN_ID, keep_state=True,
            boundary_hook=keep_blobs, parse_line=case.parse_line,
        )
        keep_blobs(None, None)
        driver.cleanup(outcome.generator)
        written = sum(node.io.disk_write_bytes for node in cluster.nodes.values())
        return sorted(driver.read_output("/out")), blobs, written


@pytest.mark.parametrize("storage", sorted(STORAGES))
@pytest.mark.parametrize("join", sorted(JOINS))
@pytest.mark.parametrize("name", ["sssp", "cc", "pagerank"])
def test_node_memory_moves_msg_and_no_output_byte(tmp_path, name, join, storage):
    rng = random.Random(zlib.crc32(repr((name, join, storage)).encode()))
    graph = list(btc_graph(rng.randrange(30, 60), seed=rng.randrange(100)))
    nodes = rng.choice([2, 3])
    on_disk = run_keeping_checkpoints(tmp_path, 0, name, join, storage, graph, nodes)
    resident = run_keeping_checkpoints(
        tmp_path, 64 << 20, name, join, storage, graph, nodes
    )
    lines, blobs, written = on_disk
    assert lines and any("/msg-p" in path for path in blobs)
    assert resident[0] == lines
    assert resident[1] == blobs
    # Every Msg partition went through a run file only at memory 0.
    assert written > resident[2]


def test_a_roomy_run_leaves_every_node_root_as_it_was(tmp_path):
    """No file is created or removed under any node's root from the first
    superstep boundary to the last of a 4-node ``chain_graph(30)`` sssp
    run: ``Msg`` stays in memory, and neither ``Vertex`` nor ``Vid``
    leaves the buffer cache."""
    case = algorithm_case("sssp")
    with HyracksCluster(num_nodes=4, root_dir=str(tmp_path / "c")) as cluster:
        write_graph_to_dfs(cluster.dfs, "/in/g", chain_graph(30), num_files=4)
        roots = [node.files.root for node in cluster.nodes.values()]
        listings, charged = [], []

        def look(superstep, gs):
            listings.append([sorted(os.listdir(root)) for root in roots])
            charged.append(sum(n.budget.used for n in cluster.nodes.values()))

        driver = PregelixDriver(cluster, cluster.dfs)
        look(None, None)
        outcome = driver.run(
            case.build_job(), "/in/g", output_path="/out",
            parse_line=case.parse_line, boundary_hook=look,
        )
        assert outcome.gs.superstep >= 29
        assert len(listings) >= 29
        assert all(listing == listings[0] for listing in listings)
        assert all(charged[2:])  # Msg images held between supersteps
        assert sum(n.budget.used for n in cluster.nodes.values()) == 0
