"""Per-layer microbenches: the same public functions the tracer wraps,
called directly on small fixed inputs.

Each microbench reports nanoseconds per operation (or per tuple) as the
median of :data:`ROUNDS` rounds. They do not depend on the workload and
carry no regression bound: they are the layer rows a later optimisation
should move *together with* an end-to-end row.
"""

import os
import statistics
import time
import types

ROUNDS = 3
TUPLES = 4000    # operations per round; ``smoke`` divides every size by 10


def _ns_per(op_count, body):
    """Median over rounds of ``body()`` wall time, in ns per operation."""
    samples = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        body()
        samples.append((time.perf_counter() - started) * 1e9 / op_count)
    return statistics.median(samples)


def _messages(count):
    """``count`` messages to ``count // 8`` distinct destinations."""
    return [((i * 7919) % (count // 8), 0.5 + i) for i in range(count)]


def _sum_aggregator():
    from repro.common import serde
    from repro.hyracks.operators.groupby import GroupAggregator

    class SumAggregator(GroupAggregator):
        def create(self):
            return 0.0

        def step(self, state, item):
            return state + item[1]

        def merge(self, left, right):
            return left + right

        def finish(self, key, state):
            return (key, state)

        def state_serde(self):
            return serde.FLOAT64

    return SumAggregator()


def serde_benches(tuples=TUPLES):
    from repro.common import serde
    from repro.pregelix.types import vertex_value_serde

    vertex_codec = vertex_value_serde(serde.FLOAT64, serde.FLOAT64)
    vertex = (False, 1.5, [(i, 1.0) for i in range(9)])
    msg_codec = serde.TupleSerde(serde.INT64, serde.FLOAT64)
    msg = (12345, 0.25)

    def roundtrip(codec, value):
        def body():
            for _ in range(tuples):
                codec.loads(codec.dumps(value))
        return body

    def sizeof():
        for _ in range(tuples):
            msg_codec.sizeof(msg)

    return {
        "serde.vertex_tuple_roundtrip_ns": _ns_per(tuples, roundtrip(vertex_codec, vertex)),
        "serde.msg_tuple_roundtrip_ns": _ns_per(tuples, roundtrip(msg_codec, msg)),
        "serde.sizeof_ns": _ns_per(tuples, sizeof),
    }


def sort_groupby_benches(scratch, tuples=TUPLES):
    from repro.common import serde
    from repro.common.serde import encode_key
    from repro.hyracks.operators.groupby import (
        HashSortGroupByOperator,
        PreclusteredGroupByOperator,
        SortGroupByOperator,
    )
    from repro.hyracks.operators.sort import ExternalSortOperator
    from repro.hyracks.storage.file_manager import FileManager

    files = FileManager(os.path.join(scratch, "sort"))
    ctx = types.SimpleNamespace(files=files)
    tuple_serde = serde.TupleSerde(serde.INT64, serde.FLOAT64)
    messages = _messages(tuples)
    clustered = sorted((encode_key(vid), value) for vid, value in messages)

    def key_fn(item):
        return encode_key(item[0])

    def drain(make_stream):
        def body():
            for _ in make_stream():
                pass
        return body

    def sort_with(limit):
        operator = ExternalSortOperator(key_fn, tuple_serde, memory_limit_bytes=limit)
        return drain(lambda: operator.sorted_stream(ctx, messages))

    sort_groupby = SortGroupByOperator(key_fn, _sum_aggregator(), tuple_serde)
    hashsort = HashSortGroupByOperator(key_fn, _sum_aggregator())
    preclustered = PreclusteredGroupByOperator(lambda item: item[0], _sum_aggregator())
    try:
        return {
            "sort.mem_ns_per_tuple": _ns_per(tuples, sort_with(64 << 20)),
            "sort.spill_ns_per_tuple": _ns_per(tuples, sort_with(tuples * 4)),
            "groupby.sort_ns_per_tuple": _ns_per(
                tuples, drain(lambda: sort_groupby.grouped_stream(ctx, messages))
            ),
            "groupby.hashsort_ns_per_tuple": _ns_per(
                tuples, drain(lambda: hashsort.grouped_stream(ctx, messages))
            ),
            "groupby.preclustered_ns_per_tuple": _ns_per(
                tuples, drain(lambda: preclustered.grouped_stream(clustered))
            ),
        }
    finally:
        files.close()


def connector_benches(tuples=TUPLES):
    from repro.common import serde
    from repro.common.serde import decode_key, encode_key
    from repro.hyracks.connectors import (
        MToNPartitioningConnector,
        MToNPartitioningMergingConnector,
    )
    from repro.hyracks.engine import JobContext

    partitions = 4
    combined_serde = serde.TupleSerde(serde.BYTES, serde.FLOAT64)
    per_sender = tuples // partitions
    senders = [
        sorted((encode_key((i * 31 + s) % 100000), 1.0) for i in range(per_sender))
        for s in range(partitions)
    ]

    def partition_fn(vid, n):
        return hash(vid) % n

    def key_fn(item):
        return decode_key(item[0])

    unmerged = MToNPartitioningConnector(key_fn, combined_serde, partition_fn)
    merged = MToNPartitioningMergingConnector(
        key_fn, sort_key_fn=lambda item: item[0], tuple_serde=combined_serde,
        partition_fn=partition_fn,
    )
    ctx = JobContext("perfbench-micro")
    return {
        "connectors.route_unmerged_ns_per_tuple": _ns_per(
            tuples, lambda: unmerged.route(senders, partitions, ctx)
        ),
        "connectors.route_merged_ns_per_tuple": _ns_per(
            tuples, lambda: merged.route(senders, partitions, ctx)
        ),
    }


def storage_benches(scratch, tuples=TUPLES):
    from repro.common.serde import encode_key
    from repro.hyracks.storage.btree import BTree
    from repro.hyracks.storage.buffer_cache import BufferCache
    from repro.hyracks.storage.file_manager import FileManager
    from repro.hyracks.storage.lsm_btree import LSMBTree
    from repro.hyracks.storage.pages import PageKind

    page_size = 4096
    files = FileManager(os.path.join(scratch, "storage"))
    results = {}
    try:
        # pin/unpin on a cache that holds every page, then on one that
        # holds 4 of 64 cyclically scanned pages (LRU: every pin misses).
        for name, capacity_pages in (("pin_hit_ns", 128), ("pin_miss_ns", 4)):
            cache = BufferCache(capacity_pages * page_size, page_size, files)
            file_id = cache.create_file()
            page_ids = []
            for _ in range(64):
                page = cache.new_page(file_id, PageKind.LEAF)
                page_ids.append(page.page_id)
                cache.unpin(page, dirty=True)
            pins = tuples // 2

            def pin_unpin(cache=cache, page_ids=page_ids, pins=pins):
                for i in range(pins):
                    cache.unpin(cache.pin(page_ids[i % 64]))

            pin_unpin()  # settle: flush the pages new_page left dirty
            results["buffer_cache." + name] = _ns_per(pins, pin_unpin)
            cache.delete_file(file_id)

        keys = tuples
        value = b"v" * 150
        pairs = [(encode_key(i), value) for i in range(keys)]
        probe_keys = [encode_key((i * 7919) % keys) for i in range(keys)]
        cache = BufferCache(64 << 20, page_size, files)

        loaded = []

        def bulk_load():
            tree = BTree(cache)
            tree.bulk_load(iter(pairs))
            loaded.append(tree)

        results["btree.bulk_load_ns_per_tuple"] = _ns_per(keys, bulk_load)
        tree = loaded[0]

        def lookups(index):
            def body():
                for key in probe_keys:
                    index.lookup(key)
            return body

        def scan(index):
            def body():
                for _ in index.scan():
                    pass
            return body

        results["btree.lookup_ns"] = _ns_per(keys, lookups(tree))
        results["btree.scan_ns_per_tuple"] = _ns_per(keys, scan(tree))

        lsm = LSMBTree(cache, memory_budget_bytes=64 << 10, name="micro-lsm")

        def lsm_inserts():
            for key in probe_keys:
                lsm.insert(key, value)

        results["lsm.insert_ns"] = _ns_per(keys, lsm_inserts)
        results["lsm.lookup_ns"] = _ns_per(keys, lookups(lsm))
        results["lsm.scan_ns_per_tuple"] = _ns_per(keys, scan(lsm))
        return results
    finally:
        files.close()


def serve_benches(scratch, tuples=TUPLES):
    from repro.serve.journal import open_journal
    from repro.serve.queue import FairShareQueue

    journal = open_journal("file:" + os.path.join(scratch, "micro-journal", "journal.wal"))
    request = {"tenant": "t", "algorithm": "sssp", "dataset": "demo",
               "params": {"source_id": 1}}
    appends = tuples // 100

    def append():
        for i in range(appends):
            journal.append("submitted", "job-%06d" % i, request=request)

    queue = FairShareQueue(aging_rate=1.0)

    def push_pop():
        for i in range(tuples):
            queue.push("tenant-%d" % (i % 3), i)
        for _ in range(tuples):
            queue.pop(timeout=0)

    return {
        "serve.journal.append_ns": _ns_per(appends, append),
        "serve.queue.push_pop_ns": _ns_per(tuples, push_pop),
    }


def telemetry_overhead(seed, vertices=1200, pairs=3):
    """``run_s`` with ``Telemetry(enabled=True)`` over ``enabled=False`` on
    a small pagerank_mem, through the cluster's public ``telemetry=``
    parameter; alternating pairs, median ratio."""
    from perfbench import batch, workloads
    from repro.telemetry import Telemetry

    spec = workloads.resolve("pagerank_mem")
    spec["vertices"] = vertices
    graph = batch.generate(spec, seed)
    case = batch.reference_case(spec)
    batch.run_repeat(spec, graph, case)  # warm-up
    ratios = []
    for _ in range(pairs):
        off = batch.run_repeat(spec, graph, case, telemetry=Telemetry(enabled=False))
        on = batch.run_repeat(spec, graph, case, telemetry=Telemetry(enabled=True))
        ratios.append(on["run_s"] / off["run_s"])
    return statistics.median(ratios)


def run_all(scratch, seed, smoke=False):
    """Every microbench metric, keyed by its BENCHMARK.json name."""
    tuples = TUPLES // 10 if smoke else TUPLES
    metrics = {}
    metrics.update(serde_benches(tuples))
    metrics.update(sort_groupby_benches(scratch, tuples))
    metrics.update(connector_benches(tuples))
    metrics.update(storage_benches(scratch, tuples))
    metrics.update(serve_benches(scratch, tuples))
    metrics["telemetry.overhead_ratio"] = (
        telemetry_overhead(seed, vertices=150, pairs=1) if smoke
        else telemetry_overhead(seed)
    )
    return metrics
