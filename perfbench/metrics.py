"""What the metric names in BENCHMARK.json mean to the tools.

BENCHMARK.json is the contract (names, units, directions, bounds); this
module adds the two things it cannot carry: which per-layer metrics are
**exact counts**, and which end-to-end metric each layer group should
move on which workload (the prediction written down *before* measuring,
which ``report.py`` uses to group rows and ``README.md`` tabulates).
"""

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


#: Counts that must repeat exactly for a fixed seed. They are per-repeat
#: numbers of a single-threaded run, so this holds on the batch workloads
#: (``BATCH``) only: ``serve_burst`` has worker threads and a time-bound
#: burst count.
EXACT = frozenset([
    "serde.dumps_calls", "serde.loads_calls", "serde.sizeof_calls",
    "serde.msg_bytes_per_tuple",
    "driver.vertices_processed", "driver.messages_sent",
    "driver.combined_messages", "driver.supersteps",
    "sort.tuples_in", "sort.spill_runs",
    "groupby.tuples_in", "groupby.groups_out", "groupby.combine_ratio",
    "groupby.sort_calls", "groupby.hashsort_calls", "groupby.preclustered_calls",
    "connectors.network_bytes", "connectors.network_messages",
    "connectors.partition_skew",
    "buffer_cache.pins", "buffer_cache.hit_ratio", "buffer_cache.evictions",
    "buffer_cache.writebacks",
    "storage.disk_read_bytes", "storage.disk_write_bytes",
    "btree.lookups", "btree.scan_tuples", "btree.inserts",
    "lsm.flushes", "lsm.disk_components",
    "engine.jobs_executed", "hdfs.write_bytes",
    "checkpoint.commits", "checkpoint.bytes",
])
BATCH = ("pagerank_mem", "sssp_frontier", "cc_ooc")
ALL = BATCH + ("serve_burst",)

#: Layer groups in reading order. ``prefixes`` select the group's metrics
#: from BENCHMARK.json's ``per_layer`` (first matching group wins);
#: ``moves`` is the end-to-end row the group is listed under and
#: ``where`` the workloads on which a change to the layer should move it
#: — on every other workload the prediction is *no change* (README.md has
#: the reasons).
GROUPS = [
    {"layer": "common.serde", "prefixes": ("serde.",),
     "moves": "run_s", "where": ALL},
    {"layer": "pregelix.operators", "prefixes": ("operators.", "driver.vertices",
                                                  "driver.messages", "driver.combined"),
     "moves": "superstep_mean_s", "where": BATCH},
    {"layer": "hyracks.operators.sort/groupby", "prefixes": ("sort.", "groupby."),
     "moves": "run_s", "where": BATCH},
    {"layer": "hyracks.connectors", "prefixes": ("connectors.",),
     "moves": "run_s", "where": ("pagerank_mem", "cc_ooc")},
    {"layer": "hyracks.storage.buffer_cache", "prefixes": ("buffer_cache.", "storage."),
     "moves": "run_s", "where": ("cc_ooc",)},
    {"layer": "hyracks.storage.btree", "prefixes": ("btree.",),
     "moves": "run_s", "where": ("sssp_frontier", "pagerank_mem")},
    {"layer": "hyracks.storage.lsm_btree", "prefixes": ("lsm.",),
     "moves": "run_s", "where": ("cc_ooc",)},
    {"layer": "hyracks.engine / pregelix.runtime / hdfs",
     "prefixes": ("engine.", "driver.", "hdfs."),
     "moves": "superstep_mean_s", "where": ("serve_burst", "sssp_frontier")},
    {"layer": "pregelix.checkpoint / pregelix.multiquery",
     "prefixes": ("checkpoint.", "multiquery."),
     "moves": "run_s", "where": ("serve_burst",)},
    {"layer": "serve.*", "prefixes": ("serve.", "loadgen."),
     "moves": "tail_s", "where": ("serve_burst",)},
    {"layer": "overheads", "prefixes": ("telemetry.", "trace.", "unattributed", "calibration."),
     "moves": "run_s", "where": ()},
]


def group_of(name):
    """The layer group a per-layer metric belongs to."""
    for group in GROUPS:
        if name.startswith(group["prefixes"]):
            return group
    raise KeyError("per-layer metric %r belongs to no layer group" % name)
