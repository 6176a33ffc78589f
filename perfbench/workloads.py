"""The one table of workload parameters (nothing here is a flag).

Every workload is CPU-bound: ``parallelism=1`` and ``io_latency_scale=0``
(ROADMAP item 1a). Graphs come from ``btc_graph(vertices, seed)``; the
graph seed derives from ``--seed`` so the program only ever sees
generated inputs.

Sizes are the issue's probed sizes cut down so that one warm-up plus at
least five timed repeats fit the run window the benchmark contract
allows on a 2-core box (the issue's rule: cut repeats first, never below
five, then N). ``smoke`` sizes exist for ``perfbench/tests`` only.
"""

KIB = 1 << 10
MIB = 1 << 20

#: name -> parameters. ``why`` is the one-line reason in BENCHMARK.json.
WORKLOADS = {
    "pagerank_mem": {
        "kind": "batch",
        "why": "dense messages, everything in memory: compute+serde, sort "
               "group-by and unmerged connector do the work, storage none",
        "algorithm": "pagerank",
        "params": {"iterations": 5},
        "vertices": 5000,
        "nodes": 4,
        # default plan: FOJ / sort group-by / unmerged connector / B-tree
        "plan": {},
        "cluster": {},
        "smoke": {"vertices": 300},
    },
    "sssp_frontier": {
        "kind": "batch",
        "why": "sparse frontier, many cheap supersteps: B-tree point "
               "lookups, left-outer join, hashsort group-by, Vid bulk-load",
        "algorithm": "sssp",
        "params": {"source_id": 0},
        "vertices": 7500,
        "nodes": 4,
        # Figure-9 plan (the sssp module's own default): LOJ / hashsort /
        # unmerged / B-tree
        "plan": {},
        "cluster": {},
        "smoke": {"vertices": 400},
    },
    "cc_ooc": {
        "kind": "batch",
        "why": "working set far larger than the buffer cache: misses, "
               "evictions, writebacks, sort spills, LSM flushes, merged "
               "connector",
        "algorithm": "cc",
        "params": {},
        "vertices": 3000,
        "nodes": 4,
        "plan": {
            "vertex_storage": "LSM_BTREE",
            "connector_policy": "MERGED",
            "groupby_memory_bytes": 16 * KIB,
        },
        "cluster": {
            "node_memory_bytes": 1 * MIB,
            "buffer_cache_bytes": 64 * KIB,
        },
        # smoke graphs are too small to spill at the full budgets
        "smoke": {
            "vertices": 400,
            "plan": {"groupby_memory_bytes": 2 * KIB},
            "cluster": {"buffer_cache_bytes": 16 * KIB},
        },
    },
    "serve_burst": {
        "kind": "serve",
        "why": "closed-loop bursts of 8 sssp point queries over HTTP, 25% "
               "repeats: http, queue, journal, batching, multiquery, "
               "result cache, forced checkpoints",
        "algorithm": "sssp",
        "vertices": 600,
        "nodes": 3,
        "workers": 2,
        "batch_max": 8,
        "batch_window": 0.05,
        "result_cache": 64,
        "burst_size": 8,
        "repeat_every": 4,      # every 4th query of a burst repeats an earlier source
        "poll_tick": 0.025,     # one GET per tick, oldest outstanding job
        "setups": 5,            # server spawns timed for setup_s
        "min_bursts": 3,
        "query_timeout": 60.0,
        #: ``repro serve --demo-dataset`` always generates with seed 3.
        "dataset_seed": 3,
        "smoke": {"vertices": 120, "setups": 1, "min_bursts": 2},
    },
}


def names():
    return list(WORKLOADS)


def resolve(name, smoke=False):
    """The workload's parameters, with its ``smoke`` overrides applied
    when asked (dict-valued parameters are merged, not replaced)."""
    spec = dict(WORKLOADS[name])
    spec["name"] = name
    overrides = spec.pop("smoke")
    if smoke:
        for key, value in overrides.items():
            spec[key] = dict(spec[key], **value) if isinstance(value, dict) else value
    return spec


def graph_seed(seed, name):
    """A per-workload graph seed derived from ``--seed`` (stable, no hash())."""
    return int(seed) * 1000 + names().index(name)
