"""Soak: dozens of jobs across two tenants while the cluster breathes.

The serving-layer acceptance for elasticity: 60 jobs from two tenants
run to completion while the autoscaler cycles the node set between its
band's min and max — scale-ups under backlog, drains when idle, nodes
joining and retiring between batches. The bars:

* **correctness** — every result matches the sequential direct-driver
  reference for its algorithm (a cluster's partition count is fixed
  at its starting size, so scaling never perturbs a single byte);
* **no leaks** — after every batch, every resident page on every node
  is unpinned, and the persistent nodes' open paged-file count returns
  to its post-batch-one level (per-run state was dropped, handles
  closed) — a handoff that leaked pins or handles would compound here;
* **no starvation** — both tenants finish everything they submitted.

Ticks are driven manually between submission and drain phases with
*injected* observations (``tick(backlog=..., executing=...)``, the same
pattern as ``Watchdog.scan(now=...)``) so the scaling schedule is
deterministic — a tick that reads the live queue depth races the worker
threads, which may already have drained the batch it was meant to see.
The threaded path is exercised elsewhere.
"""

from repro.serve import JobService
from repro.serve.autoscale import AutoscalePolicy, Autoscaler

from tests.serve.conftest import WORKLOADS

WAIT = 240
TENANTS = ("alice", "bob")
BATCHES = 6
JOBS_PER_BATCH = 10  # 60 total, split evenly between the tenants
PERSISTENT_NODES = ("node0", "node1", "node2")


def _assert_no_pin_leaks(cluster):
    for node_id, node in cluster.nodes.items():
        pinned = [
            str(page.page_id)
            for page in node.buffer_cache._pages.values()
            if page.pin_count
        ]
        assert not pinned, "%s leaked pinned pages: %s" % (node_id, pinned)


def _handle_counts(cluster):
    return {
        node_id: len(cluster.nodes[node_id].files._paged_files)
        for node_id in PERSISTENT_NODES
        if node_id in cluster.nodes
    }


def test_soak_under_cycling_autoscaler(serve_graph, reference_results):
    service = JobService(num_nodes=3, workers=3)
    scaler = Autoscaler(
        service,
        AutoscalePolicy(3, 5, up_backlog=1, down_idle_ticks=1,
                        cooldown_ticks=0),
    )
    service.autoscaler = scaler
    algorithms = sorted(WORKLOADS)
    records = []  # (tenant, algorithm, record)
    try:
        service.add_dataset("g", vertices=serve_graph)
        service.start()
        baseline_handles = None
        for batch in range(BATCHES):
            submitted = []
            for i in range(JOBS_PER_BATCH):
                tenant = TENANTS[i % len(TENANTS)]
                algorithm = algorithms[(batch + i) % len(algorithms)]
                record = service.submit({
                    "tenant": tenant,
                    "algorithm": algorithm,
                    "dataset": "g",
                    "params": dict(WORKLOADS[algorithm]),
                    "use_cache": False,
                })
                submitted.append((tenant, algorithm, record))
            # Backlog is deep (10 submissions, 3 workers): grow the
            # cluster while the batch runs. The observation is injected —
            # the submissions above ARE the backlog this tick saw.
            scaler.tick(backlog=JOBS_PER_BATCH, executing=0)
            for tenant, algorithm, record in submitted:
                state = record.wait(WAIT)
                assert state is not None and state.value == "succeeded", (
                    "batch %d: %s job %s ended %r (%s)"
                    % (batch, tenant, record.job_id, state, record.error)
                )
            records.extend(submitted)
            # The batch drained (every record.wait returned): these ticks
            # observed an idle service, shrinking back to min_nodes.
            for _ in range(4):
                scaler.tick(backlog=0, executing=0)
            _assert_no_pin_leaks(service.cluster)
            handles = _handle_counts(service.cluster)
            if baseline_handles is None:
                baseline_handles = handles
            else:
                assert handles == baseline_handles, (
                    "paged-file handles grew across batches: %r -> %r"
                    % (baseline_handles, handles)
                )

        assert len(records) == BATCHES * JOBS_PER_BATCH
        # The cluster actually breathed.
        assert scaler.scale_ups >= BATCHES - 1
        assert scaler.scale_downs >= BATCHES - 1
        assert len(service.cluster.schedulable_node_ids()) == 3
        assert service.cluster.retired_nodes  # joined nodes also left
        # No tenant starved: every submission from both tenants finished.
        finished = {tenant: 0 for tenant in TENANTS}
        for tenant, algorithm, record in records:
            assert sorted(record.result["results"]) == list(
                reference_results[algorithm]
            ), "%s %s diverged from the sequential reference" % (
                tenant, algorithm,
            )
            finished[tenant] += 1
        assert finished["alice"] == finished["bob"] == len(records) // 2
        # Membership events made it to telemetry for the whole soak.
        scale_events = service.telemetry.events.snapshot(name="cluster.scale")
        assert any(e.args["action"] == "add" for e in scale_events)
        assert any(e.args["action"] == "retire" for e in scale_events)
    finally:
        service.shutdown(timeout=WAIT)
