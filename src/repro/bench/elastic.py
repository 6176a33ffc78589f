"""Elastic rebalance overhead: the ``BENCH_elastic.json`` gate.

Elasticity is only worth shipping if the superstep-boundary handoff is
both *cheap* and *invisible*. This harness runs one fixed PageRank
microbenchmark three ways under latency realism — static membership,
scale-up mid-run, and scale-down mid-run — and guards two regressions:

* **cost** — the wall-clock spent inside ``cluster.rebalance`` (the
  checkpoint/restore handoff, as recorded by
  ``StatisticsCollector.record_rebalance``) must stay within
  ``max_overhead`` × one average static superstep. The handoff reuses
  the durability path, so this is the claim that joining or retiring a
  node costs about one superstep of progress, not a reload;
* **determinism** — both elastic runs' dumped outputs must be
  bit-identical to the static run's. Membership changes re-derive only
  the partition→node assignment; the partition *count* and therefore
  ``hash(vertex) % num_partitions`` never move (DESIGN.md §15).

The report is written to ``BENCH_elastic.json`` and committed, seeding
the elastic benchmark trajectory next to ``BENCH_parallel.json``.
"""

import time

from repro.bench.reporting import graph_driver

DEFAULT_VERTICES = 600
DEFAULT_ITERATIONS = 6
DEFAULT_NODES = 3
DEFAULT_IO_LATENCY_SCALE = 200.0
DEFAULT_REPEATS = 2
DEFAULT_MAX_OVERHEAD = 1.0
DEFAULT_GRAPH_SEED = 3
#: Superstep boundary at which the elastic runs resize.
DEFAULT_SCALE_SUPERSTEP = 3


def _run_once(vertices, iterations, num_nodes, io_latency_scale, graph_seed,
              scale_at=None):
    """One PageRank run; returns (elapsed, lines, outcome)."""
    from repro.algorithms import pagerank

    # Over-decomposition (2 partitions per initial node) keeps the
    # partition count fixed across resizes and gives a joining node a
    # deterministic share of the data to take over.
    with graph_driver(
        num_nodes, vertices, graph_seed,
        io_latency_scale=io_latency_scale, virtual_partitions=2 * num_nodes,
    ) as driver:
        job = pagerank.build_job(iterations=iterations)
        started = time.perf_counter()
        outcome = driver.run(job, "/in/g", output_path="/out/r",
                             scale_at=scale_at)
        elapsed = time.perf_counter() - started
        lines = tuple(sorted(driver.read_output("/out/r")))
        return elapsed, lines, outcome


def _measure(vertices, iterations, num_nodes, io_latency_scale, graph_seed,
             repeats, scale_at=None):
    """Best-of-``repeats`` for one membership schedule."""
    best = None
    best_outcome = None
    lines = None
    for _ in range(max(int(repeats), 1)):
        elapsed, run_lines, outcome = _run_once(
            vertices, iterations, num_nodes, io_latency_scale, graph_seed,
            scale_at=dict(scale_at) if scale_at else None,
        )
        if lines is not None and run_lines != lines:
            raise AssertionError(
                "schedule %r produced two different outputs across repeats"
                % (scale_at,)
            )
        lines = run_lines
        if best is None or elapsed < best:
            best = elapsed
            best_outcome = outcome
    rebalances = list(getattr(best_outcome.stats, "rebalances", ()))
    return {
        "seconds": round(best, 6),
        "supersteps": best_outcome.supersteps,
        "avg_superstep_seconds": round(
            best_outcome.avg_iteration_seconds, 6
        ),
        "rebalances": [
            {"superstep": step, "seconds": round(seconds, 6),
             "moved_partitions": moved}
            for step, seconds, moved in rebalances
        ],
        "rebalance_seconds": round(
            sum(seconds for _, seconds, _ in rebalances), 6
        ),
    }, lines


def run_elastic(
    vertices=DEFAULT_VERTICES,
    iterations=DEFAULT_ITERATIONS,
    num_nodes=DEFAULT_NODES,
    io_latency_scale=DEFAULT_IO_LATENCY_SCALE,
    repeats=DEFAULT_REPEATS,
    max_overhead=DEFAULT_MAX_OVERHEAD,
    graph_seed=DEFAULT_GRAPH_SEED,
    scale_superstep=DEFAULT_SCALE_SUPERSTEP,
):
    """Static vs scale-up vs scale-down; ``report["pass"]`` is the verdict.

    Passing means: both elastic runs actually rebalanced, both stayed
    bit-identical to the static run, and each run's total handoff time
    stayed within ``max_overhead`` × the static run's average superstep.
    """
    static, reference_lines = _measure(
        vertices, iterations, num_nodes, io_latency_scale, graph_seed, repeats
    )
    budget = max_overhead * static["avg_superstep_seconds"]
    scenarios = []
    for name, target in (
        ("scale-up", num_nodes + 1),
        ("scale-down", num_nodes - 1),
    ):
        if target < 1:
            continue
        result, lines = _measure(
            vertices, iterations, num_nodes, io_latency_scale, graph_seed,
            repeats, scale_at={scale_superstep: target},
        )
        result["scenario"] = name
        result["scale_at"] = {str(scale_superstep): target}
        result["bit_identical_to_static"] = lines == reference_lines
        result["overhead_vs_superstep"] = round(
            result["rebalance_seconds"] / budget * max_overhead, 3
        ) if budget else 0.0
        result["within_budget"] = result["rebalance_seconds"] <= budget
        scenarios.append(result)
    verdict = bool(
        scenarios
        and all(r["rebalances"] for r in scenarios)
        and all(r["bit_identical_to_static"] for r in scenarios)
        and all(r["within_budget"] for r in scenarios)
    )
    return {
        "benchmark": "elastic-rebalance-microbench",
        "algorithm": "pagerank",
        "config": {
            "vertices": vertices,
            "iterations": iterations,
            "nodes": num_nodes,
            "io_latency_scale": io_latency_scale,
            "graph_seed": graph_seed,
            "repeats": repeats,
            "scale_superstep": scale_superstep,
            "max_overhead": max_overhead,
        },
        "static": static,
        "scenarios": scenarios,
        "rebalance_budget_seconds": round(budget, 6),
        "pass": verdict,
    }


def summary_lines(report):
    """Human-readable rendering of one elastic report."""
    static = report["static"]
    lines = [
        "elastic rebalance bench (%s, %d vertices, %d nodes, latency x%g):"
        % (
            report["algorithm"],
            report["config"]["vertices"],
            report["config"]["nodes"],
            report["config"]["io_latency_scale"],
        ),
        "  static: %.3fs total, %.3fs/superstep"
        % (static["seconds"], static["avg_superstep_seconds"]),
    ]
    for result in report["scenarios"]:
        lines.append(
            "  %s (to %s nodes at superstep %s): handoff %.3fs "
            "(%.2fx of one superstep) %s"
            % (
                result["scenario"],
                list(result["scale_at"].values())[0],
                list(result["scale_at"])[0],
                result["rebalance_seconds"],
                result["overhead_vs_superstep"],
                "bit-identical"
                if result["bit_identical_to_static"]
                else "OUTPUT DIVERGED",
            )
        )
    lines.append(
        "  verdict: %s (budget %.3fs = %.2fx avg superstep)"
        % (
            "PASS" if report["pass"] else "FAIL",
            report["rebalance_budget_seconds"],
            report["config"]["max_overhead"],
        )
    )
    return lines
