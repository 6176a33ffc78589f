"""Sequential-vs-parallel perf regression: the ``BENCH_parallel.json`` seed.

The paper's scalability claims (Fig. 12) rest on the runtime actually
overlapping work across partitions. This harness keeps that honest for
the reproduction: it runs one fixed PageRank microbenchmark twice — the
historical sequential mode and the thread-pool mode — under **latency
realism** (``io_latency_scale``), where every simulated disk/network
transfer blocks for the cost model's seconds in *both* modes. Sequential
execution pays the waits serially; parallel execution overlaps them, so
the measured speedup is the same effect a real cluster's concurrent NICs
and disks produce: the worker threads overlap simulated I/O *waits*, not
CPU work.

Two regressions are guarded:

* **performance** — parallel throughput must stay ≥ ``min_speedup`` ×
  sequential on the microbench (CI fails otherwise);
* **determinism** — every parallel run's dumped output must be
  bit-identical to the sequential run's (same ``(budget, group-by,
  connector)`` class), which is the engine's ordering contract
  (DESIGN.md §13).

The report is written to ``BENCH_parallel.json`` and committed, seeding
the repo's benchmark trajectory.
"""

import time

from repro.bench.reporting import graph_driver

DEFAULT_VERTICES = 1200
DEFAULT_ITERATIONS = 4
DEFAULT_NODES = 4
DEFAULT_IO_LATENCY_SCALE = 400.0
DEFAULT_WORKERS = (2, 4)
DEFAULT_REPEATS = 2
DEFAULT_MIN_SPEEDUP = 1.5
DEFAULT_GRAPH_SEED = 3


def _run_once(parallelism, vertices, iterations, num_nodes, io_latency_scale,
              graph_seed):
    """One full PageRank run; returns (elapsed_seconds, sorted output)."""
    from repro.algorithms import pagerank

    with graph_driver(
        num_nodes, vertices, graph_seed,
        parallelism=parallelism, io_latency_scale=io_latency_scale,
    ) as driver:
        job = pagerank.build_job(iterations=iterations)
        started = time.perf_counter()
        outcome = driver.run(job, "/in/g", output_path="/out/r")
        elapsed = time.perf_counter() - started
        lines = tuple(sorted(driver.read_output("/out/r")))
        return elapsed, lines, outcome.supersteps


def _measure(parallelism, vertices, iterations, num_nodes, io_latency_scale,
             graph_seed, repeats):
    """Best-of-``repeats`` timing for one worker count."""
    best = None
    lines = None
    supersteps = 0
    for _ in range(max(int(repeats), 1)):
        elapsed, run_lines, run_supersteps = _run_once(
            parallelism, vertices, iterations, num_nodes, io_latency_scale,
            graph_seed,
        )
        if lines is not None and run_lines != lines:
            raise AssertionError(
                "parallelism=%d produced two different outputs across repeats"
                % parallelism
            )
        lines = run_lines
        supersteps = run_supersteps
        if best is None or elapsed < best:
            best = elapsed
    throughput = (vertices * max(supersteps, 1)) / best if best else 0.0
    return {
        "parallelism": parallelism,
        "seconds": round(best, 6),
        "supersteps": supersteps,
        "throughput_vertex_supersteps_per_sec": round(throughput, 3),
    }, lines


def run_regression(
    vertices=DEFAULT_VERTICES,
    iterations=DEFAULT_ITERATIONS,
    num_nodes=DEFAULT_NODES,
    io_latency_scale=DEFAULT_IO_LATENCY_SCALE,
    workers=DEFAULT_WORKERS,
    repeats=DEFAULT_REPEATS,
    min_speedup=DEFAULT_MIN_SPEEDUP,
    graph_seed=DEFAULT_GRAPH_SEED,
):
    """Run the microbench sequentially and at each worker count.

    Returns the full report dict; ``report["pass"]`` is the CI verdict —
    bit-identity everywhere AND the *highest* worker count reaching
    ``min_speedup`` × the sequential throughput.
    """
    sequential, reference_lines = _measure(
        1, vertices, iterations, num_nodes, io_latency_scale, graph_seed, repeats
    )
    parallel = []
    for count in sorted(set(int(w) for w in workers)):
        if count <= 1:
            continue
        result, lines = _measure(
            count, vertices, iterations, num_nodes, io_latency_scale,
            graph_seed, repeats,
        )
        result["speedup"] = round(sequential["seconds"] / result["seconds"], 3)
        result["bit_identical_to_sequential"] = lines == reference_lines
        parallel.append(result)
    top = parallel[-1] if parallel else None
    verdict = bool(
        parallel
        and all(r["bit_identical_to_sequential"] for r in parallel)
        and top["speedup"] >= min_speedup
    )
    return {
        "benchmark": "parallel-superstep-microbench",
        "algorithm": "pagerank",
        "config": {
            "vertices": vertices,
            "iterations": iterations,
            "nodes": num_nodes,
            "io_latency_scale": io_latency_scale,
            "graph_seed": graph_seed,
            "repeats": repeats,
            "min_speedup": min_speedup,
        },
        "sequential": sequential,
        "parallel": parallel,
        "pass": verdict,
    }


def summary_lines(report):
    """Human-readable rendering of one regression report."""
    sequential = report["sequential"]
    lines = [
        "parallel perf regression (%s, %d vertices, %d nodes, latency x%g):"
        % (
            report["algorithm"],
            report["config"]["vertices"],
            report["config"]["nodes"],
            report["config"]["io_latency_scale"],
        ),
        "  sequential: %.3fs (%.0f vertex-supersteps/s)"
        % (
            sequential["seconds"],
            sequential["throughput_vertex_supersteps_per_sec"],
        ),
    ]
    for result in report["parallel"]:
        lines.append(
            "  parallel-%d: %.3fs (%.0f vertex-supersteps/s) speedup %.2fx %s"
            % (
                result["parallelism"],
                result["seconds"],
                result["throughput_vertex_supersteps_per_sec"],
                result["speedup"],
                "bit-identical"
                if result["bit_identical_to_sequential"]
                else "OUTPUT DIVERGED",
            )
        )
    lines.append(
        "  verdict: %s (threshold %.2fx at parallel-%d)"
        % (
            "PASS" if report["pass"] else "FAIL",
            report["config"]["min_speedup"],
            report["parallel"][-1]["parallelism"] if report["parallel"] else 0,
        )
    )
    return lines
