"""Multi-query batching bench: the ``BENCH_batch.json`` gate.

Eight SSSP point queries (different sources, same dataset) are run two
ways on the same cluster configuration:

* **solo** — eight back-to-back driver runs, each paying the full
  per-superstep join/group-by/redistribution cost alone (the serve
  layer's pre-§17 behaviour);
* **batched** — one :class:`~repro.pregelix.multiquery.MultiQueryProgram`
  run carrying all eight queries as lanes in shared supersteps.

Two regressions are guarded, for both sequential and ``--parallel 4``
execution:

* **performance** — batched throughput (queries per second) must stay
  ≥ ``min_speedup`` × solo. The default is a *break-even margin*, not a
  record of how slow a solo run once was: sharing supersteps has to beat
  running the queries back to back by more than the 25 % by which the
  benchmark (``BENCHMARK.json``) tells two times apart. A faster solo
  path lowers the ratio and is not a regression — an 8-lane run is
  dominated by the group-by of eight queries' messages, which no amount
  of per-vertex saving shrinks; how fast either side is belongs to
  ``perfbench`` (``serve_burst``), not to this ratio;
* **equivalence** — every lane's result document must be *bit-identical*
  (digest-equal) to its solo counterpart within the same (budget,
  group-by, connector) class, and identical across the two parallelism
  modes (the §13 ordering contract extended to batched runs).
"""

import time

from repro.bench.reporting import graph_driver

DEFAULT_VERTICES = 360
DEFAULT_NODES = 3
DEFAULT_SOURCES = (0, 17, 42, 99, 140, 203, 271, 333)
DEFAULT_WORKERS = (1, 4)
DEFAULT_REPEATS = 2
DEFAULT_MIN_SPEEDUP = 1.25
DEFAULT_GRAPH_SEED = 9
#: latency realism is off by default: byte-proportional sleeps charge
#: message traffic (which batching cannot amortize — the lanes' message
#: volumes add up) at the same rate as the per-superstep scan/join costs
#: batching exists to share, diluting the effect under measurement.
DEFAULT_IO_LATENCY_SCALE = 0.0


def _solo_pass(driver, sources):
    """Eight solo runs back to back; returns (elapsed, per-query docs)."""
    from repro.algorithms import sssp
    from repro.serve.api import result_document

    docs = []
    started = time.perf_counter()
    for index, source in enumerate(sources):
        job = sssp.build_job(source_id=source)
        out = "/out/solo-%d" % index
        outcome = driver.run(
            job, "/in/g", output_path=out,
            parse_line=getattr(sssp, "parse_line", None),
            format_record=getattr(sssp, "format_record", None),
        )
        docs.append(
            result_document("sssp", job, outcome,
                            results=driver.read_output(out))
        )
    elapsed = time.perf_counter() - started
    return elapsed, docs


def _batched_pass(driver, sources):
    """One multi-query run; returns (elapsed, per-lane docs)."""
    from repro.algorithms import sssp
    from repro.pregelix.multiquery import MultiQueryProgram

    program = MultiQueryProgram(
        sssp, [{"source_id": source} for source in sources]
    )
    started = time.perf_counter()
    outcome, lane_lines = program.run(driver, "/in/g", "/out/batched")
    elapsed = time.perf_counter() - started
    docs = [
        program.lane_document(lane, "sssp", outcome, lane_lines[lane])
        for lane in range(len(sources))
    ]
    return elapsed, docs


def _measure_mode(parallelism, vertices, num_nodes, sources, graph_seed,
                  repeats, io_latency_scale):
    """Best-of-``repeats`` solo and batched timings at one parallelism."""
    from repro.serve.cache import result_digest

    best_solo = best_batched = None
    solo_digests = batched_digests = None
    for _ in range(max(int(repeats), 1)):
        with graph_driver(
            num_nodes, vertices, graph_seed,
            parallelism=parallelism, io_latency_scale=io_latency_scale,
        ) as driver:
            solo_elapsed, solo_docs = _solo_pass(driver, sources)
            batched_elapsed, batched_docs = _batched_pass(driver, sources)
        run_solo = tuple(result_digest(doc) for doc in solo_docs)
        run_batched = tuple(result_digest(doc) for doc in batched_docs)
        if solo_digests is not None and (
            run_solo != solo_digests or run_batched != batched_digests
        ):
            raise AssertionError(
                "parallelism=%d produced different digests across repeats"
                % parallelism
            )
        solo_digests, batched_digests = run_solo, run_batched
        if best_solo is None or solo_elapsed < best_solo:
            best_solo = solo_elapsed
        if best_batched is None or batched_elapsed < best_batched:
            best_batched = batched_elapsed
    queries = len(sources)
    return {
        "parallelism": parallelism,
        "solo_seconds": round(best_solo, 6),
        "batched_seconds": round(best_batched, 6),
        "solo_queries_per_sec": round(queries / best_solo, 3),
        "batched_queries_per_sec": round(queries / best_batched, 3),
        "speedup": round(best_solo / best_batched, 3),
        "lanes_bit_identical_to_solo": batched_digests == solo_digests,
    }, solo_digests, batched_digests


def run_batch_bench(
    vertices=DEFAULT_VERTICES,
    num_nodes=DEFAULT_NODES,
    sources=DEFAULT_SOURCES,
    workers=DEFAULT_WORKERS,
    repeats=DEFAULT_REPEATS,
    min_speedup=DEFAULT_MIN_SPEEDUP,
    graph_seed=DEFAULT_GRAPH_SEED,
    io_latency_scale=DEFAULT_IO_LATENCY_SCALE,
):
    """Run the batch microbench at each parallelism; returns the report.

    ``report["pass"]`` is the CI verdict: every mode's lanes digest-equal
    to its solo runs, digests identical across modes (same bit-identity
    class), and every mode's batched throughput ≥ ``min_speedup`` × solo.
    """
    modes = []
    reference = None
    cross_mode_identical = True
    for parallelism in sorted(set(int(w) for w in workers)):
        mode, solo_digests, batched_digests = _measure_mode(
            parallelism, vertices, num_nodes, sources, graph_seed, repeats,
            io_latency_scale,
        )
        if reference is None:
            reference = solo_digests
        elif solo_digests != reference or batched_digests != reference:
            cross_mode_identical = False
        mode["bit_identical_across_modes"] = (
            solo_digests == reference and batched_digests == reference
        )
        modes.append(mode)
    verdict = bool(
        modes
        and cross_mode_identical
        and all(m["lanes_bit_identical_to_solo"] for m in modes)
        and all(m["speedup"] >= min_speedup for m in modes)
    )
    return {
        "benchmark": "multiquery-batch-microbench",
        "algorithm": "sssp",
        "config": {
            "queries": len(sources),
            "sources": list(sources),
            "vertices": vertices,
            "nodes": num_nodes,
            "graph_seed": graph_seed,
            "repeats": repeats,
            "min_speedup": min_speedup,
            "io_latency_scale": io_latency_scale,
            "workers": sorted(set(int(w) for w in workers)),
        },
        "modes": modes,
        "pass": verdict,
    }


def summary_lines(report):
    """Human-readable rendering of one batch-bench report."""
    config = report["config"]
    lines = [
        "multi-query batch bench (%s, %d queries, %d vertices, %d nodes):"
        % (report["algorithm"], config["queries"], config["vertices"],
           config["nodes"]),
    ]
    for mode in report["modes"]:
        lines.append(
            "  parallel-%d: solo %.3fs (%.1f q/s) vs batched %.3fs "
            "(%.1f q/s) speedup %.2fx %s"
            % (
                mode["parallelism"],
                mode["solo_seconds"],
                mode["solo_queries_per_sec"],
                mode["batched_seconds"],
                mode["batched_queries_per_sec"],
                mode["speedup"],
                "bit-identical"
                if mode["lanes_bit_identical_to_solo"]
                else "LANES DIVERGED",
            )
        )
    lines.append(
        "  verdict: %s (threshold %.2fx in every mode)"
        % ("PASS" if report["pass"] else "FAIL", config["min_speedup"])
    )
    return lines
