"""One function per paper table and figure (Section 7).

Each function runs the corresponding experiment at simulation scale,
prints the paper-shaped rows/series, and returns the structured data so
benchmark assertions can check the reproduction's *shape* claims: who
fails where, who wins, where the crossovers fall.
"""

from repro.algorithms import connected_components as cc
from repro.algorithms import pagerank, sssp
from repro.bench.harness import run_pregelix, run_system
from repro.bench.reporting import print_series, print_table
from repro.graphs.datasets import DATASETS, SCALE_ORDER, graph_statistics
from repro.pregelix import JoinStrategy

ALL_SIZES = list(SCALE_ORDER)
ALL_SYSTEMS = ["pregelix", "giraph-mem", "giraph-ooc", "graphlab", "graphx", "hama"]

#: The three workloads exactly as the paper assigns them (Section 7.2).
WORKLOADS = {
    "pagerank": dict(
        family="webmap",
        build=lambda **plan: pagerank.build_job(iterations=5, **plan),
        parse_line=None,
    ),
    "sssp": dict(
        family="btc",
        build=lambda **plan: sssp.build_job(source_id=0, **plan),
        parse_line=None,
    ),
    "cc": dict(
        family="btc",
        build=cc.build_job,
        parse_line=cc.parse_line,
    ),
}


# ---------------------------------------------------------------------
# Tables 3 and 4: dataset statistics
# ---------------------------------------------------------------------
def dataset_table(env, family, out=print):
    """Rows shaped like Table 3 (webmap) / Table 4 (btc)."""
    rows = []
    for name in reversed(ALL_SIZES):  # paper lists large first
        spec, path, nbytes = env.dataset(family, name)
        from repro.graphs.io import read_graph_from_dfs

        vertices = read_graph_from_dfs(env.dfs, path)
        size, num_vertices, num_edges, avg_degree = graph_statistics(iter(vertices))
        rows.append(
            {
                "name": name,
                "size_bytes": size,
                "num_vertices": num_vertices,
                "num_edges": num_edges,
                "avg_degree": avg_degree,
                "paper_vertices": spec.paper_vertices,
                "paper_size_gb": spec.paper_size_gb,
                "paper_avg_degree": spec.avg_degree,
            }
        )
    print_table(
        "Table %s: the %s dataset ladder (simulation scale vs paper)"
        % ("3" if family == "webmap" else "4", family),
        ["Name", "Size(B)", "#Vertices", "#Edges", "AvgDeg", "Paper AvgDeg", "Paper Size(GB)"],
        [
            (
                r["name"],
                r["size_bytes"],
                r["num_vertices"],
                r["num_edges"],
                r["avg_degree"],
                r["paper_avg_degree"],
                r["paper_size_gb"],
            )
            for r in rows
        ],
        out=out,
    )
    return rows


def table3(env, out=print):
    return dataset_table(env, "webmap", out=out)


def table4(env, out=print):
    return dataset_table(env, "btc", out=out)


# ---------------------------------------------------------------------
# Figures 10 and 11: execution time / avg iteration time sweeps
# ---------------------------------------------------------------------
def run_time_sweep(env, workload, sizes=None, systems=None):
    """All measurements behind one sub-figure of Figures 10 and 11."""
    config = WORKLOADS[workload]
    sizes = sizes or ALL_SIZES
    systems = systems or ALL_SYSTEMS
    measurements = {}
    for system in systems:
        measurements[system] = []
        for size in sizes:
            m = run_system(
                env,
                system,
                config["build"](),
                config["family"],
                size,
                parse_line=config["parse_line"],
            )
            measurements[system].append(m)
    return measurements


def figures10_11(env, workload, out=print):
    """Figures 10 and 11 for ``workload``, from one run-time sweep."""
    measurements = run_time_sweep(env, workload)
    figure10(measurements, workload, out=out)
    figure11(measurements, workload, out=out)


def figure10(measurements, workload, out=print):
    """Overall execution time vs dataset/RAM ratio (one sub-figure)."""
    series = {
        system: [m.point("sim_total_seconds") for m in points]
        for system, points in measurements.items()
    }
    print_series(
        "Figure 10 (%s): overall execution time (sim seconds) vs dataset/RAM"
        % workload,
        series,
        out=out,
    )
    return series


def figure11(measurements, workload, out=print):
    """Average per-iteration time vs dataset/RAM ratio (one sub-figure)."""
    series = {
        system: [m.point("sim_avg_iteration_seconds") for m in points]
        for system, points in measurements.items()
    }
    print_series(
        "Figure 11 (%s): avg iteration time (sim seconds) vs dataset/RAM"
        % workload,
        series,
        out=out,
    )
    return series


# ---------------------------------------------------------------------
# Figure 12: scalability
# ---------------------------------------------------------------------
#: Simulated-node counts stand in for the paper's machine counts 8..32.
MACHINE_LADDER = [8, 16, 24, 32]


def figure12a(env, sizes=("x-small", "small", "medium", "large"), out=print):
    """Pregelix PageRank parallel speedup (relative avg iteration time)."""
    series = {}
    for size in sizes:
        points = []
        base = None
        for machines in MACHINE_LADDER:
            m = run_pregelix(
                env,
                pagerank.build_job(iterations=5),
                "webmap",
                size,
                paper_machines=machines,
                num_nodes=max(machines // 8, 1),
            )
            value = m.sim_avg_iteration_seconds if m.ok else float("nan")
            if base is None:
                base = value
            points.append((machines, round(value / base, 4) if m.ok else "FAIL"))
        series[size] = points
    series["ideal"] = [(m, round(MACHINE_LADDER[0] / m, 4)) for m in MACHINE_LADDER]
    print_series(
        "Figure 12(a): Pregelix PageRank speedup (relative avg iteration time)",
        series,
        out=out,
    )
    return series


def figure12b(env, out=print):
    """Speedup comparison on Webmap-X-Small across systems."""
    series = {}
    for system in ("pregelix", "giraph-mem", "graphlab", "graphx"):
        points = []
        base = None
        for machines in MACHINE_LADDER:
            m = run_system(
                env,
                system,
                pagerank.build_job(iterations=5),
                "webmap",
                "x-small",
                paper_machines=machines,
                num_nodes=max(machines // 8, 1),
            )
            if not m.ok:
                points.append((machines, "FAIL"))
                continue
            value = m.sim_avg_iteration_seconds
            if base is None:
                base = value
            points.append((machines, round(value / base, 4)))
        series[system] = points
    series["ideal"] = [(m, round(MACHINE_LADDER[0] / m, 4)) for m in MACHINE_LADDER]
    print_series(
        "Figure 12(b): PageRank speedup on Webmap-X-Small (relative avg iteration)",
        series,
        out=out,
    )
    return series


def figure12c(env, out=print):
    """Pregelix scale-up: data and machines grow proportionally.

    Uses the *connected* scale-up ladder (fresh graphs at 1x..4x) rather
    than Table 4's disjoint copy-scale-ups, so single-source work grows
    with the data.
    """
    ladder = list(zip(
        (0.25, 0.5, 0.75, 1.0),
        ("scaleup-1x", "scaleup-2x", "scaleup-3x", "scaleup-4x"),
        MACHINE_LADDER,
    ))
    series = {}
    for workload in ("pagerank", "sssp", "cc"):
        config = WORKLOADS[workload]
        points = []
        base = None
        for scale, size, machines in ladder:
            m = run_pregelix(
                env,
                config["build"](),
                "btc",
                size,
                parse_line=config["parse_line"],
                paper_machines=machines,
                num_nodes=max(machines // 8, 1),
            )
            value = m.sim_avg_iteration_seconds if m.ok else float("nan")
            if base is None:
                base = value
            points.append((scale, round(value / base, 4) if m.ok else "FAIL"))
        series[workload] = points
    series["ideal"] = [(scale, 1.0) for scale, _s, _m in ladder]
    print_series(
        "Figure 12(c): Pregelix scale-up on the BTC ladder (relative avg iteration)",
        series,
        out=out,
    )
    return series


# ---------------------------------------------------------------------
# Figure 13: throughput
# ---------------------------------------------------------------------
def figure13(env, sizes=("x-small", "small", "medium", "large"), max_jobs=3, out=print):
    """Jobs-per-hour vs number of concurrent PageRank jobs."""
    from repro.bench.throughput import baseline_concurrent_jph, concurrent_pagerank_jph

    panels = {}
    for size in sizes:
        series = {}
        points = []
        io_points = []
        for jobs in range(1, max_jobs + 1):
            jph, per_job_io = concurrent_pagerank_jph(env, size, jobs)
            points.append((jobs, round(jph, 3)))
            io_points.append((jobs, per_job_io))
        series["pregelix"] = points
        for engine in ("giraph-mem", "graphlab", "graphx", "hama"):
            engine_points = []
            for jobs in range(1, max_jobs + 1):
                jph = baseline_concurrent_jph(env, engine, size, jobs)
                engine_points.append(
                    (jobs, round(jph, 3) if jph is not None else "FAIL")
                )
            series[engine] = engine_points
        panels[size] = {"series": series, "per_job_io_bytes": io_points}
        print_series(
            "Figure 13 (webmap-%s): jobs per hour vs concurrent jobs" % size,
            series,
            out=out,
        )
    return panels


# ---------------------------------------------------------------------
# Figure 14: join plan flexibility (8-machine cluster)
# ---------------------------------------------------------------------
def figure14(env, workload, sizes=None, paper_machines=8, out=print):
    """Index full outer join vs left outer join, avg iteration time."""
    config = WORKLOADS[workload]
    sizes = sizes or ALL_SIZES
    series = {"full-outer-join": [], "left-outer-join": []}
    for size in sizes:
        for label, strategy in (
            ("full-outer-join", JoinStrategy.FULL_OUTER),
            ("left-outer-join", JoinStrategy.LEFT_OUTER),
        ):
            job = config["build"](join_strategy=strategy)
            m = run_pregelix(
                env,
                job,
                config["family"],
                size,
                parse_line=config["parse_line"],
                paper_machines=paper_machines,
                system_label=label,
            )
            series[label].append(m.point("sim_avg_iteration_seconds"))
    print_series(
        "Figure 14 (%s): FOJ vs LOJ avg iteration time, %d-machine cluster"
        % (workload, paper_machines),
        series,
        out=out,
    )
    return series


# ---------------------------------------------------------------------
# Figure 15: Pregelix-LOJ vs the other systems (SSSP on BTC)
# ---------------------------------------------------------------------
def figure15(env, paper_machines, sizes=None, out=print):
    """Pregelix left-outer-join plan vs Giraph/GraphLab/Hama on SSSP."""
    sizes = sizes or ALL_SIZES
    series = {}
    for system in ("pregelix", "giraph-mem", "graphlab", "hama"):
        # LOJ is SSSP's default plan hint.
        label = "pregelix-loj" if system == "pregelix" else system
        series[label] = [
            run_system(
                env,
                system,
                sssp.build_job(source_id=0),
                "btc",
                size,
                paper_machines=paper_machines,
                system_label=label,
            ).point("sim_avg_iteration_seconds")
            for size in sizes
        ]
    print_series(
        "Figure 15: Pregelix-LOJ vs others, SSSP on BTC, %d machines"
        % paper_machines,
        series,
        out=out,
    )
    return series


# ---------------------------------------------------------------------
# Section 7.5's connector tradeoff (tech-report Figure 9)
# ---------------------------------------------------------------------
def connector_tradeoff(env, size="x-small", machine_ladder=(4, 8, 16, 32), out=print):
    """Merging vs non-merging group-by connector across cluster sizes."""
    from repro.pregelix import ConnectorPolicy

    series = {"m-to-n-partitioning": [], "m-to-n-partitioning-merging": []}
    for machines in machine_ladder:
        for label, policy in (
            ("m-to-n-partitioning", ConnectorPolicy.UNMERGED),
            ("m-to-n-partitioning-merging", ConnectorPolicy.MERGED),
        ):
            job = pagerank.build_job(iterations=5, connector_policy=policy)
            m = run_pregelix(
                env,
                job,
                "webmap",
                size,
                paper_machines=machines,
                num_nodes=min(max(machines // 8, 1), env.num_nodes),
                system_label=label,
            )
            value = round(m.sim_avg_iteration_seconds, 4) if m.ok else "FAIL"
            series[label].append((machines, value))
    print_series(
        "Connector tradeoff (TR fig. 9): merged vs unmerged connector, PageRank",
        series,
        out=out,
    )
    return series


# ---------------------------------------------------------------------
# Section 7.6: software simplicity
# ---------------------------------------------------------------------
def section76_loc(out=print):
    """Lines-of-code comparison table."""
    from repro.bench.loc import loc_report

    report = loc_report()
    print_table(
        "Section 7.6: software simplicity (non-blank, non-comment lines)",
        ["Component", "Lines"],
        [
            ("Pregel-specific core (repro.pregelix)", report["pregelix_core"]),
            (
                "Leveraged dataflow infrastructure (repro.hyracks + hdfs + common)",
                report["leveraged_infrastructure"],
            ),
            ("(core + infrastructure) / core", report["ratio"]),
            ("paper: Pregelix core", report["paper_pregelix_core"]),
            ("paper: Giraph-core (custom-constructed)", report["paper_giraph_core"]),
            ("paper: Giraph-core / Pregelix core", report["paper_ratio"]),
        ],
        out=out,
    )
    return report
