"""Command-line interface: generate graphs, run jobs, regenerate figures.

Examples::

    # generate a dataset into a local directory
    python -m repro generate --family webmap --vertices 5000 --out /tmp/web

    # run a built-in algorithm over it on a 4-worker simulated cluster
    python -m repro run pagerank --input /tmp/web --output /tmp/ranks \\
        --iterations 10 --nodes 4

    # regenerate one of the paper's experiments
    python -m repro figures table3 figure14-sssp

    # the Section 7.6 lines-of-code comparison
    python -m repro loc

    # differential plan testing under seeded fault injection
    python -m repro chaos --quick
    python -m repro chaos --algorithm sssp --plans loj/hashsort/unmerged/lsm \\
        --budgets spill --fault-seed 7 --show-schedule
"""

import argparse
import dataclasses
import importlib
import os
import sys

from repro.algorithms import ALGORITHMS, algorithm_module
from repro.bench.gates import GATES, run_gate, summary_lines
from repro.common.errors import JobFailure, ReproError
from repro.pregelix.api import PlanChoice
from repro.serve.config import ServeConfig

#: ``repro figures NAME``: its renderer in :mod:`repro.bench.figures` and
#: the arguments that follow ``env``.
FIGURES = {
    "table3": ("table3",),
    "table4": ("table4",),
    "figure10-pagerank": ("figures10_11", "pagerank"),
    "figure10-sssp": ("figures10_11", "sssp"),
    "figure10-cc": ("figures10_11", "cc"),
    "figure12a": ("figure12a",),
    "figure12b": ("figure12b",),
    "figure12c": ("figure12c",),
    "figure13": ("figure13",),
    "figure14-sssp": ("figure14", "sssp"),
    "figure14-pagerank": ("figure14", "pagerank"),
    "figure14-cc": ("figure14", "cc"),
    "figure15-24": ("figure15", 24),
    "figure15-32": ("figure15", 32),
    "connector-tradeoff": ("connector_tradeoff",),
}

#: ``repro generate --family NAME``: the graph it writes, from
#: :mod:`repro.graphs.generators` and the parsed arguments.
GRAPH_FAMILIES = {
    "webmap": lambda gen, args: gen.webmap_graph(
        args.vertices, avg_out_degree=args.avg_degree or 6.0, seed=args.seed),
    "btc": lambda gen, args: gen.btc_graph(
        args.vertices, avg_degree=args.avg_degree or 8.94, seed=args.seed),
    "chain": lambda gen, args: gen.chain_graph(args.vertices),
    "paths": lambda gen, args: gen.de_bruijn_path_graph(
        max(args.vertices // 12, 1), 12, seed=args.seed),
}

#: The physical-plan hints a command line may override (PAPER.md §5): the
#: flag is ``--<axis>``, the axis a :class:`PlanChoice` field, its choices
#: the values of that field's enum.
PLAN_AXES = PlanChoice.axes()


def _flag_type(parse):
    """``parse`` with its ``ValueError`` reported by argparse as the
    reason, not as a bare "invalid value"."""
    def convert(text):
        try:
            return parse(text)
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error))
    return convert


def _at_least(low, parse=int):
    """A flag type: ``parse`` of the text, refused below the inclusive
    bound ``low`` (the ``low`` a ``ServeConfig`` field carries)."""
    def convert(text):
        value = parse(text)
        if value < low:
            raise ValueError("must be >= %s, got %r" % (low, value))
        return value
    return _flag_type(convert)


def _names_in(module, table, what):
    """A flag type for ``a,b,...``: the names as a tuple, each one of
    ``module.table`` (imported on first use, not with the parser)."""
    def convert(text):
        names = tuple(name.strip() for name in text.split(","))
        known = getattr(importlib.import_module(module), table)
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ValueError("unknown %s %s (choose from %s)" % (
                what, ", ".join(map(repr, unknown)), ", ".join(known)))
        return names
    return _flag_type(convert)


def _plan_signatures(text):
    return [PlanChoice.parse(signature.strip()) for signature in text.split(",")]


def _scale_step(spec):
    """``--scale-at SUPERSTEP=N`` as ``(superstep, nodes)``, N >= 1."""
    step, sep, target = spec.partition("=")
    try:
        if not sep:
            raise ValueError(spec)
        step, target = int(step), int(target)
    except ValueError:
        raise argparse.ArgumentTypeError("expected SUPERSTEP=N, got %r" % spec)
    if target < 1:
        raise argparse.ArgumentTypeError("N must be >= 1, got %r" % spec)
    return step, target


def _dataset_spec(spec):
    """``--dataset NAME=DIR`` as ``(name, directory)``."""
    name, sep, directory = spec.partition("=")
    if not sep or not name or not directory:
        raise argparse.ArgumentTypeError("expected NAME=DIR, got %r" % spec)
    return name, directory


def _serve_url(text):
    """``--url``: a base URL :class:`~repro.serve.client.ServeClient`
    accepts (it connects on its first request, not here)."""
    from repro.serve.client import ServeClient

    ServeClient(text, timeout=None)
    return text


def _add_plan_arguments(parser):
    for axis, kind in PLAN_AXES.items():
        parser.add_argument("--" + axis,
                            choices=[code.value for code in kind],
                            default=None,
                            help="override the job's %s hint" % axis)


def _add_session_arguments(parser):
    """The flags ``run`` and ``pipeline`` share (see :func:`_session`)."""
    parser.add_argument("--input", required=True, help="directory of part files")
    parser.add_argument("--output", help="directory for result part files")
    parser.add_argument("--nodes", type=_at_least(1), default=4)
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--source-id", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="print the machine-readable result document "
                             "(the same JSON the job service returns from "
                             "GET /jobs/<id>/result; one per job for a "
                             "pipeline) instead of prose")


def build_parser():
    # Not a module import: the parser needs only the chaos algorithm
    # table, and ``repro.chaos`` loads its matrix, injector and drill on
    # first use, so ``repro serve`` start-up pays for the table alone.
    from repro.chaos.reference import algorithm_names

    parser = argparse.ArgumentParser(
        prog="repro", description="Pregelix reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        subparser = sub.add_parser(name, help=help)
        subparser.set_defaults(handler=handler)
        return subparser

    generate = command("generate", cmd_generate, "generate a synthetic graph")
    generate.add_argument("--family", choices=list(GRAPH_FAMILIES),
                          default="webmap")
    generate.add_argument("--vertices", type=_at_least(1), default=2000)
    generate.add_argument("--avg-degree", type=float, default=None)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--files", type=_at_least(1), default=4)
    generate.add_argument("--out", required=True, help="output directory")

    run = command("run", cmd_run, "run a built-in algorithm")
    run.add_argument("algorithm", choices=sorted(ALGORITHMS))
    _add_session_arguments(run)
    run.add_argument("--input-format", choices=["adjacency", "edges"],
                     default="adjacency",
                     help="adjacency lines (vid value dst:w ...) or "
                          "edge-list lines (src dst [w])")
    _add_plan_arguments(run)
    run.add_argument("--optimize", action="store_true",
                     help="enable the cost-based plan optimizer")
    run.add_argument("--checkpoint-interval", type=_at_least(1), default=None)
    run.add_argument("--stats", action="store_true",
                     help="print the per-superstep statistics table "
                          "and the telemetry summary")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome trace_event JSON of the run "
                          "(open in Perfetto or about://tracing)")
    run.add_argument("--trace-jsonl", metavar="PATH", default=None,
                     help="dump every span/event/metric as JSON lines")
    run.add_argument("--scale-at", action="append", type=_scale_step,
                     default=None, metavar="SUPERSTEP=N",
                     help="resize the cluster to N nodes at the given "
                          "superstep boundary (repeatable); partitions "
                          "rebalance through a checkpoint/restore handoff "
                          "and the results stay bit-identical")

    pipeline = command(
        "pipeline", cmd_pipeline,
        "run a job array back to back over one resident vertex "
        "relation (paper Section 5.6)",
    )
    pipeline.add_argument(
        "algorithms", nargs="+", choices=sorted(ALGORITHMS),
        metavar="algorithm",
        help="algorithms to chain, in order (repeatable names allowed)",
    )
    _add_session_arguments(pipeline)

    serve = command(
        "serve", cmd_serve,
        "start the multi-tenant job service over HTTP (DESIGN.md §6)",
    )
    serve.add_argument(
        "action", nargs="?", choices=["recover", "top"], default=None,
        help="'recover': replay the journal, print the recovery summary, "
             "and exit without serving (requires --journal); "
             "'top': poll a running service's /stats and /stats/history "
             "and render a live operator view (see --url)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port (0 picks an ephemeral port)")
    for knob in dataclasses.fields(ServeConfig):
        spec = knob.metadata
        if spec["flag"]:
            serve.add_argument(
                spec["flag"], dest=knob.name, help=spec["help"],
                type=_flag_type(spec["type"]), metavar=spec["metavar"],
                action=spec.get("action", "store"),
            )
    serve.add_argument(
        "--dataset", action="append", type=_dataset_spec, metavar="NAME=DIR",
        help="pre-load a local part-file directory as a named dataset "
             "(repeatable)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=300, metavar="S",
        help="seconds shutdown waits for queued and in-flight jobs "
             "(default 300)",
    )
    serve.add_argument(
        "--demo-dataset", type=int, default=None, metavar="N",
        help="pre-load a generated N-vertex BTC-style graph as dataset "
             "'demo' (handy for the kill -9 recovery walkthrough)",
    )
    serve.add_argument(
        "--url", type=_flag_type(_serve_url), default=None, metavar="URL",
        help="base URL of the service to watch with 'serve top' "
             "(default http://HOST:PORT from --host/--port)",
    )
    serve.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="'serve top' refresh interval in seconds (default 2)",
    )
    serve.add_argument(
        "--count", type=int, default=0, metavar="N",
        help="'serve top' stops after N refreshes (0 = run until Ctrl-C)",
    )
    serve.add_argument(
        "--smoke", action="store_true",
        help="CI smoke: generate a small dataset, submit three jobs over "
             "HTTP (one over-quota rejection, one cache-hit repeat), "
             "compare against a direct driver run, drain, exit 0/1",
    )
    serve.add_argument(
        "--smoke-deadline", type=float, default=60, metavar="S",
        help="per-check timeout for the --smoke / --smoke-restart runs "
             "(default 60)",
    )
    serve.add_argument(
        "--smoke-restart", action="store_true",
        help="CI smoke: start a journaled child service, kill -9 it "
             "mid-job, restart over the same journal, verify every "
             "journaled job reaches a terminal state with bit-identical "
             "results, exit 0/1",
    )

    figures = command("figures", cmd_figures, "regenerate paper experiments")
    figures.add_argument("which", nargs="+", choices=list(FIGURES) + ["all"])
    figures.add_argument("--nodes", type=_at_least(1), default=4)

    explain = command(
        "explain", cmd_explain, "print the physical plans for an algorithm's job"
    )
    explain.add_argument("algorithm", choices=sorted(ALGORITHMS))
    _add_plan_arguments(explain)
    explain.add_argument("--nodes", type=_at_least(1), default=4)

    chaos = command(
        "chaos", cmd_chaos,
        "differential plan testing under seeded fault injection",
    )
    chaos.add_argument(
        "--algorithm", action="append", choices=algorithm_names(),
        default=None,
        help="algorithm(s) to check (repeatable; default: all three)",
    )
    chaos.add_argument("--vertices", type=_at_least(1), default=120,
                       help="size of the generated BTC-style test graph")
    chaos.add_argument("--graph-seed", type=int, default=3)
    chaos.add_argument("--nodes", type=_at_least(1), default=3,
                       help="simulated machines per cell")
    chaos.add_argument(
        "--plans", type=_flag_type(_plan_signatures), default=None,
        help="comma-separated plan signatures (join/groupby/connector/"
             "storage, e.g. loj/hashsort/unmerged/lsm); default: all 16",
    )
    chaos.add_argument(
        "--budgets", default=None,
        type=_names_in("repro.chaos.differential", "BUDGETS", "budget"),
        help="comma-separated memory budgets (roomy, spill); default: both",
    )
    chaos.add_argument(
        "--fault-seed", action="append", type=int, default=None,
        help="seed(s) for random fault schedules (repeatable); "
             "default: one schedule with seed 7",
    )
    chaos.add_argument(
        "--actions", default=None,
        type=_names_in("repro.chaos.faults", "FAULT_ACTIONS", "fault action"),
        help="comma-separated fault action pool for seeded schedules "
             "(interruption, io, kill, delay, transient_io, corrupt, "
             "torn_write); default: the core pool without the "
             "durability actions",
    )
    chaos.add_argument("--no-faults", action="store_true",
                       help="run only the fault-free schedule")
    chaos.add_argument("--quick", action="store_true",
                       help="CI smoke: SSSP only, 4 corner plans, both "
                            "budgets, one fault schedule")
    chaos.add_argument("--show-schedule", action="store_true",
                       help="print each seeded fault schedule before running")
    chaos.add_argument("--verbose", action="store_true",
                       help="print every cell as it completes")

    checkpoints = command(
        "checkpoints", cmd_checkpoints,
        "audit checkpoint durability: run a job, verify every manifest",
    )
    checkpoints.add_argument("action", choices=["verify"])
    checkpoints.add_argument(
        "--algorithm", choices=algorithm_names(), default="sssp"
    )
    checkpoints.add_argument("--vertices", type=_at_least(1), default=80,
                             help="size of the generated BTC-style test graph")
    checkpoints.add_argument("--graph-seed", type=int, default=3)
    checkpoints.add_argument("--nodes", type=_at_least(1), default=3)
    checkpoints.add_argument("--interval", type=_at_least(1), default=2,
                             help="checkpoint every N supersteps")
    checkpoints.add_argument("--retain", type=int, default=3,
                             help="committed checkpoint generations kept by GC")
    checkpoints.add_argument(
        "--damage", choices=["none", "corrupt", "tear"], default="none",
        help="injure the newest committed checkpoint before verifying, to "
             "prove the audit catches it (corrupt = bit flip with a stale "
             "CRC; tear = truncate to a clean prefix)",
    )

    bench = command(
        "bench", cmd_bench,
        "run one measured gate (DESIGN.md \"Gates\"); exits 1 on FAIL",
    )
    bench.add_argument("gate", choices=sorted(GATES))
    bench.add_argument("--out", default=None,
                       help="report path (JSON; default: BENCH_<gate>.json)")

    command("loc", cmd_loc, "the Section 7.6 lines-of-code comparison")
    return parser


# ---------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------
def cmd_generate(args, out=print):
    from repro.graphs import generators
    from repro.graphs.io import format_graph_line

    vertices = GRAPH_FAMILIES[args.family](generators, args)
    os.makedirs(args.out, exist_ok=True)
    handles = [
        open(os.path.join(args.out, "part-%05d" % i), "w") for i in range(args.files)
    ]
    try:
        count = 0
        for vid, value, edges in vertices:
            handles[count % args.files].write(format_graph_line(vid, value, edges) + "\n")
            count += 1
    finally:
        for handle in handles:
            handle.close()
    out("wrote %d vertices to %s (%d files)" % (count, args.out, args.files))
    return 0


def _build_job(name, args):
    """``(module, job)`` for algorithm ``name``: its ``build_job`` called
    with the parameters this command line has a flag for, under the plan
    hints its ``--join/--groupby/--connector/--storage`` flags override."""
    module = algorithm_module(name)
    job = module.build_job(**{
        param: getattr(args, param)
        for param in ALGORITHMS[name].params
        if hasattr(args, param)
    })
    overrides = {
        axis: kind(getattr(args, axis))
        for axis, kind in PLAN_AXES.items()
        if getattr(args, axis, None)
    }
    dataclasses.replace(PlanChoice.of(job), **overrides).apply(job)
    return module, job


def _session(args, execute, out, telemetry=None):
    """The session ``run`` and ``pipeline`` share: a ``--nodes`` cluster
    whose DFS holds the ``--input`` part files, ``execute(driver,
    output_path)`` (which prints its own report), then the ``--output``
    part files exported. Returns the exit status: 2 when ``--input``
    cannot be ingested, 1 when the job fails (one ``error:`` line
    each)."""
    from repro.graphs.io import export_part_files, ingest_part_files
    from repro.hyracks.engine import HyracksCluster
    from repro.pregelix import PregelixDriver

    cluster = HyracksCluster(num_nodes=args.nodes, telemetry=telemetry)
    dfs = cluster.dfs
    try:
        try:
            ingest_part_files(dfs, args.input, "/input")
        except (ReproError, OSError) as error:
            out("error: %s" % error)
            return 2
        try:
            execute(PregelixDriver(cluster, dfs),
                    "/output" if args.output else None)
        except JobFailure as error:
            out("error: %s" % error)
            return 1
        if args.output:
            export_part_files(dfs, "/output", args.output)
            if not args.json:
                out("results written to %s" % args.output)
        return 0
    finally:
        cluster.close()


def cmd_run(args, out=print):
    from repro.telemetry import (
        Telemetry, print_summary, write_chrome_trace, write_jsonl,
    )

    module, job = _build_job(args.algorithm, args)
    if args.optimize:
        job.auto_optimize = True
    if args.checkpoint_interval:
        job.checkpoint_interval = args.checkpoint_interval
    if args.input_format == "edges":
        from repro.graphs.io import parse_edge_line

        parse_line = parse_edge_line
    else:
        parse_line = getattr(module, "parse_line", None)
    # A trace file shows each stage clone as a task span; nothing else
    # reads them, so a plain run records none.
    telemetry = Telemetry(task_spans=bool(args.trace or args.trace_jsonl))

    def execute(driver, output_path):
        outcome = driver.run(
            job,
            "/input",
            output_path=output_path,
            parse_line=parse_line,
            format_record=getattr(module, "format_record", None),
            scale_at=dict(args.scale_at) if args.scale_at else None,
        )
        if args.json:
            # The same document the job service returns from
            # GET /jobs/<id>/result — one formatter, two front ends.
            import json as json_module

            from repro.serve.api import result_document

            results = driver.read_output(output_path) if output_path else None
            out(json_module.dumps(
                result_document(args.algorithm, job, outcome, results=results),
                indent=2, sort_keys=True,
            ))
            return
        out(
            "%s: %d supersteps in %.2fs (avg %.3fs); plan %s"
            % (
                args.algorithm,
                outcome.supersteps,
                outcome.total_seconds,
                outcome.avg_iteration_seconds,
                job.plan_signature(),
            )
        )
        if outcome.gs.aggregate is not None:
            out("global aggregate: %r" % (outcome.gs.aggregate,))
        if args.stats:
            outcome.stats.report(out=out)
            print_summary(telemetry, out=out)
        out(
            "vertices: %d, edges: %d, messages sent: %d"
            % (
                outcome.gs.num_vertices,
                outcome.gs.num_edges,
                outcome.stats.total_messages_sent,
            )
        )

    code = _session(args, execute, out, telemetry)
    if code:
        return code
    if args.trace:
        write_chrome_trace(telemetry, args.trace)
        out(
            "trace written to %s (open in Perfetto or about://tracing)"
            % args.trace
        )
    if args.trace_jsonl:
        count = write_jsonl(telemetry, args.trace_jsonl)
        out("%d telemetry records written to %s" % (count, args.trace_jsonl))
    return 0


def cmd_pipeline(args, out=print):
    import json as json_module

    from repro.pregelix.pipelining import run_job_array
    from repro.serve.api import result_document

    jobs = []
    parsers = {}
    formatters = {}
    for name in args.algorithms:
        module, job = _build_job(name, args)
        jobs.append(job)
        parse_line = getattr(module, "parse_line", None)
        if parse_line is not None:
            parsers[job.name] = parse_line
        format_record = getattr(module, "format_record", None)
        if format_record is not None:
            formatters[job.name] = format_record

    def execute(driver, output_path):
        segments = run_job_array(
            driver,
            jobs,
            "/input",
            output_path=output_path,
            parsers=parsers,
            formatters=formatters,
        )
        flat = [outcome for segment in segments for outcome in segment.outcomes]
        total_seconds = sum(segment.total_seconds for segment in segments)
        if args.json:
            out(json_module.dumps(
                {
                    "jobs": [
                        result_document(name, outcome.job, outcome)
                        for name, outcome in zip(args.algorithms, flat)
                    ],
                    "segments": len(segments),
                    "total_seconds": total_seconds,
                },
                indent=2, sort_keys=True,
            ))
            return
        for name, outcome in zip(args.algorithms, flat):
            out(
                "%s: %d supersteps in %.2fs (plan %s)"
                % (
                    name,
                    outcome.supersteps,
                    outcome.stats.total_elapsed,
                    outcome.job.plan_signature(),
                )
            )
        out(
            "pipeline: %d jobs in %d segment(s), %.2fs total "
            "(loaded once per segment, no HDFS round trips inside one)"
            % (len(flat), len(segments), total_seconds)
        )

    return _session(args, execute, out)


def cmd_serve(args, out=print):
    from repro.serve import JobService, ServeHTTPServer

    try:
        config = ServeConfig.from_args(args)
    except ValueError as error:
        out("error: %s" % error)
        return 2
    if args.smoke or args.smoke_restart:
        from repro.serve import smoke  # not on the server start-up path

        if args.smoke:
            return smoke.serve_smoke(args, config.workers, out=out)
        return smoke.serve_restart_smoke(args, out=out)
    if args.action == "top":
        return _serve_top(args, out=out)
    if args.action == "recover" and not args.journal:
        out("error: 'repro serve recover' requires --journal DIR")
        return 2

    service = None
    try:
        service = JobService(config)
        for name, directory in args.dataset or ():
            dataset = service.add_dataset(name, local_dir=directory)
            out(
                "dataset %s: %d bytes in %d files (digest %s)"
                % (name, dataset.nbytes, dataset.num_files, dataset.digest)
            )
        if args.demo_dataset:
            from repro.graphs.generators import btc_graph

            dataset = service.add_dataset(
                "demo", vertices=list(btc_graph(args.demo_dataset, seed=3))
            )
            out(
                "dataset demo: %d generated vertices (digest %s)"
                % (args.demo_dataset, dataset.digest)
            )
    except (ValueError, ReproError, OSError) as error:
        if service is not None:
            service.shutdown(drain=False)
        out("error: %s" % error)
        return 2
    if config.journal:
        summary = service.recover()
        out(
            "journal replay: %(jobs)d job(s) — %(finished)d finished, "
            "%(cancelled)d cancelled, %(resumed)d resumed, "
            "%(requeued)d requeued, %(skipped)d skipped"
            % summary
        )
        if summary.get("torn_bytes"):
            out(
                "journal: truncated %d torn tail byte(s)"
                % summary["torn_bytes"]
            )
    if args.action == "recover":
        # Replay-and-report only: the next `repro serve --journal` picks
        # the recovered queue up and executes it.
        service.shutdown(drain=False)
        return 0
    service.start()
    server = ServeHTTPServer(service, host=args.host, port=args.port)
    host, port = server.start()
    autoscale = config.autoscale
    out(
        "serving on http://%s:%d (%d nodes, %d workers%s; Ctrl-C to drain "
        "and stop)" % (
            host, port, config.num_nodes, config.workers,
            ", autoscale %d:%d" % (autoscale.min_nodes, autoscale.max_nodes)
            if autoscale else "",
        )
    )
    try:
        while True:
            import time

            time.sleep(3600)
    except KeyboardInterrupt:
        out("draining ...")
    finally:
        server.close()
        drained = service.shutdown(drain=True, timeout=args.drain_timeout)
        out("stopped (drained: %s)" % drained)
    return 0


_SPARK_BLOCKS = " .:-=+*#%@"


def _sparkline(values, width=30):
    """An ASCII intensity strip of the last ``width`` values."""
    values = [v for v in values if v is not None][-width:]
    if not values:
        return ""
    peak = max(values)
    if peak <= 0:
        return _SPARK_BLOCKS[0] * len(values)
    top = len(_SPARK_BLOCKS) - 1
    return "".join(
        _SPARK_BLOCKS[min(int(round(v / peak * top)), top)] for v in values
    )


def _render_top(base, stats, history):
    """The text frame ``repro serve top`` prints each refresh."""
    lines = []
    jobs = stats.get("jobs", {})
    lines.append(
        "repro serve top — %s  [%s, up %.0fs]" % (
            base, stats.get("state", "?"), stats.get("uptime_seconds", 0.0),
        )
    )
    lines.append(
        "nodes %d schedulable  queue %d  running %d  executed %d  "
        "rejected %d  shed %d" % (
            stats.get("nodes", 0),
            stats.get("queue_depth", 0),
            len(stats.get("running", ())),
            stats.get("jobs_executed", 0),
            stats.get("rejected", 0),
            stats.get("shed", 0),
        )
    )
    if jobs:
        lines.append("jobs: " + "  ".join(
            "%s %d" % (state, count) for state, count in sorted(jobs.items())
        ))
    cache = stats.get("result_cache")
    if cache:
        lookups = cache.get("hits", 0) + cache.get("misses", 0)
        ratio = cache["hits"] / lookups if lookups else 0.0
        lines.append(
            "cache: %d entries, %.0f%% hit (%d/%d)" % (
                cache.get("entries", 0), 100.0 * ratio,
                cache.get("hits", 0), lookups,
            )
        )
    journal = stats.get("journal")
    if journal:
        lines.append(
            "journal: %s appends, avg append %.1fms" % (
                journal.get("appends", "?"),
                1000.0 * (journal.get("avg_append_seconds") or 0.0),
            )
        )
    for tenant, summaries in sorted(stats.get("latency", {}).items()):
        e2e = summaries.get("e2e") or {}
        if not e2e.get("count"):
            continue
        lines.append(
            "latency %-12s e2e p50 %6.1fms  p95 %6.1fms  p99 %6.1fms  "
            "(%d jobs)" % (
                tenant or "(default)",
                1000.0 * (e2e.get("p50") or 0.0),
                1000.0 * (e2e.get("p95") or 0.0),
                1000.0 * (e2e.get("p99") or 0.0),
                e2e.get("count", 0),
            )
        )
    samples = (history or {}).get("samples") or []
    if samples:
        depths = [s.get("queue_depth") for s in samples]
        lines.append(
            "queue depth  [%s]  now %s" % (
                _sparkline(depths), depths[-1] if depths else "?",
            )
        )
        virtual = samples[-1].get("virtual_time_by_tenant") or {}
        if virtual:
            lines.append("fair share:  " + "  ".join(
                "%s vt=%.0f" % (tenant, vt)
                for tenant, vt in sorted(virtual.items())
            ))
        ratios = [s.get("cache_hit_ratio") for s in samples]
        if any(r is not None for r in ratios):
            lines.append("cache ratio  [%s]" % _sparkline(ratios))
        appends = [s.get("journal_append_seconds") for s in samples]
        if any(a is not None for a in appends):
            lines.append("journal lat  [%s]" % _sparkline(appends))
    return lines


def _serve_top(args, out=print):
    """Poll a running service and render a refreshing operator view.

    Read-only: only ``GET /stats`` and ``GET /stats/history`` are hit,
    so pointing ``top`` at a production service is always safe. With
    ``--count 0`` it refreshes until Ctrl-C.
    """
    import json as json_module
    import time

    from repro.serve.client import ServeClient

    base = (args.url or "http://%s:%d" % (args.host, args.port)).rstrip("/")
    client = ServeClient(base, timeout=10)

    def fetch(path):
        try:
            status, _headers, data = client.request("GET", path)
            # A refused section renders the frame without it.
            return json_module.loads(data) if status == 200 else None
        except (OSError, ValueError) as error:
            raise ConnectionError("%s: %s" % (base + path, error))

    rounds = 0
    try:
        while True:
            rounds += 1
            try:
                stats = fetch("/stats")
                history = fetch("/stats/history?n=120")
            except ConnectionError as error:
                out("serve top: service unreachable (%s)" % error)
                return 1
            for line in _render_top(base, stats, history):
                out(line)
            if args.count and rounds >= args.count:
                return 0
            out("")
            time.sleep(max(args.interval, 0.05))
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def cmd_figures(args, out=print):
    from repro.bench import figures as fig
    from repro.bench.harness import ExperimentEnv

    env = ExperimentEnv(num_nodes=args.nodes)
    for which in FIGURES if "all" in args.which else args.which:
        renderer, *params = FIGURES[which]
        getattr(fig, renderer)(env, *params, out=out)
    return 0


def cmd_explain(args, out=print):
    from repro.graphs.io import format_vertex_record, parse_adjacency_line
    from repro.hyracks.engine import HyracksCluster
    from repro.pregelix.physical import PartitionMap, PlanGenerator
    from repro.pregelix.types import GlobalState

    _module, job = _build_job(args.algorithm, args)
    with HyracksCluster(num_nodes=args.nodes) as cluster:
        cluster.dfs.write_text_lines("/explain-input/part-0", ["0 _ 1:1.0", "1 _"])
        partitions = PartitionMap.balanced(cluster.node_ids(), cluster.num_partitions)
        generator = PlanGenerator(job, cluster.dfs, "explain", partitions)
    out("plan signature: %s" % job.plan_signature())
    for name, plan in (
        ("loading", generator.loading_plan("/explain-input", parse_adjacency_line)),
        ("superstep", generator.superstep_plan(GlobalState())),
        ("dump", generator.dump_plan("/explain-out", format_vertex_record)),
    ):
        out("")
        out("-- %s plan --" % name)
        for line in plan.describe():
            out("  " + line)
    return 0


def cmd_chaos(args, out=print):
    from repro.chaos import (
        BUDGETS,
        DifferentialChecker,
        FaultPlan,
        algorithm_names,
        all_plans,
    )
    from repro.graphs.generators import btc_graph

    algorithms = args.algorithm or algorithm_names()
    plans = args.plans or all_plans()
    budgets = args.budgets or tuple(BUDGETS)
    fault_seeds = [None] + (args.fault_seed if args.fault_seed is not None else [7])
    if args.no_faults:
        fault_seeds = [None]
    if args.quick:
        algorithms = args.algorithm or ["sssp"]
        # The four corners of the plan space: every axis flips at least once.
        plans = [
            PlanChoice.parse(signature)
            for signature in (
                "foj/sort/unmerged/btree",
                "foj/hashsort/merged/lsm",
                "loj/sort/merged/lsm",
                "loj/hashsort/unmerged/btree",
            )
        ]

    vertices = list(btc_graph(args.vertices, seed=args.graph_seed))
    if args.show_schedule:
        node_ids = ["node%d" % i for i in range(args.nodes)]
        for seed in fault_seeds:
            if seed is None:
                continue
            for line in FaultPlan.random(
                seed, node_ids, actions=args.actions
            ).describe():
                out(line)

    failures = 0
    for algorithm in algorithms:
        checker = DifferentialChecker(
            algorithm, vertices, num_nodes=args.nodes, fault_actions=args.actions
        )
        report = checker.run_matrix(
            plans=plans,
            budgets=budgets,
            fault_seeds=fault_seeds,
            progress=(lambda line: out("  " + line)) if args.verbose else None,
        )
        if report.ok:
            out(
                "chaos %s: OK (%d cells, %d plans x %d budgets x %d schedules)"
                % (
                    algorithm,
                    len(report.cells),
                    len(plans),
                    len(budgets),
                    len(fault_seeds),
                )
            )
        else:
            failures += 1
            for line in report.summary_lines():
                out(line)
    if not args.no_faults:
        # The serve-layer sites (service.crash, journal.append): kill the
        # journaled service at every lifecycle phase, damage the WAL tail,
        # and require recovery to bit-identical results.
        from repro.chaos.serve_drill import run_serve_drill

        failures += len(run_serve_drill(out=out, verbose=args.verbose))
    return 1 if failures else 0


def cmd_checkpoints(args, out=print):
    """Run a checkpointed job, then audit every checkpoint's manifest."""
    from repro.bench.reporting import graph_driver
    from repro.chaos.reference import algorithm_case
    from repro.pregelix.checkpoint import Checkpointer

    case = algorithm_case(args.algorithm)
    with graph_driver(args.nodes, args.vertices, args.graph_seed) as driver:
        job = case.build_job()
        job.checkpoint_interval = args.interval
        job.checkpoint_retain = args.retain
        outcome = driver.run(
            job,
            "/in/g",
            output_path="/out/r",
            parse_line=case.parse_line,
            format_record=case.format_record,
            keep_state=True,
        )
        checkpointer = Checkpointer(
            outcome.generator, driver.telemetry, retain=args.retain
        )
        committed = checkpointer.committed_supersteps()
        out(
            "run %s: %d supersteps, committed checkpoints: %s"
            % (
                outcome.run_id,
                outcome.supersteps,
                ", ".join("%06d" % s for s in committed) or "none",
            )
        )
        if args.damage != "none":
            if not committed:
                out("no committed checkpoint to damage")
                return 1
            target = checkpointer.path(committed[-1], "gs")
            if args.damage == "corrupt":
                driver.dfs.corrupt(target)
            else:
                driver.dfs.tear(target)
            out("injected %s into %s" % (args.damage, target))
        failed = 0
        for superstep in checkpointer.superstep_directories():
            problems = checkpointer.verify(superstep)
            if problems:
                failed += 1
                out("checkpoint %06d: FAILED" % superstep)
                for problem in problems:
                    out("  - %s" % problem)
            else:
                out("checkpoint %06d: VERIFIED" % superstep)
        fallback = checkpointer.latest_checkpoint()
        out(
            "recovery would use: %s"
            % (
                "checkpoint %06d" % fallback
                if fallback is not None
                else "nothing (no verified checkpoint)"
            )
        )
        if args.damage != "none":
            # Success means the audit *caught* the injected damage.
            detected = failed > 0
            out("damage detection: %s" % ("OK" if detected else "MISSED"))
            return 0 if detected else 1
        return 0 if failed == 0 else 1


def cmd_bench(args, out=print):
    from repro.bench.reporting import write_report

    gate = GATES[args.gate]
    report = run_gate(gate)
    path = write_report(report, args.out or gate.default_out)
    for line in summary_lines(report):
        out(line)
    out("report written to %s" % path)
    return 0 if report["pass"] else 1


def cmd_loc(args, out=print):
    from repro.bench.figures import section76_loc

    section76_loc(out=out)
    return 0


def main(argv=None, out=print):
    args = build_parser().parse_args(argv)
    return args.handler(args, out=out)


if __name__ == "__main__":
    sys.exit(main())
