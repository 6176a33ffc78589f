"""The three batch workloads: set up a fresh cluster, run one job, verify.

One *repeat* builds a fresh ``HyracksCluster`` + ``MiniDFS``, writes the
generated graph (``setup_s``), runs ``driver.run(job, input,
output_path=...)`` (``run_s``: load + supersteps + dump), reads the
output back and checks it against ``repro.chaos.reference``. A fresh
cluster per repeat keeps repeats independent (buffer-cache counters are
per run) and gives ``setup_s`` one sample per repeat.
"""

import hashlib
import statistics
import time

from perfbench import calibrate, trace
from perfbench.workloads import graph_seed


def generate(spec, seed):
    """The workload's input graph, materialized once per invocation."""
    from repro.graphs.generators import btc_graph

    return list(btc_graph(spec["vertices"], seed=graph_seed(seed, spec["name"])))


def reference_case(spec):
    from repro.chaos.reference import algorithm_case

    return algorithm_case(spec["algorithm"], **spec["params"])


def build_job(spec):
    """The job through the algorithm module's own ``build_job``, with the
    table's plan overrides applied."""
    from repro.algorithms import connected_components, pagerank, sssp
    from repro.pregelix.api import ConnectorPolicy, VertexStorage

    module = {"pagerank": pagerank, "sssp": sssp, "cc": connected_components}[
        spec["algorithm"]
    ]
    overrides = dict(spec["plan"])
    if "vertex_storage" in overrides:
        overrides["vertex_storage"] = VertexStorage[overrides["vertex_storage"]]
    if "connector_policy" in overrides:
        overrides["connector_policy"] = ConnectorPolicy[overrides["connector_policy"]]
    return module.build_job(**spec["params"], **overrides)


def verify(case, expected, lines):
    """Problems with one repeat's dumped output (empty list = correct)."""
    try:
        got = case.parse_values(lines)
    except ValueError as error:
        return ["unparseable output line: %s" % error]
    return case.compare(got, expected)


def digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def run_repeat(spec, vertices, case, telemetry=None, tracer=None):
    """One repeat; returns its timings, public result numbers and output."""
    from repro.graphs.io import write_graph_to_dfs
    from repro.hdfs import MiniDFS
    from repro.hyracks.engine import HyracksCluster
    from repro.pregelix.runtime import PregelixDriver

    setup_started = time.perf_counter()
    cluster = HyracksCluster(
        num_nodes=spec["nodes"], parallelism=1, io_latency_scale=0.0,
        telemetry=telemetry, **spec["cluster"]
    )
    try:
        dfs = MiniDFS(datanodes=cluster.node_ids())
        write_graph_to_dfs(dfs, "/in/g", iter(vertices), num_files=spec["nodes"])
        setup_s = time.perf_counter() - setup_started

        driver = PregelixDriver(cluster, dfs)
        job = build_job(spec)
        if tracer is not None:
            tracer.install()
        cpu_started = time.process_time()
        run_started = time.perf_counter()
        try:
            outcome = driver.run(
                job, "/in/g", output_path="/out/r",
                parse_line=case.parse_line, format_record=case.format_record,
            )
            run_s = time.perf_counter() - run_started
            cpu_s = time.process_time() - cpu_started
        finally:
            if tracer is not None:
                tracer.uninstall()
        lines = driver.read_output("/out/r")
        layers = _public_numbers(cluster, outcome, run_s, cpu_s)
    finally:
        cluster.close()
    supersteps = outcome.stats.supersteps
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "superstep_mean_s": sum(s.elapsed for s in supersteps) / len(supersteps),
        "tail_s": max(s.elapsed for s in supersteps),
        "lines": lines,
        "layers": layers,
    }


def _public_numbers(cluster, outcome, run_s, cpu_s):
    """Per-layer numbers read from public result objects only."""
    stats = outcome.stats
    supersteps = stats.supersteps
    operator_s = stats.total_operator_seconds

    def seconds(match):
        return sum(value for name, value in operator_s.items() if match(name))

    cache = {"hits": 0, "misses": 0, "evictions": 0, "writebacks": 0}
    disk_read = disk_write = 0
    for node in cluster.nodes.values():
        for name, value in node.buffer_cache.stats.snapshot().items():
            cache[name] += value
        disk_read += node.io.disk_read_bytes
        disk_write += node.io.disk_write_bytes
    pins = cache["hits"] + cache["misses"]
    messages = sum(s.messages_sent for s in supersteps)
    network_bytes = sum(s.network_bytes for s in supersteps)
    network_messages = sum(s.network_messages for s in supersteps)
    execute_s = sum(s.elapsed for s in supersteps)
    return {
        "operators.compute_s": seconds(lambda n: n.startswith("Compute(")),
        "operators.groupby_sender_s": seconds(lambda n: n.startswith("Sender")),
        "operators.groupby_receiver_s": seconds(lambda n: n.startswith("Receiver")),
        "operators.join_s": seconds(
            lambda n: "OuterJoin" in n or n in ("MergeChoose", "VidScan")
        ),
        "operators.msg_write_s": seconds(lambda n: n == "MsgWrite"),
        "operators.vid_bulkload_s": seconds(lambda n: n.startswith("IndexBulkLoad(vid:")),
        "driver.vertices_processed": sum(s.vertices_processed for s in supersteps),
        "driver.messages_sent": messages,
        "driver.combined_messages": sum(s.combined_messages for s in supersteps),
        "driver.supersteps": outcome.supersteps,
        "driver.load_s": outcome.load_seconds,
        "driver.dump_s": outcome.dump_seconds,
        "driver.superstep_overhead_s": (
            run_s - outcome.load_seconds - outcome.dump_seconds - execute_s
        ),
        "driver.cpu_s": cpu_s,
        "connectors.network_bytes": network_bytes,
        "connectors.network_messages": network_messages,
        "serde.msg_bytes_per_tuple": (
            network_bytes / network_messages if network_messages else 0.0
        ),
        "buffer_cache.pins": pins,
        "buffer_cache.hit_ratio": cache["hits"] / pins if pins else 0.0,
        "buffer_cache.evictions": cache["evictions"],
        "buffer_cache.writebacks": cache["writebacks"],
        "storage.disk_read_bytes": disk_read,
        "storage.disk_write_bytes": disk_write,
        "lsm.flushes": cluster.telemetry.registry.value("storage.lsm.flushes"),
        "engine.jobs_executed": cluster.jobs_executed,
    }


class Verifier:
    """Checks every repeat against the reference and against each other."""

    def __init__(self, spec, vertices):
        self.case = reference_case(spec)
        self.expected = self.case.reference(vertices)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._digest = None

    def check(self, lines):
        self.attempted += 1
        problems = verify(self.case, self.expected, lines)
        this = digest(lines)
        if self._digest is None:
            self._digest = this
        elif this != self._digest:
            problems.append("output differs from an earlier repeat (not bit-identical)")
        if problems:
            self.failed += 1
            self.problems.extend(problems[:5])
        return not problems


def measure(spec, seed, seconds, min_repeats=5):
    """The untraced run: one discarded warm-up, then timed repeats until
    ``seconds`` have passed (never fewer than ``min_repeats``). Every
    repeat sits between two calibration kernels; its times are reported
    in calibrated seconds (see :mod:`perfbench.calibrate`)."""
    vertices = generate(spec, seed)
    verifier = Verifier(spec, vertices)
    verifier.check(run_repeat(spec, vertices, verifier.case)["lines"])  # warm-up
    names = ("setup_s", "run_s", "superstep_mean_s", "tail_s")
    samples = {name: [] for name in names + ("throughput_per_s",)}
    kernel_before = calibrate.kernel_s()
    started = time.perf_counter()
    while len(samples["run_s"]) < min_repeats or time.perf_counter() - started < seconds:
        repeat = run_repeat(spec, vertices, verifier.case)
        kernel_after = calibrate.kernel_s()
        factor = calibrate.factor(kernel_before, kernel_after)
        kernel_before = kernel_after
        verifier.check(repeat["lines"])
        for name in names:
            samples[name].append(repeat[name] * factor)
        samples["throughput_per_s"].append(
            1.0 / ((repeat["setup_s"] + repeat["run_s"]) * factor)
        )
    return samples, verifier


def measure_traced(spec, seed, seconds, out_dir):
    """The traced run: alternate untraced and traced repeats for about
    ``seconds``; returns per-layer metrics (medians over the repeats, in
    raw seconds)."""
    vertices = generate(spec, seed)
    verifier = Verifier(spec, vertices)
    verifier.check(run_repeat(spec, vertices, verifier.case)["lines"])  # warm-up
    plain, traced, summaries, records = [], [], [], {"spans": [], "aggregated": []}
    kernels = []
    started = time.perf_counter()
    while not plain or time.perf_counter() - started < seconds:
        kernels.append(calibrate.kernel_s())
        repeat = run_repeat(spec, vertices, verifier.case)
        verifier.check(repeat.pop("lines"))
        plain.append(repeat)
        tracer = trace.Tracer(spec["name"], repeat=len(traced))
        repeat = run_repeat(spec, vertices, verifier.case, tracer=tracer)
        verifier.check(repeat.pop("lines"))
        traced.append(repeat)
        summaries.append(tracer.summary())
        for kind, rows in tracer.records().items():
            records[kind].extend(rows)
    trace.write(out_dir, spec["name"], records)

    def median(rows, pick):
        return statistics.median(pick(row) for row in rows)

    metrics = {
        name: median(plain, lambda r, n=name: r["layers"][n])
        for name in plain[0]["layers"]
    }
    metrics.update(trace.layer_metrics(summaries))
    metrics["calibration.kernel_s"] = statistics.median(kernels)
    traced_run_s = median(traced, lambda r: r["run_s"])
    metrics["trace.run_s"] = traced_run_s
    metrics["trace.overhead_ratio"] = traced_run_s / median(plain, lambda r: r["run_s"])
    metrics["unattributed_s"] = traced_run_s - sum(
        value for name, value in metrics.items() if name.endswith(".self_s")
    )
    return metrics, verifier
