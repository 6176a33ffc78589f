"""The ``serve_burst`` workload: closed-loop bursts over the real HTTP tier.

The untraced run drives ``python -m repro.cli serve`` as a **subprocess**
(what a user deploys); the traced run hosts ``JobService`` +
``ServeHTTPServer`` inside the benchmark process, because the timing
wrappers cannot cross a process boundary.

Load shape (see README for the rejected alternatives): one client sends a
burst of ``burst_size`` sssp point queries, waits for the whole burst,
fetches the results, then sends the next burst. Every
``repeat_every``-th query repeats a source of an *earlier* burst, so the
result cache is hit. While waiting, the client polls only the oldest
outstanding job, one GET per ``poll_tick``.
"""

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

from perfbench import calibrate, trace

TERMINAL = ("succeeded", "failed", "cancelled")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def program_env(scratch):
    """Environment of a ``repro`` child process: this checkout's program,
    temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["TMPDIR"] = scratch
    return env


def peak_rss_mb(pid="self"):
    """``VmHWM`` of a process in MB."""
    with open("/proc/%s/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %s" % pid)


# ----------------------------------------------------------------------
# the two ways of hosting the service
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` as a child process; ``setup_s`` is spawn → the
    "serving on" line."""

    def __init__(self, spec, journal_dir, scratch):
        command = [
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--port", "0",
            "--nodes", str(spec["nodes"]),
            "--workers", str(spec["workers"]),
            "--demo-dataset", str(spec["vertices"]),
            "--journal", journal_dir,
            "--batch-max", str(spec["batch_max"]),
            "--batch-window", str(spec["batch_window"]),
            "--result-cache", str(spec["result_cache"]),
        ]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=program_env(scratch), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port = None
        lines = []
        for line in self.process.stdout:
            lines.append(line)
            if line.startswith("serving on"):
                self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
                break
        self.setup_s = time.perf_counter() - started
        if self.port is None:
            self.stop()
            raise RuntimeError("repro serve did not start:\n" + "".join(lines))

    def stop(self):
        """Ctrl-C (drain and stop); kill if it does not end in time."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class InProcessServer:
    """The same service configuration hosted in this process (traced run)."""

    def __init__(self, spec, journal_dir):
        from repro.graphs.generators import btc_graph
        from repro.serve import JobService, ServeHTTPServer

        self.service = JobService(
            num_nodes=spec["nodes"], workers=spec["workers"], parallelism=1,
            result_cache_capacity=spec["result_cache"],
            journal="file:%s" % os.path.abspath(journal_dir),
            batch_max=spec["batch_max"], batch_window=spec["batch_window"],
        )
        self.service.add_dataset(
            "demo",
            vertices=list(btc_graph(spec["vertices"], seed=spec["dataset_seed"])),
        )
        self.service.recover()
        self.service.start()
        self.http = ServeHTTPServer(self.service, host="127.0.0.1", port=0)
        self.port = self.http.start()[1]

    def stop(self):
        self.http.close()
        self.service.shutdown(drain=True, timeout=30)


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
class Client:
    """One keep-alive connection; records submit and poll round trips."""

    def __init__(self, port):
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        self.submit_s = []
        self.poll_s = []

    def request(self, method, path, body=None, timings=None):
        payload = headers = None
        if body is not None:
            payload = json.dumps(body)
            headers = {"Content-Type": "application/json"}
        started = time.perf_counter()
        self.connection.request(method, path, body=payload, headers=headers or {})
        response = self.connection.getresponse()
        data = response.read()
        if timings is not None:
            timings.append(time.perf_counter() - started)
        return response.status, json.loads(data)

    def close(self):
        self.connection.close()


class SourcePicker:
    """Seeded source ids: fresh ones from a shuffled permutation, repeats
    drawn from the sources of earlier bursts."""

    def __init__(self, spec, seed):
        self.rng = random.Random(seed)
        self.spec = spec
        self.fresh = list(range(spec["vertices"]))
        self.rng.shuffle(self.fresh)
        self.next_fresh = 0
        self.earlier = []

    def burst(self):
        sources = []
        every = self.spec["repeat_every"]
        for position in range(self.spec["burst_size"]):
            if self.earlier and position % every == every - 1:
                sources.append(self.rng.choice(self.earlier))
            else:
                sources.append(self.fresh[self.next_fresh % len(self.fresh)])
                self.next_fresh += 1
        self.earlier.extend(sources)
        return sources


def run_bursts(client, spec, seed, seconds, calibrated=False):
    """Send bursts until ``seconds`` have passed. Returns per-query
    records, per-burst seconds and per-cycle seconds (a cycle is a burst
    plus fetching its results: the closed loop's period).

    With ``calibrated`` every cycle sits between two calibration kernels
    (run while the service is idle) and every returned time is in
    calibrated seconds."""
    picker = SourcePicker(spec, seed)
    queries = []
    burst_s = []
    cycle_s = []
    kernel_before = calibrate.kernel_s() if calibrated else None
    loop_started = time.perf_counter()
    while (len(burst_s) < spec["min_bursts"]
           or time.perf_counter() - loop_started < seconds):
        burst_started = time.perf_counter()
        burst = []
        for source in picker.burst():
            query = {"source": source, "submitted": time.perf_counter(),
                     "job_id": None, "doc": None, "result": None, "error": None}
            status, doc = client.request(
                "POST", "/jobs",
                {"tenant": "perfbench", "algorithm": "sssp", "dataset": "demo",
                 "params": {"source_id": source}},
                timings=client.submit_s,
            )
            if status == 202:
                query["job_id"] = doc["job_id"]
            else:
                query["error"] = "submit answered %d: %s" % (status, doc)
            burst.append(query)
        outstanding = [q for q in burst if q["job_id"]]
        deadline = burst_started + spec["query_timeout"]
        while outstanding:
            time.sleep(spec["poll_tick"])
            oldest = outstanding[0]
            _status, doc = client.request(
                "GET", "/jobs/" + oldest["job_id"], timings=client.poll_s
            )
            if doc.get("state") in TERMINAL:
                oldest["latency_s"] = time.perf_counter() - oldest["submitted"]
                oldest["doc"] = doc
                outstanding.pop(0)
            elif time.perf_counter() > deadline:
                for query in outstanding:
                    query["error"] = "timed out after %.0fs" % spec["query_timeout"]
                break
        burst_seconds = time.perf_counter() - burst_started
        for query in burst:
            if query["doc"] and query["doc"]["state"] == "succeeded":
                status, result = client.request("GET", "/jobs/%s/result" % query["job_id"])
                if status == 200:
                    query["result"] = result
                else:
                    query["error"] = "result answered %d" % status
        cycle_seconds = time.perf_counter() - burst_started
        factor = 1.0
        if calibrated:
            kernel_after = calibrate.kernel_s()
            factor = calibrate.factor(kernel_before, kernel_after)
            kernel_before = kernel_after
        burst_s.append(burst_seconds * factor)
        cycle_s.append(cycle_seconds * factor)
        for query in burst:
            query["factor"] = factor
            if "latency_s" in query:
                query["latency_s"] *= factor
        queries.extend(burst)
    return queries, burst_s, cycle_s


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def verify(spec, queries):
    """Count failed queries: rejected, not succeeded, timed out, a wrong
    answer against the Dijkstra reference, or a cache hit whose digest
    differs from the fresh run of the same source."""
    from repro.chaos.reference import algorithm_case
    from repro.graphs.generators import btc_graph

    vertices = list(btc_graph(spec["vertices"], seed=spec["dataset_seed"]))
    expected = {}
    fresh_digest = {}
    problems = []
    failed = 0
    for query in queries:
        source = query["source"]
        problem = query["error"]
        if problem is None and query["doc"]["state"] != "succeeded":
            problem = "job %s ended %s" % (query["job_id"], query["doc"]["state"])
        if problem is None and query["result"] is None:
            problem = "job %s has no result" % query["job_id"]
        if problem is None:
            case = algorithm_case("sssp", source_id=source)
            if source not in expected:
                expected[source] = case.reference(vertices)
            try:
                got = case.parse_values(query["result"]["results"])
                mismatches = case.compare(got, expected[source])
            except ValueError as error:
                mismatches = ["unparseable result line: %s" % error]
            if mismatches:
                problem = mismatches[0]
        if problem is None:
            result_digest = query["doc"]["result_digest"]
            known = fresh_digest.setdefault(source, result_digest)
            if result_digest != known:
                problem = "source %d: digest %s differs from the first run's %s" % (
                    source, result_digest, known
                )
        if problem is not None:
            failed += 1
            problems.append(problem)
    return failed, problems


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _superstep_mean_s(queries):
    """Mean superstep seconds over the distinct dataflow runs behind the
    executed (not cache-served) queries. (A mean, not a median: runs carry
    1 to 8 lanes depending on arrival timing, and the median hops between
    those modes.)"""
    runs = {}
    for query in queries:
        result = query["result"]
        if not result or result.get("cache_hit"):
            continue
        batch = result.get("batch")
        run_id = batch["run_id"] if batch else result["run_id"]
        supersteps = batch["batched_supersteps"] if batch else result["supersteps"]
        iterating = (
            result["total_seconds"] - result["load_seconds"] - result["dump_seconds"]
        )
        if supersteps:
            runs[run_id] = iterating / supersteps * query["factor"]
    return statistics.fmean(runs.values())


def _end_to_end(spec, queries, burst_s, cycle_s):
    latencies = [q["latency_s"] for q in queries if "latency_s" in q]
    return {
        "run_s": burst_s,
        "tail_s": [statistics.quantiles(latencies, n=20)[-1]],  # p95
        "throughput_per_s": [spec["burst_size"] / seconds for seconds in cycle_s],
        "superstep_mean_s": [_superstep_mean_s(queries)],
    }


def measure(spec, seed, seconds, scratch):
    """The untraced run: ``setups`` timed server spawns, the last of which
    serves the closed loop for ``seconds``; all times in calibrated
    seconds (see :mod:`perfbench.calibrate`)."""
    setup_s = []
    kernel_before = calibrate.kernel_s()
    for attempt in range(spec["setups"]):
        server = ServerProcess(
            spec, os.path.join(scratch, "journal-%d" % attempt), scratch
        )
        kernel_after = calibrate.kernel_s()
        setup_s.append(server.setup_s * calibrate.factor(kernel_before, kernel_after))
        kernel_before = kernel_after
        if attempt < spec["setups"] - 1:
            server.stop()
    try:
        client = Client(server.port)
        try:
            queries, burst_s, cycle_s = run_bursts(
                client, spec, seed, seconds, calibrated=True
            )
        finally:
            client.close()
        rss_mb = peak_rss_mb(server.process.pid)
    finally:
        server.stop()
    samples = _end_to_end(spec, queries, burst_s, cycle_s)
    samples["setup_s"] = setup_s
    failed, problems = verify(spec, queries)
    return samples, rss_mb, len(queries), failed, problems


def measure_traced(spec, seed, seconds, scratch, out_dir):
    """The traced run: half the window against an untraced subprocess
    (client-side, ``/stats`` and job-document numbers), half against the
    in-process service under the tracer (wrapper numbers)."""
    metrics = {}
    journal_dir = os.path.join(scratch, "journal-plain")
    server = ServerProcess(spec, journal_dir, scratch)
    try:
        client = Client(server.port)
        cpu_started = time.process_time()
        try:
            queries, burst_s, cycle_s = run_bursts(client, spec, seed, seconds / 2)
            cpu_share = (time.process_time() - cpu_started) / sum(cycle_s)
            _status, stats = client.request("GET", "/stats")
        finally:
            client.close()
    finally:
        server.stop()
    failed, problems = verify(spec, queries)
    plain = _end_to_end(spec, queries, burst_s, cycle_s)
    metrics.update(_document_metrics(queries, stats))
    metrics["serve.http.submit_p50_s"] = statistics.median(client.submit_s)
    metrics["serve.http.poll_p50_s"] = statistics.median(client.poll_s)
    metrics["loadgen.poll_requests"] = len(client.poll_s) / len(queries)
    metrics["loadgen.cpu_share"] = cpu_share
    metrics["serve.recover_s"] = _recover_seconds(spec, journal_dir, scratch)
    metrics["calibration.kernel_s"] = statistics.median(
        calibrate.kernel_s() for _ in range(3)
    )

    tracer = trace.Tracer(spec["name"])
    hosted = InProcessServer(spec, os.path.join(scratch, "journal-traced"))
    try:
        client = Client(hosted.port)
        try:
            with tracer:
                traced_queries, traced_burst_s, traced_cycle_s = run_bursts(
                    client, spec, seed, seconds / 2
                )
        finally:
            client.close()
    finally:
        hosted.stop()
    traced_failed, traced_problems = verify(spec, traced_queries)
    trace.write(out_dir, spec["name"], tracer.records())
    metrics.update(trace.layer_metrics([tracer.summary()]))
    traced = _end_to_end(spec, traced_queries, traced_burst_s, traced_cycle_s)
    metrics["trace.run_s"] = statistics.median(traced["run_s"])
    metrics["trace.overhead_ratio"] = (
        metrics["trace.run_s"] / statistics.median(plain["run_s"])
    )
    return (
        metrics,
        len(queries) + len(traced_queries),
        failed + traced_failed,
        problems + traced_problems,
    )


def _document_metrics(queries, stats):
    """Per-layer numbers from job documents' ``spans`` and ``/stats``."""
    def p50(span):
        values = [
            q["doc"]["spans"][span] for q in queries
            if q["doc"] and q["doc"]["spans"].get(span) is not None
        ]
        return statistics.median(values) if values else 0.0

    executed = [
        q["result"] for q in queries if q["result"] and not q["result"]["cache_hit"]
    ]
    run_ids = {
        (r["batch"]["run_id"] if r.get("batch") else r["run_id"]) for r in executed
    }
    batch = stats.get("batch", {})
    cache = stats.get("result_cache", {})
    journal = stats.get("journal", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "serve.queue_wait_p50_s": p50("queue_wait_seconds"),
        "serve.run_p50_s": p50("run_seconds"),
        "serve.fanout_p50_s": p50("fanout_seconds"),
        "serve.batch_size_mean": (
            batch["batched_jobs"] / batch["formed"] if batch.get("formed") else 0.0
        ),
        "serve.result_cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.journal.append_avg_s": journal.get("avg_append_seconds") or 0.0,
        "serve.journal.bytes_per_job": (
            journal.get("bytes", 0) / stats["jobs_total"] if stats.get("jobs_total") else 0.0
        ),
        "multiquery.lanes_per_run": len(executed) / len(run_ids) if run_ids else 0.0,
        "engine.jobs_executed": stats.get("jobs_executed", 0),
    }


def _recover_seconds(spec, journal_dir, scratch):
    """Wall time of ``repro serve recover`` over the run's journal."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "recover",
         "--journal", journal_dir, "--nodes", str(spec["nodes"]),
         "--workers", str(spec["workers"]),
         "--demo-dataset", str(spec["vertices"])],
        env=program_env(scratch), check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - started
