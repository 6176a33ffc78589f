"""The two CI smokes behind ``repro serve --smoke`` / ``--smoke-restart``.

Both drive a real HTTP listener end to end and print one ``ok``/``FAIL``
line per check, then a ``PASS``/``FAIL`` verdict; the exit code is 0
only when every check held. They share one check ledger, one JSON HTTP
client and one poll-until helper (:class:`_Smoke`). The client is one
keep-alive connection — the shape of a real polling client, and the one
on which a response split over two writes stalls for a delayed ACK —
and it times every round trip, so ``--smoke`` also guards the transport.
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from http.client import HTTPConnection
from urllib.parse import urlsplit

import repro
from repro.algorithms import algorithm_module
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hdfs import MiniDFS
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.serve.admission import TenantQuota
from repro.serve.api import JobState
from repro.serve.config import ServeConfig
from repro.serve.http import ServeHTTPServer
from repro.serve.service import JobService

#: ``--smoke`` fails when the median keep-alive round trip is slower.
ROUND_TRIP_P50_BOUND = 0.020


class _Smoke:
    """Check ledger + JSON-over-HTTP client for one smoke run."""

    def __init__(self, out, timeout):
        self.out = out
        self.timeout = timeout
        self.base = None
        self.failures = []
        self.round_trips = []
        self._connection = None

    def check(self, label, ok, detail=""):
        self.out("%s %s%s" % ("ok  " if ok else "FAIL", label,
                              " (%s)" % detail if detail and not ok else ""))
        if not ok:
            self.failures.append(label)

    def request(self, method, path, body=None):
        """One timed round trip on the keep-alive connection; returns
        ``(status, body bytes)``."""
        if self._connection is None:
            self._connection = HTTPConnection(
                urlsplit(self.base).netloc, timeout=self.timeout
            )
        started = time.perf_counter()
        self._connection.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = self._connection.getresponse()
        data = response.read()
        self.round_trips.append(time.perf_counter() - started)
        return response.status, data

    def http(self, method, path, body=None):
        status, data = self.request(method, path, body)
        return status, json.loads(data)

    def poll(self, path, done, interval=0.1):
        """GET ``path`` until ``done(document)`` or the deadline; returns
        the last ``(status, document)``."""
        deadline = time.monotonic() + self.timeout
        status, doc = self.http("GET", path)
        while not done(doc) and time.monotonic() < deadline:
            time.sleep(interval)
            status, doc = self.http("GET", path)
        return status, doc

    def verdict(self, name):
        if self._connection is not None:
            self._connection.close()
        self.out("%s: %s" % (name, "PASS" if not self.failures else
                             "FAIL (%s)" % ", ".join(self.failures)))
        return 0 if not self.failures else 1


def _terminal(record):
    return record.get("state") in ("succeeded", "failed")


def serve_smoke(args, workers, out=print):
    """The CI smoke: end-to-end HTTP serving against a direct-driver run.

    A three-node service with ``workers`` dispatchers takes three
    submissions over real HTTP — a normal job, an over-quota job
    that must produce a structured 429-style rejection (never an OOM),
    and a repeat of the first that must be served from the result cache
    — then the observability surfaces and a clean drain. The served
    results must be bit-identical to a direct
    :class:`~repro.pregelix.runtime.PregelixDriver` run of the same
    algorithm over the same graph.
    """
    smoke = _Smoke(out, args.smoke_deadline)
    check, http = smoke.check, smoke.http
    vertices = list(btc_graph(60, seed=3))

    # The reference: a one-shot driver run on its own cluster.
    cluster = HyracksCluster(num_nodes=3)
    try:
        dfs = MiniDFS(datanodes=cluster.node_ids())
        write_graph_to_dfs(dfs, "/in/g", iter(vertices), num_files=3)
        module = algorithm_module("cc")
        driver = PregelixDriver(cluster, dfs)
        driver.run(
            module.build_job(),
            "/in/g",
            output_path="/out/r",
            parse_line=getattr(module, "parse_line", None),
            format_record=getattr(module, "format_record", None),
        )
        reference = sorted(driver.read_output("/out/r"))
    finally:
        cluster.close()

    service = JobService(ServeConfig(
        num_nodes=3,
        workers=workers,
        quotas={
            "alice": TenantQuota(weight=2.0),
            # bob's memory fraction is so small every job is over budget:
            # the structured rejection path, never an engine OOM.
            "bob": TenantQuota(weight=1.0, memory_fraction=1e-9),
        },
    ))
    service.add_dataset("btc", vertices=vertices)
    service.start()
    server = ServeHTTPServer(service, host="127.0.0.1", port=0)
    smoke.base = "http://%s:%d" % server.start()
    out("smoke service on %s" % smoke.base)

    try:
        status, health = http("GET", "/healthz")
        check("healthz", status == 200 and health.get("ok") is True)

        # 1. A normal job for alice.
        status, record = http(
            "POST", "/jobs",
            {"tenant": "alice", "algorithm": "cc", "dataset": "btc"},
        )
        check("submit", status == 202 and "job_id" in record,
              "status %s: %s" % (status, record))
        job_id = record.get("job_id", "")
        _, record = smoke.poll("/jobs/%s" % job_id, _terminal)
        check("job completes", record.get("state") == "succeeded",
              "state %s" % record.get("state"))
        status, result = http("GET", "/jobs/%s/result" % job_id)
        served = sorted(result.get("results", []))
        check("served == direct driver", served == reference,
              "%d vs %d lines" % (len(served), len(reference)))
        check("result not from cache", result.get("cache_hit") is False)

        # 2. bob is over his memory quota: structured 429, no OOM. The
        # cache is bypassed — a hit would (correctly) serve for free
        # without consulting admission at all.
        status, rejection = http(
            "POST", "/jobs",
            {"tenant": "bob", "algorithm": "cc", "dataset": "btc",
             "use_cache": False},
        )
        rejection = rejection.get("error", {})
        check(
            "over-quota is a structured 429",
            status == 429 and rejection.get("code") == "over_memory"
            and "estimated_bytes" in rejection.get("details", {}),
            "status %s: %s" % (status, rejection),
        )

        # 3. The repeat must come from the result cache.
        status, repeat = http(
            "POST", "/jobs",
            {"tenant": "alice", "algorithm": "cc", "dataset": "btc"},
        )
        check(
            "repeat is a cache hit",
            status == 202 and repeat.get("cache_hit") is True
            and repeat.get("state") == "succeeded",
            "status %s: %s" % (status, repeat),
        )
        status, result = http("GET", "/jobs/%s/result" % repeat.get("job_id"))
        check(
            "cached result identical",
            sorted(result.get("results", [])) == reference,
        )
        hits = service.telemetry.registry.counter("serve.cache_hit").value
        check("serve.cache_hit metric", hits >= 1, "hits=%s" % hits)

        status, stats = http("GET", "/stats")
        check(
            "stats",
            status == 200 and stats.get("jobs", {}).get("succeeded") == 2
            and stats.get("rejected", 0) >= 1,
            json.dumps(stats.get("jobs", {})),
        )

        # 4. The observability surfaces (DESIGN.md §8): the per-job
        # trace, the Prometheus exposition, and the health history.
        status, trace = http("GET", "/jobs/%s/trace" % job_id)
        events = trace.get("traceEvents", []) if status == 200 else []
        opens = [e for e in events if e.get("ph") == "B"]
        closes = [e for e in events if e.get("ph") == "E"]
        names = {e.get("name") for e in opens}
        check(
            "job trace is well formed",
            status == 200 and opens and len(opens) == len(closes),
            "status %s: %d B vs %d E events" % (
                status, len(opens), len(closes)),
        )
        check(
            "trace has lifecycle and superstep spans",
            {"queue-wait", "run"} <= names
            and any(n.startswith("superstep:") for n in names),
            ",".join(sorted(names)),
        )

        exposition = smoke.request("GET", "/metrics")[1].decode("utf-8")
        lines = [
            line for line in exposition.splitlines()
            if line and not line.startswith("#")
        ]
        torn = [
            line for line in lines
            if " " not in line
            or line.count("{") != line.count("}")
            or (line.count('"') % 2) != 0
        ]
        series = {line.split("{")[0].split(" ")[0] for line in lines}
        check("metrics exposition parses", lines and not torn,
              "torn: %r" % torn[:3])
        check(
            "metrics has serve counters and latency histogram",
            {"serve_submitted_total", "serve_latency_e2e_seconds_bucket",
             "serve_latency_e2e_seconds_sum",
             "serve_latency_e2e_seconds_count"} <= series,
            ",".join(sorted(series)),
        )
        # /metrics and /stats read the same histogram objects, so the
        # distributions they report must agree.
        scraped_count = sum(
            float(line.rsplit(" ", 1)[1]) for line in lines
            if line.startswith("serve_latency_e2e_seconds_count")
        )
        stats_count = sum(
            tenant.get("e2e", {}).get("count", 0)
            for tenant in stats.get("latency", {}).values()
        )
        check(
            "metrics agree with /stats latency",
            stats_count and scraped_count == stats_count,
            "%s scraped vs %s in /stats" % (scraped_count, stats_count),
        )

        # The sampler ticks every 0.5s; a fast smoke may beat the first
        # tick, so poll until one lands (bounded by the deadline).
        status, history = smoke.poll(
            "/stats/history", lambda doc: doc.get("taken"), interval=0.2
        )
        check(
            "stats history has samples",
            status == 200 and history.get("taken", 0) >= 1
            and history.get("samples"),
            "status %s: taken=%s" % (status, history.get("taken")),
        )

        # 5. The transport: these handlers do a millisecond of work, so a
        # keep-alive round trip that takes longer is waiting on the wire.
        p50 = statistics.median(smoke.round_trips)
        out("round-trip p50 %.2f ms over %d keep-alive requests"
            % (p50 * 1e3, len(smoke.round_trips)))
        check("round-trip p50 under %d ms" % (ROUND_TRIP_P50_BOUND * 1e3),
              p50 < ROUND_TRIP_P50_BOUND, "%.1f ms" % (p50 * 1e3))
    finally:
        server.close()
        drained = service.shutdown(drain=True, timeout=120)
    check("drained cleanly", drained is True)
    return smoke.verdict("serve smoke")


def serve_restart_smoke(args, out=print):
    """The CI restart-recovery smoke: kill -9 a journaled service mid-job.

    Phase A starts a real child process (``repro serve --journal DIR
    --demo-dataset N``), completes one job over HTTP, gets a second job
    into RUNNING, and SIGKILLs the child — no drain, no atexit, the
    hardest crash the OS offers. Phase B builds a fresh service over the
    same journal, replays it, and proves: the finished job's result and
    digest survived (and re-submission is a cache hit, never a
    re-execution), and the interrupted job runs to completion with a
    result digest bit-identical to an uninterrupted run of the same
    request.
    """
    smoke = _Smoke(out, args.smoke_deadline)
    check, http, deadline = smoke.check, smoke.http, args.smoke_deadline
    demo_vertices = args.demo_dataset or 60
    journal_dir = tempfile.mkdtemp(prefix="repro-restart-smoke-")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    child = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "repro", "serve",
            "--port", "0", "--nodes", "3", "--workers", "1",
            "--journal", journal_dir,
            "--demo-dataset", str(demo_vertices),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        env=env, text=True,
    )
    child_lines = []

    def _read_child():
        for line in child.stdout:
            child_lines.append(line.rstrip("\n"))
            if line.startswith("serving on http://") and smoke.base is None:
                smoke.base = line.split()[2]

    reader = threading.Thread(target=_read_child, daemon=True)
    reader.start()

    fast_request = {"tenant": "alice", "algorithm": "cc", "dataset": "demo"}
    slow_request = {
        "tenant": "alice", "algorithm": "pagerank", "dataset": "demo",
        "params": {"iterations": 200}, "use_cache": False,
    }
    try:
        waited = 0.0
        while smoke.base is None and child.poll() is None and waited < deadline:
            time.sleep(0.1)
            waited += 0.1
        check("child service came up", smoke.base is not None,
              "child exited %s: %s" % (child.poll(), child_lines[-5:]))
        if smoke.base is None:
            return 1
        out("restart smoke: child on %s (pid %d)" % (smoke.base, child.pid))

        # 1. One job runs to completion before the crash.
        status, record = http("POST", "/jobs", fast_request)
        check("fast job admitted", status == 202,
              "status %s: %s" % (status, record))
        finished_id = record.get("job_id")
        _, record = smoke.poll("/jobs/%s" % finished_id, _terminal)
        finished_digest = record.get("result_digest")
        check("fast job succeeded pre-crash",
              record.get("state") == "succeeded" and finished_digest,
              "state %s" % record.get("state"))

        # 2. A long job reaches RUNNING; then the process dies.
        status, record = http("POST", "/jobs", slow_request)
        check("slow job admitted", status == 202,
              "status %s: %s" % (status, record))
        running_id = record.get("job_id")
        _, record = smoke.poll(
            "/jobs/%s" % running_id,
            lambda doc: doc.get("state") == "running", interval=0.05,
        )
        check("slow job running at kill time",
              record.get("state") == "running",
              "state %s" % record.get("state"))
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
        out("restart smoke: child killed (-9) with %s running" % running_id)

        # 3. Restart: a fresh service over the same journal.
        service = JobService(
            ServeConfig(num_nodes=3, workers=1, journal="file:%s" % journal_dir)
        )
        service.add_dataset(
            "demo", vertices=list(btc_graph(demo_vertices, seed=3))
        )
        summary = service.recover()
        out("restart smoke: replay %s" % json.dumps(summary))
        check(
            "replay saw both jobs",
            summary["finished"] >= 1
            and summary["resumed"] + summary["requeued"] >= 1,
            json.dumps(summary),
        )
        try:
            service.start()
            finished = service.get(finished_id)
            check(
                "finished job survived with its digest",
                finished is not None
                and finished.state == JobState.SUCCEEDED
                and finished.result_digest == finished_digest
                and finished.result is not None,
                "record %s" % (finished and finished.to_dict()),
            )
            # Re-submission of the finished request must be a cache hit —
            # a journaled-finished job is never re-executed.
            repeat = service.submit(dict(fast_request))
            check("finished job re-serves from cache",
                  repeat.cache_hit and repeat.result_digest == finished_digest)

            interrupted = service.get(running_id)
            check("interrupted job recovered", interrupted is not None
                  and interrupted.recovered)
            state = interrupted.wait(timeout=deadline) if interrupted else None
            check(
                "interrupted job completed after restart",
                state == JobState.SUCCEEDED,
                "state %s error %s"
                % (state, interrupted and interrupted.error),
            )

            # The recovered result must be bit-identical to an
            # uninterrupted run of the same request.
            rerun = service.submit(dict(slow_request))
            check("verification rerun completed",
                  rerun.wait(timeout=deadline) == JobState.SUCCEEDED)
            check(
                "recovered digest == uninterrupted digest",
                interrupted is not None
                and interrupted.result_digest == rerun.result_digest
                and interrupted.result_digest is not None,
                "%s vs %s" % (interrupted and interrupted.result_digest,
                              rerun.result_digest),
            )
        finally:
            service.shutdown(drain=True, timeout=deadline)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
        shutil.rmtree(journal_dir, ignore_errors=True)
    return smoke.verdict("serve restart smoke")
