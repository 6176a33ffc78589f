"""The two CI smokes behind ``repro serve --smoke`` / ``--smoke-restart``.

Both drive a real HTTP listener end to end through one
:class:`~repro.serve.client.ServeClient` and print one ``ok``/``FAIL``
line per check, then a ``PASS``/``FAIL`` verdict; the exit code is 0
only when every check held (:class:`_Smoke`, the check ledger). The
client is one keep-alive connection — the shape of a real polling
client, and the one on which a response split over two writes stalls
for a delayed ACK — and it times every round trip, so ``--smoke`` also
guards the transport.
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

import repro
from repro.algorithms import algorithm_module
from repro.graphs.generators import btc_graph
from repro.graphs.io import write_graph_to_dfs
from repro.hyracks.engine import HyracksCluster
from repro.pregelix import PregelixDriver
from repro.serve.admission import TenantQuota
from repro.serve.api import JobState
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.http import ServeHTTPServer
from repro.serve.service import JobService
from repro.telemetry.prometheus import parse_exposition

#: ``--smoke`` fails when the median keep-alive round trip is slower.
ROUND_TRIP_P50_BOUND = 0.020


class _Smoke:
    """The check ledger of one smoke run."""

    def __init__(self, out):
        self.out = out
        self.failures = []

    def check(self, label, ok, detail=""):
        self.out("%s %s%s" % ("ok  " if ok else "FAIL", label,
                              " (%s)" % detail if detail and not ok else ""))
        if not ok:
            self.failures.append(label)

    def verdict(self, name):
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
    smoke = _Smoke(out)
    check = smoke.check
    vertices = list(btc_graph(60, seed=3))

    # The reference: a one-shot driver run on its own cluster.
    cluster = HyracksCluster(num_nodes=3)
    try:
        write_graph_to_dfs(cluster.dfs, "/in/g", iter(vertices), num_files=3)
        module = algorithm_module("cc")
        driver = PregelixDriver(cluster, cluster.dfs)
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
    base = "http://%s:%d" % server.start()
    out("smoke service on %s" % base)
    client = ServeClient(base, args.smoke_deadline)
    http = client.json

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
        _, record = client.poll("/jobs/%s" % job_id, _terminal)
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
        # A stage clone records no span of its own here: each superstep
        # span carries its seconds per operator kind instead.
        check(
            "a superstep span times Compute",
            any(
                e.get("name", "").startswith("superstep:")
                and any(
                    kind.startswith("Compute")
                    for kind in e.get("args", {}).get("operators", {})
                )
                for e in opens
            ),
        )

        exposition = client.request("GET", "/metrics")[2].decode("utf-8")
        samples, torn = {}, ""
        try:
            samples = parse_exposition(exposition)
        except ValueError as error:
            torn = str(error)
        series = {key.split("{")[0] for key in samples}
        check("metrics exposition parses", samples and not torn, torn)
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
            value for key, value in samples.items()
            if key.startswith("serve_latency_e2e_seconds_count")
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

        # History is sampled every 0.5s; a fast smoke may beat the first
        # sample, so poll until one lands (bounded by the deadline).
        status, history = client.poll(
            "/stats/history", lambda doc: doc.get("taken"), interval=0.2
        )
        check(
            "stats history has samples",
            status == 200 and history.get("taken", 0) >= 1
            and history.get("samples"),
            "status %s: taken=%s" % (status, history.get("taken")),
        )
        status, refusal = http("GET", "/stats/history?n=-1")
        check(
            "stats history refuses a negative window",
            status == 400
            and refusal.get("error", {}).get("code") == "bad_request",
            "status %s: %s" % (status, refusal),
        )
        status, refusal = http(
            "POST", "/jobs",
            {"tenant": "alice", "algorithm": "cc", "dataset": "btc", "plan": 5},
        )
        check(
            "submit refuses a non-string plan",
            status == 400
            and refusal.get("error", {}).get("code") == "bad_request",
            "status %s: %s" % (status, refusal),
        )
        status, refusal = http(
            "POST", "/jobs",
            {"tenant": "alice", "algorithm": "sssp", "dataset": "btc",
             "params": {"source_id": 2.5}},
        )
        check(
            "submit refuses a non-integer param",
            status == 400
            and refusal.get("error", {}).get("code") == "bad_request",
            "status %s: %s" % (status, refusal),
        )

        # 5. The transport: these handlers do a millisecond of work, so a
        # keep-alive round trip that takes longer is waiting on the wire.
        p50 = statistics.median(client.round_trips)
        out("round-trip p50 %.2f ms over %d keep-alive requests"
            % (p50 * 1e3, len(client.round_trips)))
        check("round-trip p50 under %d ms" % (ROUND_TRIP_P50_BOUND * 1e3),
              p50 < ROUND_TRIP_P50_BOUND, "%.1f ms" % (p50 * 1e3))
    finally:
        client.close()
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
    smoke = _Smoke(out)
    check, deadline = smoke.check, args.smoke_deadline
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
    child_lines, bases = [], []

    def _read_child():
        for line in child.stdout:
            child_lines.append(line.rstrip("\n"))
            if line.startswith("serving on http://") and not bases:
                bases.append(line.split()[2])

    reader = threading.Thread(target=_read_child, daemon=True)
    reader.start()

    fast_request = {"tenant": "alice", "algorithm": "cc", "dataset": "demo"}
    slow_request = {
        "tenant": "alice", "algorithm": "pagerank", "dataset": "demo",
        "params": {"iterations": 200}, "use_cache": False,
    }
    try:
        waited = 0.0
        while not bases and child.poll() is None and waited < deadline:
            time.sleep(0.1)
            waited += 0.1
        check("child service came up", bool(bases),
              "child exited %s: %s" % (child.poll(), child_lines[-5:]))
        if not bases:
            return 1
        out("restart smoke: child on %s (pid %d)" % (bases[0], child.pid))
        client = ServeClient(bases[0], deadline)
        http = client.json

        # 1. One job runs to completion before the crash.
        status, record = http("POST", "/jobs", fast_request)
        check("fast job admitted", status == 202,
              "status %s: %s" % (status, record))
        finished_id = record.get("job_id")
        _, record = client.poll("/jobs/%s" % finished_id, _terminal)
        finished_digest = record.get("result_digest")
        check("fast job succeeded pre-crash",
              record.get("state") == "succeeded" and finished_digest,
              "state %s" % record.get("state"))

        # 2. A long job reaches RUNNING; then the process dies.
        status, record = http("POST", "/jobs", slow_request)
        check("slow job admitted", status == 202,
              "status %s: %s" % (status, record))
        running_id = record.get("job_id")
        _, record = client.poll(
            "/jobs/%s" % running_id,
            lambda doc: doc.get("state") == "running", interval=0.05,
        )
        check("slow job running at kill time",
              record.get("state") == "running",
              "state %s" % record.get("state"))
        os.kill(child.pid, signal.SIGKILL)
        child.wait(timeout=30)
        client.close()
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
