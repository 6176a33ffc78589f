"""Export sinks: Chrome trace round-trip, JSONL, ring buffer, summary."""

import json

from repro.telemetry import (
    Telemetry,
    chrome_trace,
    chrome_trace_events,
    summary_lines,
    write_chrome_trace,
    write_jsonl,
)


def build_session():
    """A session with nested spans, sim time, and a few events."""
    telemetry = Telemetry()
    with telemetry.span("pregelix:pagerank", category="pregelix"):
        with telemetry.span("load", category="phase") as load:
            telemetry.sim_clock.advance(3.0)
            load.annotate(input_bytes=1024)
        for step in (1, 2):
            with telemetry.span("superstep:%d" % step, category="superstep"):
                with telemetry.span("JoinOperator", category="task"):
                    telemetry.event(
                        "cache.evict", category="storage", node="node0", page_no=step
                    )
                telemetry.sim_clock.advance(1.5)
    telemetry.event("lsm.flush", category="storage", bytes=2048)
    telemetry.registry.counter("engine.jobs_executed").inc(2)
    telemetry.registry.histogram("pregelix.superstep_seconds").observe(0.25)
    return telemetry


def assert_well_formed_chrome(events):
    """ts monotone, B/E matched per tid, names nest like a stack."""
    last_ts = None
    stacks = {}
    for event in events:
        assert event["ph"] in ("B", "E", "i")
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        if last_ts is not None:
            assert event["ts"] >= last_ts  # monotone
        last_ts = event["ts"]
        if event["ph"] == "B":
            stacks.setdefault(event["tid"], []).append(event["name"])
        elif event["ph"] == "E":
            stack = stacks.get(event["tid"])
            assert stack, "E event with no open B on tid %s" % event["tid"]
            assert stack.pop() == event["name"]  # properly nested
    for tid, stack in stacks.items():
        assert not stack, "unclosed B events on tid %s: %r" % (tid, stack)


class TestChromeTrace:
    def test_round_trip_is_valid_json(self, tmp_path):
        telemetry = build_session()
        path = str(tmp_path / "trace.json")
        assert write_chrome_trace(telemetry, path) == path
        with open(path) as handle:
            document = json.load(handle)  # valid JSON by construction
        assert document["displayTimeUnit"] == "ms"
        assert document["otherData"]["producer"] == "repro.telemetry"
        assert document["otherData"]["sim_seconds"] == 6.0
        assert_well_formed_chrome(document["traceEvents"])

    def test_matched_pairs_and_counts(self):
        telemetry = build_session()
        events = chrome_trace_events(telemetry)
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(begins) == len(ends) == 6  # job, load, 2x(superstep, task)
        assert len(instants) == 3  # 2 evictions + 1 flush
        assert {e["name"] for e in instants} == {"cache.evict", "lsm.flush"}

    def test_open_spans_are_excluded(self):
        telemetry = Telemetry()
        telemetry.tracer.start("never-finished")
        with telemetry.span("done"):
            pass
        names = [e["name"] for e in chrome_trace_events(telemetry)]
        assert names == ["done", "done"]

    def test_sim_seconds_arg_attached(self):
        telemetry = Telemetry()
        with telemetry.span("superstep:1") as span:
            telemetry.sim_clock.advance(4.5)
        assert span.sim_duration == 4.5
        begin = [e for e in chrome_trace_events(telemetry) if e["ph"] == "B"][0]
        assert begin["args"]["sim_seconds"] == 4.5

    def test_empty_session(self):
        document = chrome_trace(Telemetry())
        assert document["traceEvents"] == []


class TestJsonl:
    def test_records_cover_all_surfaces(self, tmp_path):
        telemetry = build_session()
        path = str(tmp_path / "telemetry.jsonl")
        count = write_jsonl(telemetry, path)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == count
        kinds = {record["type"] for record in records}
        assert kinds == {"span", "event", "metric"}
        histograms = [
            r for r in records if r["type"] == "metric" and r["kind"] == "histogram"
        ]
        assert histograms and "summary" in histograms[0]


class TestSummary:
    def test_summary_lines_sections(self):
        telemetry = build_session()
        lines = summary_lines(telemetry)
        assert lines[0] == "-- telemetry summary --"
        text = "\n".join(lines)
        assert "metrics:" in text
        assert "engine.jobs_executed" in text
        assert "events:" in text
        assert "cache.evict" in text
        assert "spans (wall seconds by category/name):" in text
        assert "superstep/superstep" in text
        assert "simulated seconds: 6.000000" in text

    def test_stage_span_keeps_every_operator_without_run_ids(self):
        # A stage clone's span names all its operators, some with a
        # relation qualified by the run: two runs' clones share one row.
        telemetry = Telemetry()
        for run in ("sssp-0001", "serve-job-000084-a1"):
            name = "MsgScan+IndexLeftOuterJoin(vertex:%s)+Compute(sssp)+IndexBulkLoad(vid:%s)"
            with telemetry.span(name % (run, run), category="task"):
                pass
        rows = [line.split() for line in summary_lines(telemetry) if "task/" in line]
        assert [row[:2] for row in rows] == [[
            "task/MsgScan+IndexLeftOuterJoin(vertex)+Compute(sssp)+IndexBulkLoad(vid)",
            "n=2",
        ]]
