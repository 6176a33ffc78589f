"""Unit tests for the tracer: nesting, sim-clock stamps, retention."""

import threading

from repro.telemetry import SimClock, Tracer


class TestNesting:
    def test_parent_ids_and_depth(self):
        tracer = Tracer()
        with tracer.span("job", category="job") as outer:
            with tracer.span("superstep:1", category="superstep") as mid:
                with tracer.span("task", category="task") as inner:
                    assert tracer.current() is inner
                    assert inner.depth == 2
                assert tracer.current() is mid
            assert mid.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.depth == 0
        assert [s.name for s in tracer.finished_spans()] == [
            "task",
            "superstep:1",
            "job",
        ]

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("job") as job:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        spans = {s.name: s for s in tracer.finished_spans()}
        assert spans["a"].parent_id == job.span_id
        assert spans["b"].parent_id == job.span_id
        assert spans["a"].depth == spans["b"].depth == 1

    def test_current_is_none_at_top_level(self):
        assert Tracer().current() is None

    def test_manual_start_finish(self):
        tracer = Tracer()
        span = tracer.start("manual", category="x", detail=1)
        assert not span.finished
        tracer.finish(span)
        assert span.finished
        assert span.duration >= 0.0
        assert tracer.finished_spans(category="x") == [span]

    def test_out_of_order_finish_unwinds(self):
        tracer = Tracer()
        outer = tracer.start("outer")
        tracer.start("inner")
        tracer.finish(outer)  # inner never finished; stack must unwind
        assert tracer.current() is None

    def test_filters(self):
        tracer = Tracer()
        with tracer.span("superstep:1", category="superstep"):
            pass
        with tracer.span("load", category="phase"):
            pass
        assert len(tracer.finished_spans(category="superstep")) == 1
        assert len(tracer.finished_spans(name_prefix="superstep:")) == 1
        assert len(tracer.finished_spans()) == 2


class TestSimClock:
    def test_spans_stamp_sim_time(self):
        clock = SimClock()
        tracer = Tracer(sim_clock=clock)
        clock.advance(5.0)
        with tracer.span("superstep:1") as span:
            clock.advance(2.5)
        assert span.sim_start == 5.0
        assert span.sim_end == 7.5
        assert span.sim_duration == 2.5
        record = span.to_record()
        assert record["sim_start"] == 5.0

    def test_no_clock_means_no_sim_stamps(self):
        tracer = Tracer()
        with tracer.span("x") as span:
            pass
        assert span.sim_start is None
        assert span.sim_duration is None
        assert "sim_start" not in span.to_record()


class TestRetention:
    def test_max_spans_drops_oldest(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            with tracer.span("s%d" % i):
                pass
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [s.name for s in tracer.finished_spans()] == ["s2", "s3", "s4"]

        # The same from two threads into a ring that runs full for most of
        # the run (what a long-lived service's tracer does).
        tracer = Tracer(max_spans=50)
        per_thread = 400

        def worker(thread_id):
            for i in range(per_thread):
                with tracer.span("t%d-%d" % (thread_id, i)):
                    pass

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        retained = tracer.finished_spans()
        assert isinstance(retained, list)  # a snapshot, safe to slice and index
        assert len(tracer) == len(retained) == 50
        assert tracer.dropped == 2 * per_thread - 50
        # The window is the newest spans: per thread, a contiguous tail of
        # what it finished, in finish order.
        for thread_id in range(2):
            mine = [
                int(s.name.split("-")[1])
                for s in retained
                if s.name.startswith("t%d-" % thread_id)
            ]
            assert mine == list(range(per_thread - len(mine), per_thread))

    def test_disabled_tracer_keeps_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as span:
            assert tracer.current() is span  # nesting still works
        assert len(tracer) == 0
        assert tracer.dropped == 0


class TestThreads:
    def test_per_thread_stacks(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span(name) as span:
                seen[name] = (span.parent_id, span.tid)

        with tracer.span("main-root"):
            threads = [
                threading.Thread(target=worker, args=("t%d" % i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Worker threads have their own stacks: no parent inherited,
        # and their tids differ from the main thread's.
        for name in ("t0", "t1", "t2"):
            parent_id, tid = seen[name]
            assert parent_id is None
            assert tid != threading.get_ident()

    def test_annotate(self):
        tracer = Tracer()
        with tracer.span("x", a=1) as span:
            span.annotate(b=2)
        assert span.args == {"a": 1, "b": 2}


class TestScopedContext:
    def test_context_stamps_spans(self):
        tracer = Tracer()
        with tracer.context(job_id="j1"):
            with tracer.span("superstep:1"):
                pass
        with tracer.span("outside"):
            pass
        stamped, outside = tracer.finished_spans()
        assert stamped.args == {"job_id": "j1"}
        assert outside.args == {}

    def test_contexts_nest_and_restore(self):
        tracer = Tracer()
        with tracer.context(job_id="j1", tenant="a"):
            with tracer.context(run_id="r9", tenant="b"):
                with tracer.span("inner"):
                    pass
            with tracer.span("outer"):
                pass
        inner, outer = tracer.finished_spans()
        # Inner context merges onto the enclosing one; inner wins per key.
        assert inner.args == {"job_id": "j1", "run_id": "r9", "tenant": "b"}
        # Popping the inner context restores the enclosing args exactly.
        assert outer.args == {"job_id": "j1", "tenant": "a"}

    def test_explicit_span_args_beat_context(self):
        tracer = Tracer()
        with tracer.context(run_id="ambient"):
            with tracer.span("s", run_id="explicit", extra=1):
                pass
        (span,) = tracer.finished_spans()
        assert span.args == {"run_id": "explicit", "extra": 1}

    def test_context_is_thread_local(self):
        tracer = Tracer()

        def worker():
            with tracer.span("bare"):
                pass

        with tracer.context(job_id="main-only"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        (span,) = tracer.finished_spans()
        assert span.args == {}  # another thread's context never bleeds in
