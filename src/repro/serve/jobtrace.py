"""Per-job trace assembly: one job's spans out of the shared session.

The serve layer runs every job on one shared telemetry session, so the
raw span list interleaves concurrent jobs. The scoped tracer
(:meth:`~repro.telemetry.tracing.Tracer.context`) stamps each span with
the identity of whatever was executing when it was recorded: solo runs
carry their ``job_id`` and ``run_id``, batched runs carry the shared
batch ``run_id`` (plus an explicit per-member ``job_id`` on the fan-out
lane spans). Assembly selects:

* spans carrying the job's own ``job_id``;
* spans carrying one of the job's run ids and *no* ``job_id`` — shared
  batch engine work belongs to every member, but another member's lane
  span is that member's alone;

and adds synthetic queue-wait / run / fan-out lifecycle spans built
from the record's ``perf_counter`` trace marks, rendered on a dedicated
``job-lifecycle`` row. The result is a well-formed Chrome ``trace_event``
document (``GET /jobs/<id>/trace``) showing exactly one job: its time
in the queue, its driver phases, and its supersteps, each with its
seconds per operator kind (its ``operators`` arg; a stage clone records
a ``task`` span only in a session built with ``task_spans=True``).
``otherData.truncated`` says whether the shared span ring has evicted
any span recorded since the job was submitted.
"""

from repro.telemetry.export import chrome_trace_events

#: (span name, begin mark, end mark) for the synthetic lifecycle rows.
LIFECYCLE_SPANS = (
    ("queue-wait", "queued", "dequeued"),
    ("run", "running", "finished"),
    ("fan-out", "fanout_begin", "fanout_end"),
)


def select_job_spans(telemetry, job_id, run_ids=()):
    """Finished spans attributable to exactly this job."""
    run_ids = set(run_ids or ())
    selected = []
    for span in telemetry.tracer.finished_spans():
        args = span.args or {}
        span_job = args.get("job_id")
        if span_job == job_id:
            selected.append(span)
        elif span_job is None and args.get("run_id") in run_ids:
            selected.append(span)
    return selected


def select_job_events(telemetry, job_id):
    """Event-log entries carrying this job's id (rendered as instants)."""
    return [
        event for event in telemetry.events
        if (event.args or {}).get("job_id") == job_id
    ]


def lifecycle_spans(record):
    """Synthetic duration events for the record's lifecycle phases."""
    marks = record.trace_marks
    spans = []
    for name, begin, end in LIFECYCLE_SPANS:
        if begin in marks and end in marks and marks[end] >= marks[begin]:
            spans.append({
                "name": name,
                "cat": "lifecycle",
                "start": marks[begin],
                "end": marks[end],
                "args": {"job_id": record.job_id},
            })
    return spans


def job_trace_document(telemetry, record):
    """The Chrome ``trace_event`` document for one served job."""
    run_ids = sorted(record.trace_run_ids)
    return {
        "traceEvents": chrome_trace_events(
            telemetry,
            spans=select_job_spans(telemetry, record.job_id, run_ids),
            events=select_job_events(telemetry, record.job_id),
            synthetic=lifecycle_spans(record),
        ),
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.serve",
            "job_id": record.job_id,
            "run_ids": run_ids,
            "state": record.state.value,
            "spans": record.span_breakdown(),
            # The shared span ring evicted some span recorded since the
            # job was submitted, which may have been one of its own.
            "truncated": (
                telemetry.tracer.evicted_id >= record.trace_first_span_id
            ),
        },
    }
