"""Job pipelining (paper Section 5.6).

An array of *compatible* jobs — producer/consumer over the same vertex
data, interpreting the bits the same way — can be chained without HDFS
round trips or index re-bulk-loads: the vertex relation loaded for the
first job stays resident, and between jobs a cheap reactivation plan
marks every vertex active again (and rebuilds ``Vid`` for left-outer-join
plans). This was motivated by the Genomix assembler's chained graph
cleaning rounds; the user trades reduced fault-tolerance (no checkpoint
coverage across job boundaries) for speed.
"""

from repro.common.errors import ReproError


class PipelineOutcome:
    """Results of a pipelined multi-job run."""

    def __init__(self, outcomes, load_seconds, dump_seconds):
        self.outcomes = outcomes
        self.load_seconds = load_seconds
        self.dump_seconds = dump_seconds

    @property
    def total_seconds(self):
        return (
            self.load_seconds
            + sum(outcome.stats.total_elapsed for outcome in self.outcomes)
            + self.dump_seconds
        )

    @property
    def final_gs(self):
        return self.outcomes[-1].gs


def check_compatibility(jobs):
    """Compatible jobs must interpret the vertex bits identically."""
    if not jobs:
        raise ReproError("pipeline needs at least one job")
    first = jobs[0]
    for job in jobs[1:]:
        same_types = (
            type(job.value_serde) is type(first.value_serde)
            and type(job.edge_serde) is type(first.edge_serde)
        )
        if not same_types:
            raise ReproError(
                "job %r is not pipeline-compatible with %r "
                "(vertex value/edge serdes differ)" % (job.name, first.name)
            )


def compatible_segments(jobs):
    """Split a job array into maximal runs of pipeline-compatible jobs.

    The paper pipelines between *compatible contiguous* jobs; a mixed
    array falls back to HDFS materialization at each incompatibility
    boundary.
    """
    segments = []
    current = []
    for job in jobs:
        if not current:
            current = [job]
            continue
        try:
            check_compatibility([current[0], job])
            current.append(job)
        except ReproError:
            segments.append(current)
            current = [job]
    if current:
        segments.append(current)
    return segments


def run_job_array(driver, jobs, input_path, output_path=None, parsers=None, formatters=None):
    """Run a mixed job array (paper Section 5.6's general form).

    Compatible contiguous jobs are pipelined over a resident vertex
    relation; at each incompatibility boundary the intermediate result
    is materialized to HDFS and reloaded with the next segment's types.

    :param parsers: optional ``{job.name: parse_line}`` overrides; the
        segment's first job's parser loads that segment.
    :param formatters: optional ``{job.name: format_record}`` overrides;
        the segment's last job's formatter writes the boundary dump.
    :returns: list of :class:`PipelineOutcome`, one per segment.
    """
    parsers = parsers or {}
    formatters = formatters or {}
    segments = compatible_segments(jobs)
    outcomes = []
    current_input = input_path
    for index, segment in enumerate(segments):
        last = index == len(segments) - 1
        segment_output = output_path if last else "%s-stage-%d" % (
            output_path or "/pregelix/job-array", index
        )
        outcome = run_pipeline(
            driver,
            segment,
            current_input,
            output_path=segment_output,
            parse_line=parsers.get(segment[0].name),
            format_record=formatters.get(segment[-1].name),
        )
        outcomes.append(outcome)
        current_input = segment_output
    return outcomes


def run_pipeline(driver, jobs, input_path, output_path=None, parse_line=None, format_record=None):
    """Run ``jobs`` back to back over one resident vertex relation.

    Loads once with the first job's configuration, runs each job's
    superstep loop against the shared indexes, reactivating all vertices
    in between, and dumps once at the end — the driver's run skeleton
    (:meth:`~repro.pregelix.runtime.PregelixDriver.run_jobs`) with more
    than one job in it.
    """
    check_compatibility(jobs)
    outcomes = driver.run_jobs(
        jobs,
        input_path,
        output_path=output_path,
        parse_line=parse_line,
        format_record=format_record,
    )
    return PipelineOutcome(
        outcomes, outcomes[0].load_seconds, outcomes[-1].dump_seconds
    )
