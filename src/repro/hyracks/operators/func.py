"""Small functional operators: sources, maps, filters, unions, and sinks."""

from repro.hyracks.job import OperatorDescriptor


class GeneratorSourceOperator(OperatorDescriptor):
    """A source that materializes tuples from a per-partition callable.

    :param generator: ``generator(ctx, partition) -> iterable of tuples``.
    """

    def __init__(self, generator, name=None):
        super().__init__(name or "GeneratorSource")
        self.generator = generator

    def run(self, ctx, partition, inputs):
        return {self.OUT: list(self.generator(ctx, partition))}


class MapOperator(OperatorDescriptor):
    """Applies ``fn`` to every input tuple."""

    def __init__(self, fn, name=None):
        super().__init__(name or "Map")
        self.fn = fn

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        return {self.OUT: [self.fn(item) for item in stream]}


class BatchMapOperator(OperatorDescriptor):
    """Applies ``fn`` to the input at once: ``fn(list of tuples) -> list``,
    for maps that cost one call per partition instead of one per tuple."""

    def __init__(self, fn, name=None):
        super().__init__(name or "BatchMap")
        self.fn = fn

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        return {self.OUT: self.fn(list(stream))}


class FilterOperator(OperatorDescriptor):
    """Keeps tuples for which ``predicate`` is truthy."""

    def __init__(self, predicate, name=None):
        super().__init__(name or "Filter")
        self.predicate = predicate

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        return {self.OUT: [item for item in stream if self.predicate(item)]}


class UnionOperator(OperatorDescriptor):
    """Concatenates all input streams."""

    def __init__(self, name=None):
        super().__init__(name or "Union")

    def run(self, ctx, partition, inputs):
        output = []
        for stream in inputs:
            output.extend(stream)
        return {self.OUT: output}


class CollectSinkOperator(OperatorDescriptor):
    """Stores its input in the job result under ``key`` (per partition).

    The client reads it back from ``JobResult.collected[key]``, which maps
    partition numbers to tuple lists. This is how drivers observe plan
    outputs without going through HDFS.
    """

    def __init__(self, key, name=None):
        super().__init__(name or "CollectSink")
        self.key = key

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        ctx.job.collected.setdefault(self.key, {})[partition] = list(stream)
        return {}
