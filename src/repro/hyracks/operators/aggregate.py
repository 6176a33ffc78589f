"""Two-stage global aggregation (paper Section 5.3.3).

Each worker pre-aggregates its local stream with a
:class:`LocalAggregateOperator`; an aggregator connector funnels the
partial states to a single :class:`GlobalAggregateOperator` clone, which
merges them and emits the final value. Pregelix uses two instances per
superstep: a boolean-AND over halting contributions and the user's
``aggregate`` UDF over global-aggregate contributions.
"""

from repro.hyracks.job import OperatorDescriptor


class ScalarAggregator:
    """Keyless aggregation contract for the two-stage global aggregate."""

    def create(self):
        raise NotImplementedError

    def step(self, state, item):
        raise NotImplementedError

    def step_many(self, state, items):
        """:meth:`step` over a list of items. An aggregator that can fold
        a batch without a call per item overrides it."""
        step = self.step
        for item in items:
            state = step(state, item)
        return state

    def merge(self, left, right):
        raise NotImplementedError

    def finish(self, state):
        return state


class SumAggregator(ScalarAggregator):
    """Numeric sum (a common user aggregate)."""

    def create(self):
        return 0

    def step(self, state, item):
        return state + item

    def merge(self, left, right):
        return left + right


class LocalAggregateOperator(OperatorDescriptor):
    """Stage one: fold a partition's stream into one partial state."""

    def __init__(self, aggregator, name=None):
        super().__init__(name or "LocalAggregate")
        self.aggregator = aggregator

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        aggregator = self.aggregator
        return {self.OUT: [aggregator.step_many(aggregator.create(), list(stream))]}


class GlobalAggregateOperator(OperatorDescriptor):
    """Stage two: merge all partial states and emit the final value.

    Only partition 0 receives input (via the aggregator connector); other
    clones emit nothing.
    """

    def __init__(self, aggregator, name=None):
        super().__init__(name or "GlobalAggregate")
        self.aggregator = aggregator

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        partials = list(stream)
        if not partials:
            return {self.OUT: []}
        state = partials[0]
        for partial in partials[1:]:
            state = self.aggregator.merge(state, partial)
        return {self.OUT: [self.aggregator.finish(state)]}
