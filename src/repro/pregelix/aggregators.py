"""Named global aggregators (the full Pregel aggregation surface).

Pregel lets a program register any number of aggregation functions
("min, max, sum, etc.", paper Section 2.1); each vertex contributes to
any of them by name, and every vertex reads the previous superstep's
values. A :class:`PregelixJob` accepts either a single
:class:`~repro.pregelix.api.GlobalAggregator` (the GS ``aggregate``
field is its scalar value, the common case in the paper's plans) or a
``{name: aggregator}`` dict (the field becomes a ``{name: value}``
dict). :class:`AggregatorSet` normalizes the two shapes for the
operators and baseline engines.
"""

from repro.common import serde


class AggregatorSet:
    """Uniform interface over one anonymous or many named aggregators.

    Vertex contributions travel as ``(name, contribution)`` pairs, with
    ``None`` as the anonymous name.
    """

    def __init__(self, spec):
        if spec is None:
            self._aggregators = {}
        elif isinstance(spec, dict):
            self._aggregators = dict(spec)
            if None in self._aggregators:
                raise ValueError("named aggregators must not use the None name")
        else:
            self._aggregators = {None: spec}

    def __bool__(self):
        return bool(self._aggregators)

    @property
    def is_named(self):
        return bool(self._aggregators) and None not in self._aggregators

    # ------------------------------------------------------------------
    def init_states(self):
        return {name: agg.init() for name, agg in self._aggregators.items()}

    def accumulate(self, states, name, contribution):
        aggregator = self._aggregators.get(name)
        if aggregator is None:
            raise KeyError("no aggregator registered under %r" % (name,))
        states[name] = aggregator.accumulate(states[name], contribution)
        return states

    def accumulate_all(self, states, contributions):
        for name, contribution in contributions:
            self.accumulate(states, name, contribution)
        return states

    def merge(self, left, right):
        if left is None:
            return right
        if right is None:
            return left
        return {
            name: self._aggregators[name].merge(left[name], right[name])
            for name in self._aggregators
        }

    def finish(self, states):
        """The GS ``aggregate`` value: scalar when anonymous, else dict."""
        if not self._aggregators:
            return None
        if states is None:
            states = self.init_states()
        if self.is_named:
            return {
                name: agg.finish(states[name])
                for name, agg in self._aggregators.items()
            }
        (aggregator,) = self._aggregators.values()
        return aggregator.finish(states[None])

    # ------------------------------------------------------------------
    def value_serde(self):
        """Serde for the finished GS value."""
        if not self._aggregators:
            return serde.NULL
        if not self.is_named:
            (aggregator,) = self._aggregators.values()
            return aggregator.value_serde()
        return NamedValuesSerde(
            {name: agg.value_serde() for name, agg in self._aggregators.items()}
        )


class NamedValuesSerde(serde.Serde):
    """Serializes ``{name: value}`` dicts with a fixed name set."""

    def __init__(self, value_serdes):
        self.names = sorted(value_serdes)
        self._header = ",".join(self.names)
        self.tuple_serde = serde.TupleSerde(
            serde.STRING, *[value_serdes[name] for name in self.names]
        )

    def _ordered(self, value):
        return (self._header, *[value[name] for name in self.names])

    def dumps(self, value):
        return self.tuple_serde.dumps(self._ordered(value))

    def loads(self, data):
        fields = self.tuple_serde.loads(data)
        return dict(zip(self.names, fields[1:]))

    def sizeof(self, value):
        return self.tuple_serde.sizeof(self._ordered(value))
