"""Spilled runs have one owner, and it cleans up on every exit.

Whatever interrupts a run-generating operator — a fold, a serde or a key
function that raises once the k-th run is spilled or while the runs
are merged, or a consumer that stops reading — no ``*-run-*.tmp`` file
(a clone makes one, whatever the number of its runs) may stay in the
node's directory: in ``repro serve`` every failed attempt
of a poison job would otherwise keep its spill files until the process
exits. The same module holds the laws of the one k-way merge every
sorted stream goes through.
"""

import itertools
import os
import types
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.common import serde
from repro.common.serde import encode_key
from repro.hyracks.connectors import OneToOneConnector
from repro.hyracks.engine import HyracksCluster, JobContext
from repro.hyracks.job import JobSpec
from repro.hyracks.operators.func import CollectSinkOperator, GeneratorSourceOperator
from repro.hyracks.operators.groupby import (
    GroupAggregator,
    HashSortGroupByOperator,
    SortGroupByOperator,
)
from repro.hyracks.operators.sort import ExternalSortOperator
from repro.hyracks.storage.file_manager import FileManager
from repro.hyracks.storage import run_file
from repro.hyracks.storage.run_file import LEAD, merge_sorted

TUPLES = 400
TUPLE_SERDE = serde.TupleSerde(serde.INT64, serde.FLOAT64)
STREAM = [((7 * i) % 97, float(i % 5)) for i in range(TUPLES)]


class Boom(Exception):
    pass


class CountingFiles(FileManager):
    def __init__(self, root):
        super().__init__(root)
        self.created = 0

    def create_temp_path(self, hint="run"):
        self.created += 1
        return super().create_temp_path(hint)


def spill_context(files):
    """An operator clone's context: its node's files and a job whose
    counters count the runs spilled."""
    return types.SimpleNamespace(files=files, job=JobContext("spill"))


def spilled_runs(ctx):
    return ctx.job.counters.get("spilled_runs")


class Tripwire:
    """Wraps a callable: raises :class:`Boom` from the first call made
    once ``after_runs`` runs have been spilled."""

    def __init__(self, ctx, after_runs, function):
        self.ctx, self.after_runs, self.function = ctx, after_runs, function

    def __call__(self, *args):
        if spilled_runs(self.ctx) >= self.after_runs:
            raise Boom()
        return self.function(*args)


class TrippedSerde:
    """A serde whose one named method, and its batch form (``loads`` and
    ``loads_many``), go through a tripwire."""

    def __init__(self, inner, method, wrap):
        self.inner = inner
        self.tripped = {
            name: wrap(getattr(inner, name))
            for name in (method, method + "_many") if hasattr(inner, name)
        }

    def __getattr__(self, name):
        if name in self.tripped:
            return self.tripped[name]
        return getattr(self.inner, name)


class SumAggregator(GroupAggregator):
    group_key = staticmethod(encode_key)

    def __init__(self, trip):
        self.trip = trip
        self._serde = serde.FLOAT64
        for method in ("dumps", "loads"):
            if method in trip:
                self._serde = TrippedSerde(serde.FLOAT64, method, trip[method])
        self.step = trip.get("fold", lambda f: f)(self.step)
        self.merge = trip.get("merge", lambda f: f)(self.merge)

    def create(self):
        return 0.0

    def step(self, state, item):
        return state + item[1]

    def merge(self, left, right):
        return left + right

    def finish(self, key, state):
        return key, state

    def state_serde(self):
        return self._serde


def sort_operator(trip):
    tuple_serde = TUPLE_SERDE
    for method in ("dumps", "loads"):
        if method in trip:
            tuple_serde = TrippedSerde(TUPLE_SERDE, method, trip[method])
    key_fn = trip.get("key_fn", lambda f: f)(lambda item: encode_key(item[0]))
    operator = ExternalSortOperator(key_fn, tuple_serde, memory_limit_bytes=800)
    return operator.sorted_stream


def sort_groupby(trip):
    key_fn = trip.get("key_fn", lambda f: f)(LEAD)
    operator = SortGroupByOperator(
        key_fn, SumAggregator(trip), TUPLE_SERDE, memory_limit_bytes=800
    )
    return operator.grouped_stream


def hashsort_groupby(trip):
    key_fn = trip.get("key_fn", lambda f: f)(LEAD)
    operator = HashSortGroupByOperator(
        key_fn, SumAggregator(trip), memory_limit_bytes=320
    )
    return operator.grouped_stream


OPERATORS = {
    "sort": (sort_operator, ("key_fn", "dumps", "loads")),
    "sort-groupby": (sort_groupby, ("key_fn", "fold", "dumps", "loads", "merge")),
    "hashsort-groupby": (hashsort_groupby, ("key_fn", "fold", "dumps", "loads", "merge")),
}


def runs_left(files):
    return sorted(name for name in os.listdir(files.root) if "-run-" in name)


def undisturbed(tmp_path, name):
    """(output, runs spilled) of the operator when nothing fails."""
    files = CountingFiles(str(tmp_path / "undisturbed"))
    ctx = spill_context(files)
    stream = OPERATORS[name][0]({})(ctx, list(STREAM))
    output = list(stream)
    assert runs_left(files) == []
    return output, spilled_runs(ctx)


CASES = [
    (name, failing)
    for name, (_, failures) in sorted(OPERATORS.items())
    for failing in failures
]


@pytest.mark.parametrize("name,failing", CASES)
@pytest.mark.parametrize("consumer", ["exhausts", "abandons"])
def test_no_run_survives_a_failure_at_any_spill(tmp_path, name, failing, consumer):
    output, spilled = undisturbed(tmp_path, name)
    assert spilled >= 3
    raised = 0
    for after_runs in range(spilled + 1):
        files = CountingFiles(str(tmp_path / ("%s-%d" % (failing, after_runs))))
        ctx = spill_context(files)
        trip = {failing: lambda f: Tripwire(ctx, after_runs, f)}
        stream = OPERATORS[name][0](trip)(ctx, list(STREAM))
        try:
            if consumer == "exhausts":
                assert list(stream) == output
            else:
                taken = list(itertools.islice(stream, 1 + after_runs))
                assert taken == output[: 1 + after_runs]
                stream.close()
        except Boom:
            raised += 1
        assert runs_left(files) == [], (after_runs, spilled_runs(ctx))
        assert files.created <= 1
        if failing == "merge":
            # The merge of partial states raised once every run had been
            # read (each fits one read chunk): all of it is charged,
            # though no run was read to its end.
            assert files.io.disk_read_bytes == files.io.disk_write_bytes > 0
    # The tripwire did interrupt the operator, at more than one spill.
    assert raised >= 2


@pytest.mark.parametrize("name", sorted(OPERATORS))
@pytest.mark.parametrize("taken", [1, 5, 10 ** 6])
def test_no_run_survives_a_consumer_that_stops_reading(tmp_path, name, taken):
    output, _ = undisturbed(tmp_path, name)
    files = CountingFiles(str(tmp_path / "abandoned"))
    ctx = spill_context(files)
    stream = OPERATORS[name][0]({})(ctx, list(STREAM))
    assert list(itertools.islice(stream, taken)) == output[:taken]
    stream.close()
    assert spilled_runs(ctx) >= 3
    assert runs_left(files) == []
    # The first merged item read every run (each fits one read chunk);
    # what was read is charged however the merge ended.
    assert files.io.disk_read_bytes == files.io.disk_write_bytes > 0


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_a_clone_spills_every_run_into_one_file(tmp_path, name):
    """However many runs a clone spills, it creates one ``*-run-*.tmp``,
    which is there while the runs are merged and gone after."""
    files = CountingFiles(str(tmp_path / "one-file"))
    ctx = spill_context(files)
    stream = OPERATORS[name][0]({})(ctx, list(STREAM))
    next(stream)
    assert spilled_runs(ctx) >= 2
    (path,) = runs_left(files)
    assert path.startswith(("sort-run-", "groupby-run-"))
    list(stream)
    assert files.created == 1
    assert runs_left(files) == []


def test_spills_are_counted_per_job_and_in_the_registry(tmp_path):
    """Each spilled run adds one to the job's ``spilled_runs`` and to the
    registry's ``storage.spill.runs{hint}``: 400 tuples of 24 bytes under
    an 800-byte budget are 11 full batches of 34 per partition, each
    spilled as a run, and 26 tuples kept in memory."""
    assert TUPLE_SERDE.fixed_size == 24
    spec = JobSpec("spilling-groupby")
    source = spec.add(GeneratorSourceOperator(lambda ctx, partition: list(STREAM)))
    group = spec.add(SortGroupByOperator(
        LEAD, SumAggregator({}), TUPLE_SERDE, memory_limit_bytes=800
    ))
    sink = spec.add(CollectSinkOperator("sums"))
    spec.connect(OneToOneConnector(), source, group)
    spec.connect(OneToOneConnector(), group, sink)
    with HyracksCluster(num_nodes=2, root_dir=str(tmp_path / "cluster")) as cluster:
        result = cluster.execute(spec)
        registry = cluster.telemetry.registry
        assert result.counters.get("spilled_runs") == 2 * 11
        assert registry.value("storage.spill.runs", hint="groupby-run") == 2 * 11
        assert registry.value("storage.spill.runs", hint="sort-run") == 0
        assert registry.value("engine.counters.spilled_runs") == 2 * 11
        assert len(result.gather("sums")) == 2 * len({key for key, _ in STREAM})
        for node in cluster.nodes.values():
            assert runs_left(node.files) == []


# ----------------------------------------------------------------------
# the k-way merge
# ----------------------------------------------------------------------
keyed_streams = st.lists(
    st.lists(st.integers(min_value=0, max_value=12), max_size=30).map(sorted),
    max_size=6,
)


@seed(22)
@settings(max_examples=150, deadline=None)
@given(keys_per_stream=keyed_streams)
def test_merge_sorted_laws(keys_per_stream):
    """Sorted; a permutation of its inputs; equal keys in source order,
    and within a source in the source's order."""
    streams = [
        [(key, (source, position)) for position, key in enumerate(keys)]
        for source, keys in enumerate(keys_per_stream)
    ]
    merged = list(merge_sorted(map(iter, streams)))
    assert sorted(merged) == sorted(itertools.chain.from_iterable(streams))
    assert merged == sorted(merged, key=lambda pair: (pair[0], pair[1]))


@seed(23)
@settings(max_examples=50, deadline=None)
@given(keys_per_stream=keyed_streams)
def test_merge_sorted_by_another_key(keys_per_stream):
    streams = [
        [(source, -key) for key in keys] for source, keys in enumerate(keys_per_stream)
    ]
    merged = list(merge_sorted(streams, key=lambda item: -item[1]))
    assert merged == sorted(
        itertools.chain.from_iterable(streams), key=lambda item: -item[1]
    )


# The same laws where streams are longer than the merge's chunk: mixed
# kinds of stream, runs of equal keys longer than a chunk, another key.
class ReadAhead:
    """A sorted stream that checks, whenever the merge takes an item, the
    read-ahead law: no stream is read further ahead of the merged output
    than one chunk plus its run of equal keys not yet emitted in full."""

    def __init__(self, items, key, chunk):
        self.items, self.key, self.chunk = items, key, chunk
        self.taken = self.emitted = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.taken == len(self.items):
            raise StopIteration
        self.taken += 1
        head = self.key(self.items[self.emitted])
        run = sum(1 for item in self.items[self.emitted:] if self.key(item) == head)
        assert self.taken - self.emitted <= self.chunk + run
        return self.items[self.taken - 1]


def one_by_one(items):
    yield from items


KEYS = {"lead": LEAD, "negated": lambda item: -item[0]}
mixed_streams = st.lists(
    st.tuples(
        st.lists(st.integers(min_value=0, max_value=4), max_size=14),
        st.sampled_from([list, one_by_one, ReadAhead]),
    ),
    max_size=5,
)


@pytest.mark.parametrize("key_name", sorted(KEYS))
@pytest.mark.parametrize("chunk", [1, 2, 3])
@seed(26)
@settings(max_examples=120, deadline=None)
@given(shapes=mixed_streams)
def test_merge_laws_across_chunk_edges(chunk, key_name, shapes):
    key = KEYS[key_name]
    streams, tagged = [], []
    for source, (keys, kind) in enumerate(shapes):
        ordered = sorted(keys, key=lambda k: key((k,)))
        items = [(k, (source, position)) for position, k in enumerate(ordered)]
        tagged += items
        streams.append(ReadAhead(items, key, chunk) if kind is ReadAhead else kind(items))
    merged = []
    with mock.patch.object(run_file, "_MERGE_CHUNK", chunk):
        for item in merge_sorted(streams, key=key):
            merged.append(item)
            stream = streams[item[1][0]]
            if isinstance(stream, ReadAhead):
                stream.emitted += 1
    # Sorted by key; ties in source order, then in the source's order.
    assert merged == sorted(tagged, key=lambda item: (key(item), item[1]))
