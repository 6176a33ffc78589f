"""The batch kernels of the message path against the loops they replaced.

From the sender group-by to the receiver's, every hop now handles a batch
per call and a key is encoded once per group. What must not have moved is
everything observable: the output tuples (compared by ``repr``, so the
sign of a zero and the order of a list bundle count), the
runs (how many, and every byte of each), the I/O charged for them,
the per-consumer lists a connector makes, and the exceptions.
:mod:`tests.hyracks.per_tuple_reference` is the oracle: the per-tuple
loops as they were.
"""

import copy
import heapq
import random
import types

import pytest

from repro.common import serde
from repro.common.errors import StorageError
from repro.common.serde import decode_key, encode_key
from repro.hyracks.connectors import (
    MToNPartitioningConnector,
    MToNPartitioningMergingConnector,
)
from repro.hyracks.operators.groupby import (
    GroupAggregator,
    HashSortGroupByOperator,
    PreclusteredGroupByOperator,
    SortGroupByOperator,
)
from repro.hyracks.storage.run_file import LEAD
from repro.pregelix.api import (
    DefaultListCombiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.pregelix.multiquery import MultiQueryCombiner, lane_message_serde
from repro.pregelix.physical import (
    PartitionMap,
    _ReceiverCombineAggregator,
    _SenderCombineAggregator,
)
from tests.hyracks import per_tuple_reference as reference

SEEDS = (1, 2, 3)
BUDGETS = {"roomy": 64 << 20, "16KiB": 16 << 10, "1KiB": 1 << 10}
#: Vids the key encoding and ``hash()`` treat specially.
EDGE_VIDS = (-(2 ** 63), -(2 ** 61) - 1, -2, -1, 0, 2 ** 61 - 1, 2 ** 61,
             2 ** 61 + 5, 2 ** 62 + 1, 2 ** 63 - 1)
MESSAGES = 3000


@pytest.fixture(autouse=True)
def runs_extent_by_extent(monkeypatch):
    """Every run an operator spills is recorded on its own."""
    reference.record_extents(monkeypatch)


def sum_case(rng):
    """Float sums of non-integral payloads: the fold order is visible."""
    return SumCombiner(), serde.FLOAT64, lambda: rng.uniform(-1.0, 1.0)


def min_case(rng):
    """Ties, and a zero of either sign: ``min`` keeps whichever came first."""
    values = (0.0, -0.0, 1.5, 1.5, 2.25, -3.0, -3.0)
    return MinCombiner(), serde.FLOAT64, lambda: rng.choice(values)


def max_case(rng):
    """The mirror of ``min``: ``max`` keeps whichever extreme came first."""
    values = (0.0, -0.0, 1.5, 1.5, 2.25, -3.0, 4.0, 4.0)
    return MaxCombiner(), serde.FLOAT64, lambda: rng.choice(values)


def edges_case(rng):
    """Values whose order a fold must not change: NaN (it wins no
    comparison, so it stays only where it came first), zeros of either
    sign, infinities and subnormals."""
    values = (float("nan"), 0.0, -0.0, float("inf"), float("-inf"),
              5e-324, -5e-324, 2.2250738585072009e-308, 1.0)
    return MinCombiner(), serde.FLOAT64, lambda: rng.choice(values)


def list_case(rng):
    """The default combiner: variable-width bundles in arrival order."""
    return DefaultListCombiner(), serde.FLOAT64, rng.random


def multiquery_case(rng):
    """Lane tuples of float sums, as the serving tier batches queries."""
    return (
        MultiQueryCombiner(SumCombiner(), serde.FLOAT64, 5),
        lane_message_serde(serde.FLOAT64),
        lambda: (rng.randrange(5), rng.uniform(-1.0, 1.0)),
    )


CASES = {"sum": sum_case, "min": min_case, "max": max_case,
         "edges": edges_case, "list": list_case, "multiquery": multiquery_case}


class Case:
    def __init__(self, name, seed):
        rng = random.Random(seed)
        self.combiner, msg_serde, payload = CASES[name](rng)
        self.bundle_serde = self.combiner.bundle_serde(msg_serde)
        self.raw_serde = serde.TupleSerde(serde.INT64, msg_serde)
        self.combined_serde = serde.TupleSerde(serde.KEY, self.bundle_serde)
        pool = [rng.randrange(-40, 400) for _ in range(300)] + list(EDGE_VIDS)
        self.senders = [
            [(rng.choice(pool), payload()) for _ in range(MESSAGES)]
            for _ in range(3)
        ]

    def combined_streams(self):
        """What each sender ships: its messages after stage one."""
        ctx = types.SimpleNamespace(files=None)
        aggregator = reference.SenderCombine(self.combiner, self.bundle_serde)
        return [
            list(reference.sort_groupby(
                ctx, copy.deepcopy(messages), lambda t: encode_key(t[0]),
                aggregator, self.raw_serde, 64 << 20,
            ))
            for messages in self.senders
        ]


def contexts(tmp_path):
    return [
        types.SimpleNamespace(files=reference.RecordingFiles(str(tmp_path / name)))
        for name in ("actual", "reference")
    ]


def assert_same(tmp_path, actual_stream, reference_stream, budget):
    """Drain both; same tuples, same run files, same I/O charged. The
    roomy budget never spills and the 1 KiB one always does (16 KiB does
    for the sorts and for bundles that grow)."""
    actual, expected = contexts(tmp_path)
    got = list(actual_stream(actual))
    want = list(reference_stream(expected))
    assert repr(got) == repr(want)
    assert actual.files.run_bytes == expected.files.run_bytes
    if budget != "16KiB":
        assert bool(actual.files.run_bytes) == (budget == "1KiB")
    for counter in ("disk_write_bytes", "disk_read_bytes"):
        assert getattr(actual.files.io, counter) == getattr(expected.files.io, counter)
    return got


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("seed", SEEDS)
class TestGroupBysAgainstThePerTupleLoops:
    def test_sender_sort(self, tmp_path, seed, case_name, budget):
        case = Case(case_name, seed)
        limit = BUDGETS[budget]
        operator_ = SortGroupByOperator(
            LEAD, _SenderCombineAggregator(case.combiner, case.bundle_serde),
            case.raw_serde, memory_limit_bytes=limit,
        )
        messages = case.senders[0]
        assert_same(
            tmp_path,
            lambda ctx: operator_.grouped_stream(ctx, copy.deepcopy(messages)),
            lambda ctx: reference.sort_groupby(
                ctx, copy.deepcopy(messages), lambda t: encode_key(t[0]),
                reference.SenderCombine(case.combiner, case.bundle_serde),
                case.raw_serde, limit,
            ),
            budget=budget,
        )

    def test_sender_hashsort(self, tmp_path, seed, case_name, budget):
        case = Case(case_name, seed)
        limit = BUDGETS[budget]
        operator_ = HashSortGroupByOperator(
            LEAD, _SenderCombineAggregator(case.combiner, case.bundle_serde),
            memory_limit_bytes=limit,
        )
        messages = case.senders[0]
        assert_same(
            tmp_path,
            lambda ctx: operator_.grouped_stream(ctx, copy.deepcopy(messages)),
            lambda ctx: reference.hashsort_groupby(
                ctx, copy.deepcopy(messages), lambda t: encode_key(t[0]),
                reference.SenderCombine(case.combiner, case.bundle_serde), limit,
            ),
            budget=budget,
        )

    def test_receiver_sort(self, tmp_path, seed, case_name, budget):
        case = Case(case_name, seed)
        limit = BUDGETS[budget]
        arrived = [item for stream in case.combined_streams() for item in stream]
        operator_ = SortGroupByOperator(
            LEAD, _ReceiverCombineAggregator(case.combiner, case.bundle_serde),
            case.combined_serde, memory_limit_bytes=limit,
        )
        assert_same(
            tmp_path,
            lambda ctx: operator_.grouped_stream(ctx, copy.deepcopy(arrived)),
            lambda ctx: reference.sort_groupby(
                ctx, copy.deepcopy(arrived), LEAD,
                reference.ReceiverCombine(case.combiner, case.bundle_serde),
                case.combined_serde, limit,
            ),
            budget=budget,
        )

    def test_receiver_hashsort(self, tmp_path, seed, case_name, budget):
        case = Case(case_name, seed)
        limit = BUDGETS[budget]
        arrived = [item for stream in case.combined_streams() for item in stream]
        operator_ = HashSortGroupByOperator(
            LEAD, _ReceiverCombineAggregator(case.combiner, case.bundle_serde),
            memory_limit_bytes=limit,
        )
        assert_same(
            tmp_path,
            lambda ctx: operator_.grouped_stream(ctx, copy.deepcopy(arrived)),
            lambda ctx: reference.hashsort_groupby(
                ctx, copy.deepcopy(arrived), LEAD,
                reference.ReceiverCombine(case.combiner, case.bundle_serde), limit,
            ),
            budget=budget,
        )


@pytest.mark.parametrize("case_name", sorted(CASES))
@pytest.mark.parametrize("seed", SEEDS)
def test_preclustered_receiver_against_the_per_tuple_loop(seed, case_name):
    case = Case(case_name, seed)
    merged = list(heapq.merge(*case.combined_streams(), key=LEAD))
    operator_ = PreclusteredGroupByOperator(
        LEAD, _ReceiverCombineAggregator(case.combiner, case.bundle_serde)
    )
    got = list(operator_.grouped_stream(copy.deepcopy(merged)))
    want = list(reference.preclustered_groupby(
        copy.deepcopy(merged), LEAD,
        reference.ReceiverCombine(case.combiner, case.bundle_serde),
    ))
    assert repr(got) == repr(want)
    assert [key for key, _ in got] == sorted({key for key, _ in merged})


class OnlyCreateAndStep(GroupAggregator):
    """An aggregator that defines the per-tuple contract and nothing of
    the batch one (``perfbench/micro.py`` builds such): the base class
    supplies the batch fold and writes a group under its tuples' key."""

    def create(self):
        return 0.0

    def step(self, state, item):
        return state + item[1]

    def merge(self, left, right):
        return left + right

    def finish(self, key, state):
        return (key, state)

    def state_serde(self):
        return serde.FLOAT64


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_a_per_tuple_aggregator_and_python_key_fn_still_suffice(tmp_path, budget):
    rng = random.Random(7)
    messages = [(rng.randrange(500), rng.uniform(-1, 1)) for _ in range(MESSAGES)]
    tuple_serde = serde.TupleSerde(serde.INT64, serde.FLOAT64)
    limit = BUDGETS[budget]

    def key_fn(item):
        return encode_key(item[0])

    assert_same(
        tmp_path,
        lambda ctx: SortGroupByOperator(
            key_fn, OnlyCreateAndStep(), tuple_serde, limit
        ).grouped_stream(ctx, messages),
        lambda ctx: reference.sort_groupby(
            ctx, messages, key_fn, OnlyCreateAndStep(), tuple_serde, limit
        ),
        budget=budget,
    )
    (tmp_path / "hash").mkdir()
    assert_same(
        tmp_path / "hash",
        lambda ctx: HashSortGroupByOperator(
            key_fn, OnlyCreateAndStep(), limit
        ).grouped_stream(ctx, messages),
        lambda ctx: reference.hashsort_groupby(
            ctx, messages, key_fn, OnlyCreateAndStep(), limit
        ),
        budget=budget,
    )


# ---------------------------------------------------------------------
# connectors
# ---------------------------------------------------------------------
def keyed_batch(rng, size):
    vids = sorted(
        {rng.randrange(-(2 ** 63), 2 ** 63) for _ in range(size)} | set(EDGE_VIDS)
    )
    return [(encode_key(vid), rng.random()) for vid in vids]


def plan_connectors(partition_map):
    """The two message connectors as ``_message_groupby`` wires them."""
    return (
        MToNPartitioningConnector(
            destinations_fn=partition_map.partitions_of_keyed
        ),
        MToNPartitioningMergingConnector(
            sort_key_fn=LEAD, destinations_fn=partition_map.partitions_of_keyed
        ),
    )


@pytest.mark.parametrize("partitions", (1, 3, 4, 7))
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_routing_makes_the_per_tuple_lists(seed, partitions):
    rng = random.Random(seed)
    partition_map = PartitionMap(["node%d" % i for i in range(partitions)])
    batch = keyed_batch(rng, 500)
    want = reference.split(
        batch, lambda t: decode_key(t[0]), partition_map.partition_of, partitions
    )
    assert sum(map(len, want)) == len(batch)
    unmerged, merged = plan_connectors(partition_map)
    assert unmerged.split(0, batch, partitions) == want
    assert merged.split(0, batch, partitions) == want
    assert want == reference.merging_split(
        batch, lambda t: decode_key(t[0]), LEAD, partition_map.partition_of, partitions
    )
    # The constructor's per-tuple pair alone routes the same way.
    per_tuple = MToNPartitioningConnector(
        key_fn=lambda t: decode_key(t[0]), partition_fn=partition_map.partition_of
    )
    assert per_tuple.split(0, batch, partitions) == want
    # An unsorted batch is the unmerged connector's everyday input.
    rng.shuffle(batch)
    assert unmerged.split(0, batch, partitions) == reference.split(
        batch, lambda t: decode_key(t[0]), partition_map.partition_of, partitions
    )
    assert unmerged.split(0, [], partitions) == [[] for _ in range(partitions)]


def test_routing_goes_through_hash_as_partition_of_does():
    partition_map = PartitionMap(["a", "b", "c", "d", "e"])
    for vid in EDGE_VIDS:
        (dest,) = partition_map.partitions_of_keyed([(encode_key(vid), None)])
        assert dest == partition_map.partition_of(vid) == hash(vid) % 5
    # hash(-1) is -2: -1 and -2 share a partition, which ``vid % n`` would split.
    assert partition_map.partition_of(-1) == partition_map.partition_of(-2)


@pytest.mark.parametrize("bad", (b"", b"1234567", b"123456789"))
def test_batch_routing_rejects_a_key_that_is_not_eight_bytes(bad):
    partition_map = PartitionMap(["a", "b"])
    unmerged, merged = plan_connectors(partition_map)
    batch = [(encode_key(1), 0.5), (bad, 0.5), (encode_key(3), 0.5)]
    with pytest.raises(StorageError):
        unmerged.split(0, batch, 2)
    # Seven bytes beside nine: the total width alone would pass.
    with pytest.raises(StorageError):
        partition_map.partitions_of_keyed([(b"1234567", 0), (b"123456789", 0)])


def test_a_partitioning_connector_needs_some_way_to_route():
    with pytest.raises(ValueError):
        MToNPartitioningConnector()


# ---------------------------------------------------------------------
# the checks that stayed
# ---------------------------------------------------------------------
def same_exception(actual, expected):
    with pytest.raises(Exception) as want:
        expected()
    with pytest.raises(type(want.value)) as got:
        actual()
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("position", (1, 250, 499))
def test_unsorted_sender_stream_is_refused_as_before(position):
    partition_map = PartitionMap(["a", "b", "c"])
    batch = keyed_batch(random.Random(4), 500)
    batch[position - 1], batch[position] = batch[position], batch[position - 1]
    _, merged = plan_connectors(partition_map)
    same_exception(
        lambda: merged.split(0, batch, 3),
        lambda: reference.merging_split(
            batch, lambda t: decode_key(t[0]), LEAD, partition_map.partition_of, 3
        ),
    )
    with pytest.raises(ValueError, match="requires sorted sender streams"):
        merged.split(0, batch, 3)


def test_a_key_in_two_clusters_is_refused_as_before():
    case = Case("sum", 5)
    (stream,) = case.combined_streams()[:1]
    reclustered = stream[:40] + stream[10:12] + stream[40:]
    operator_ = PreclusteredGroupByOperator(
        LEAD, _ReceiverCombineAggregator(case.combiner, case.bundle_serde)
    )
    emitted = {"actual": [], "reference": []}

    def drain(name, stream_):
        for group in stream_:
            emitted[name].append(group)

    same_exception(
        lambda: drain("actual", operator_.grouped_stream(reclustered)),
        lambda: drain("reference", reference.preclustered_groupby(
            reclustered, LEAD,
            reference.ReceiverCombine(case.combiner, case.bundle_serde),
        )),
    )
    assert emitted["actual"] == emitted["reference"] == stream[:40]
    with pytest.raises(StorageError, match="in two clusters"):
        list(operator_.grouped_stream(reclustered))


class CannotSpill(OnlyCreateAndStep):
    def state_serde(self):
        return None

    def state_size(self, state):
        return 8


def test_an_aggregator_that_cannot_spill_fails_as_before(tmp_path):
    messages = [(vid % 197, 0.5) for vid in range(2000)]
    tuple_serde = serde.TupleSerde(serde.INT64, serde.FLOAT64)
    actual, expected = contexts(tmp_path)

    def key_fn(item):
        return encode_key(item[0])

    same_exception(
        lambda: list(SortGroupByOperator(
            key_fn, CannotSpill(), tuple_serde, 1 << 10, name="G"
        ).grouped_stream(actual, messages)),
        lambda: list(reference.sort_groupby(
            expected, messages, key_fn, CannotSpill(), tuple_serde, 1 << 10, name="G"
        )),
    )
    same_exception(
        lambda: list(HashSortGroupByOperator(
            key_fn, CannotSpill(), 1 << 10, name="H"
        ).grouped_stream(actual, messages)),
        lambda: list(reference.hashsort_groupby(
            expected, messages, key_fn, CannotSpill(), 1 << 10, name="H"
        )),
    )
    with pytest.raises(StorageError, match="the aggregator cannot spill"):
        list(HashSortGroupByOperator(
            key_fn, CannotSpill(), 1 << 10
        ).grouped_stream(actual, messages))


# ---------------------------------------------------------------------
# a state that is None
# ---------------------------------------------------------------------
class KeepLast(GroupAggregator):
    """The last payload of a key, which may be ``None``."""

    def create(self):
        return None

    def step(self, state, item):
        return item[1]

    def merge(self, left, right):
        return right

    def finish(self, key, state):
        return (key, state)

    def state_serde(self):
        return serde.OptionalSerde(serde.INT64)


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_hashsort_keeps_a_key_whose_state_is_none(tmp_path, budget):
    """A ``None`` state is a state: the key is not new again, so it is
    neither named twice nor paired with another key's state."""
    items = [(b"a", None), (b"b", 1), (b"a", 2), (b"c", 3)]
    want = [(b"a", 2), (b"b", 1), (b"c", 3)]
    ctx = types.SimpleNamespace(files=reference.RecordingFiles(str(tmp_path)))
    tuple_serde = serde.TupleSerde(serde.BYTES, serde.OptionalSerde(serde.INT64))
    limit = BUDGETS[budget]
    assert list(SortGroupByOperator(
        LEAD, KeepLast(), tuple_serde, limit
    ).grouped_stream(ctx, list(items))) == want
    assert list(HashSortGroupByOperator(
        LEAD, KeepLast(), limit
    ).grouped_stream(ctx, list(items))) == want


@pytest.mark.parametrize("budget", sorted(BUDGETS))
@pytest.mark.parametrize("combiner", [MinCombiner, MaxCombiner])
def test_hashsort_combines_a_none_message_on_both_sides(tmp_path, combiner, budget):
    """Min and max start from ``None``, and a nullable message keeps a
    state ``None``: both HashSort sides fold as their sort siblings do."""
    limit = BUDGETS[budget]
    nullable = serde.OptionalSerde(serde.FLOAT64)
    messages = [(1, None), (2, 1.0), (1, 2.0), (3, 3.0), (2, None), (4, None)]
    ctx = types.SimpleNamespace(files=reference.RecordingFiles(str(tmp_path)))
    sender = _SenderCombineAggregator(combiner(), nullable)
    want = list(SortGroupByOperator(
        LEAD, sender, serde.TupleSerde(serde.INT64, nullable), limit
    ).grouped_stream(ctx, list(messages[:4])))
    assert [key for key, _ in want] == [encode_key(vid) for vid in (1, 2, 3)]
    got = list(HashSortGroupByOperator(
        LEAD, sender, limit
    ).grouped_stream(ctx, list(messages[:4])))
    assert repr(got) == repr(want)

    receiver = _ReceiverCombineAggregator(combiner(), nullable)
    partials = [(encode_key(vid), payload) for vid, payload in messages]
    want = list(SortGroupByOperator(
        LEAD, receiver, serde.TupleSerde(serde.KEY, nullable), limit
    ).grouped_stream(ctx, list(partials)))
    assert [key for key, _ in want] == [encode_key(vid) for vid in (1, 2, 3, 4)]
    got = list(HashSortGroupByOperator(
        LEAD, receiver, limit
    ).grouped_stream(ctx, list(partials)))
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------
# a spilling HashSort reads its stream once
# ---------------------------------------------------------------------
class CountedReads(list):
    """A stream that counts the items read from it, over every iterator."""

    reads = 0

    def __iter__(self):
        for item in list.__iter__(self):
            self.reads += 1
            yield item


@pytest.mark.parametrize("combiner", [SumCombiner, MinCombiner])
def test_a_spilling_hashsort_reads_its_stream_once(tmp_path, combiner):
    """Every chunk of ``hash_fold`` goes on from where the last one
    stopped, so a table that spills again and again costs no more reads
    of the stream than one that never does (the receiver's width check
    reads it once more)."""
    rng = random.Random(5)
    messages = [(rng.randrange(1250), rng.uniform(-1.0, 1.0)) for _ in range(MESSAGES)]
    partials = [(encode_key(vid), payload) for vid, payload in messages]
    sides = (
        (_SenderCombineAggregator, messages, 1),
        (_ReceiverCombineAggregator, partials, 2),
    )
    for aggregator, items, passes in sides:
        files = reference.RecordingFiles(str(tmp_path))
        ctx = types.SimpleNamespace(files=files)
        stream = CountedReads(items)
        groups = list(HashSortGroupByOperator(
            LEAD, aggregator(combiner(), serde.FLOAT64), 1 << 10
        ).grouped_stream(ctx, stream))
        assert len(groups) == len({vid for vid, _ in messages})
        assert len(files.run_sizes) > 10
        assert stream.reads == passes * len(items)
