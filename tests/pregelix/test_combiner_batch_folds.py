"""Every combiner's batch folds are its per-message loops.

The group-bys call ``fold_sorted``, ``merge_rounds``, ``hash_fold`` and
``hash_merge``: the skeletons of ``batch_folds``, compiled over a
combiner's fold fragments. ``SumCombiner``, ``MinCombiner`` and
``MaxCombiner`` write theirs inline, and the multi-query lanes (here over
``MinCombiner``) write the inner combiner's inline around a tuple of
lanes; the default list combiner folds through the per-message calls.
Each is held, over seeded random inputs, to
``init``/``accumulate``/``merge`` called once per message as below — and
to the compiled default folds, which are that loop — by ``repr`` (the
sign of a zero, a NaN, an int against a float count) and by the
exception raised. A subclass that overrides ``accumulate`` is folded
with its override, under both group-bys.
"""

import copy
import itertools
import math
import operator
import random
import types

import pytest

from repro.algorithms import pagerank
from repro.common import serde
from repro.common.serde import encode_key
from repro.hyracks.operators.groupby import batch_folds
from repro.pregelix import GroupByStrategy
from repro.pregelix.api import (
    Combiner,
    DefaultListCombiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.pregelix.multiquery import MultiQueryCombiner
from repro.pregelix.physical import PartitionMap, PlanGenerator
from repro.pregelix.types import GlobalState

SEEDS = range(40)
FLOATS = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
          -5e-324, 2.2250738585072009e-308, 1.5, -2.25, 1e308)
NUMBERS = FLOATS + (0, 1, -3, 2 ** 53 + 1, True, False)

COMBINERS = {
    "sum": SumCombiner,
    "min": MinCombiner,
    "max": MaxCombiner,
    "list": DefaultListCombiner,
    "multiquery": lambda: MultiQueryCombiner(MinCombiner(), serde.FLOAT64, 3),
}
#: The combiners whose messages and partials are both scalars.
SCALARS = ["max", "min", "sum"]


def payloads(name, rng):
    """What one message may carry: ``None`` too but for sum, and tagged
    with one of three lanes for the multi-query lanes."""
    pool = NUMBERS + (None,) * 3 if name != "sum" else NUMBERS
    if name == "multiquery":
        return lambda: (rng.randrange(3), rng.choice(pool))
    return lambda: rng.choice(pool)


def partials(name, rng):
    """What a sender ships: a scalar combiner's message as it is
    (``None`` included), any other's state of one message."""
    payload = payloads(name, rng)
    if name in SCALARS:
        return payload
    combiner = COMBINERS[name]()
    return lambda: combiner.accumulate(combiner.init(), payload())


def outcome(function, items):
    """``repr`` of what ``function`` returns over a fresh copy of
    ``items`` (a merge may extend a partial in place), or its exception."""
    try:
        return repr(function(copy.deepcopy(items)))
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return "%s: %s" % (type(error).__name__, error)


def default_fold(combiner, method):
    """The compiled default fold: ``method``'s skeleton over the
    per-message fragments, calling ``combiner``'s own methods."""
    folds = batch_folds(
        Combiner.fold_source, combiner.init, combiner.accumulate, combiner.merge
    )
    return folds[method]


def sorted_messages(rng, payload, count, keys=12):
    """``(vid, payload)`` messages sorted by vid, arrival order kept."""
    messages = [(rng.randrange(keys), payload()) for _ in range(count)]
    return sorted(messages, key=lambda message: message[0])


def rounds_of(rng, items):
    """``items`` cut at random places into lists, empty ones among them."""
    cuts = sorted(rng.randrange(len(items) + 1) for _ in range(rng.randrange(5)))
    bounds = [0] + cuts + [len(items)]
    return [items[start:end] for start, end in zip(bounds, bounds[1:])]


def pairs(fold_sorted, items):
    """What ``fold_sorted(items)`` folded, as ``(vid, state)`` pairs."""
    vids, states = fold_sorted(items)
    assert len(vids) == len(states)
    return list(zip(vids, states))


# ---------------------------------------------------------------------
# the per-message loops
# ---------------------------------------------------------------------
def fold_each(combiner, items):
    folded = {}
    order = []
    for vid, payload in items:
        if vid not in folded:
            order.append(vid)
            folded[vid] = combiner.init()
        folded[vid] = combiner.accumulate(folded[vid], payload)
    return [(vid, folded[vid]) for vid in order]


def merge_each(combiner, items):
    merged = []
    for key, partial in items:
        if merged and merged[-1][0] == key:
            merged[-1] = (key, combiner.merge(merged[-1][1], partial))
        else:
            merged.append((key, partial))
    return merged


def merge_each_unsorted(combiner, items):
    merged = {}
    for key, partial in items:
        merged[key] = combiner.merge(merged[key], partial) if key in merged else partial
    return list(merged.items())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(COMBINERS))
def test_fold_sorted_is_the_accumulate_loop(name, seed):
    rng = random.Random(seed)
    combiner = COMBINERS[name]()
    items = sorted_messages(rng, payloads(name, rng), rng.randrange(60))
    want = outcome(lambda items: fold_each(combiner, items), items)
    assert outcome(lambda items: pairs(combiner.fold_sorted, items), items) == want
    default = default_fold(combiner, "fold_sorted")
    assert outcome(lambda items: pairs(default, items), items) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(COMBINERS))
def test_merge_rounds_is_the_merge_loop(name, seed):
    rng = random.Random(seed)
    combiner = COMBINERS[name]()
    # Partials as senders ship them, ``None`` included for min and max.
    items = sorted_messages(rng, partials(name, rng), rng.randrange(60), keys=8)
    rounds = rounds_of(rng, items)
    want = outcome(lambda items: merge_each(combiner, items), items)
    got = outcome(lambda rounds: list(itertools.chain.from_iterable(
        combiner.merge_rounds(iter(rounds))
    )), rounds)
    assert got == want
    # Round by round, the same runs close in the same list as the default's.
    default = default_fold(combiner, "merge_rounds")
    assert outcome(lambda rounds: list(combiner.merge_rounds(rounds)), rounds) == outcome(
        lambda rounds: list(default(rounds)), rounds
    )


def test_a_run_spans_rounds():
    rounds = [[(b"a", 1.0), (b"b", 2.0)], [], [(b"b", 3.0)], [(b"b", 4.0), (b"c", 0.5)]]
    assert list(SumCombiner().merge_rounds(rounds)) == [
        [(b"a", 1.0)], [], [], [(b"b", 9.0)], [(b"c", 0.5)],
    ]
    assert list(SumCombiner().merge_rounds([])) == []


def hash_chunks(fold, items, rooms):
    """Drive ``fold`` over one iterator of ``items`` with the given rooms,
    then to the end: every count of keys added, and the table."""
    table = {}
    stream = iter(items)
    returned = []
    for room in rooms:
        added = fold(table, stream, room)
        returned.append(added)
        if added < room:
            break
    else:
        returned.append(fold(table, stream, len(items) + 1))
    return returned, list(table.items())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", ["hash_fold", "hash_merge"])
@pytest.mark.parametrize("name", sorted(COMBINERS))
def test_hash_folds_are_the_per_message_loop(name, method, seed):
    rng = random.Random(seed)
    combiner = COMBINERS[name]()
    item = (payloads if method == "hash_fold" else partials)(name, rng)
    items = [(rng.randrange(15), item()) for _ in range(rng.randrange(80))]
    rooms = [rng.randrange(1, 6) for _ in range(rng.randrange(8))]
    default = default_fold(combiner, method)
    want = outcome(lambda items: hash_chunks(default, items, rooms), items)
    assert outcome(
        lambda items: hash_chunks(getattr(combiner, method), items, rooms), items
    ) == want
    # ... and the default is the loop itself.
    loop = fold_each if method == "hash_fold" else merge_each_unsorted
    assert outcome(
        lambda items: list(dict(hash_chunks(default, items, rooms)[1]).items()), items
    ) == outcome(lambda items: loop(combiner, items), items)


@pytest.mark.parametrize("method", ["hash_fold", "hash_merge"])
@pytest.mark.parametrize("name", SCALARS)
def test_a_hash_chunk_stops_right_after_the_key_that_fills_the_room(name, method):
    combiner = COMBINERS[name]()
    fold = getattr(combiner, method)
    items = iter([(1, 1.0), (2, 2.0), (1, 3.0), (3, 4.0), (2, 5.0), (3, 6.0)])
    table = {}
    # The room ends exactly on the budget: the third new key is item 3,
    # and the chunk stops right after it.
    assert fold(table, items, 3) == 3
    assert list(table) == [1, 2, 3]
    assert next(items) == (2, 5.0)
    # Already-held keys add nothing: the items run out first.
    assert fold(table, items, 1) == 0
    assert fold(table, items, 1) == 0
    assert fold({}, iter([]), 1) == 0


def test_a_sum_opens_a_run_from_init():
    """``0.0 + -0.0`` is ``0.0``: a lone negative zero does not survive
    the sender's fold, but a partial is merged as it is."""
    combiner = SumCombiner()
    assert repr(pairs(combiner.fold_sorted, [(1, -0.0)])) == "[(1, 0.0)]"
    table = {}
    combiner.hash_fold(table, iter([(1, -0.0)]), 1)
    assert repr(table) == "{1: 0.0}"
    assert repr(list(combiner.merge_rounds([[(b"k", -0.0)]]))) == "[[], [(b'k', -0.0)]]"
    table = {}
    combiner.hash_merge(table, iter([(b"k", -0.0)]), 1)
    assert repr(table) == "{b'k': -0.0}"
    # Left to right, as the loop: compensated summation would give 1.0.
    big = [(1, 1.0), (1, 1e100), (1, 1.0), (1, -1e100)]
    assert pairs(combiner.fold_sorted, big) == [(1, 0.0)]


@pytest.mark.parametrize("name", ["min", "max"])
def test_the_first_extreme_wins(name):
    combiner = COMBINERS[name]()
    nan = float("nan")
    ((_, state),) = pairs(combiner.fold_sorted, [(1, nan), (1, 1.0)])
    assert math.isnan(state)
    assert pairs(combiner.fold_sorted, [(1, 1.0), (1, nan)]) == [(1, 1.0)]
    assert repr(pairs(combiner.fold_sorted, [(1, 0.0), (1, -0.0)])) == "[(1, 0.0)]"
    assert repr(pairs(combiner.fold_sorted, [(1, -0.0), (1, 0.0)])) == "[(1, -0.0)]"
    ((_, state),) = pairs(combiner.fold_sorted, [(1, 1), (1, 1.0), (1, True)])
    assert type(state) is int
    # A ``None`` message opens a state; after one, it is refused as
    # ``min``/``max`` refuse it. A ``None`` partial merges to nothing.
    assert pairs(combiner.fold_sorted, [(1, None), (1, 2.0)]) == [(1, 2.0)]
    with pytest.raises(TypeError):
        pairs(combiner.fold_sorted, [(1, 2.0), (1, None)])
    assert list(combiner.merge_rounds([[(b"k", 2.0), (b"k", None)]])) == [[], [(b"k", 2.0)]]


# ---------------------------------------------------------------------
# an override is folded as written
# ---------------------------------------------------------------------
class DoubledSum(SumCombiner):
    """A sum that counts every message twice: an ``accumulate`` override
    the inline ``+`` must not hide."""

    def accumulate(self, state, payload):
        return state + 2 * payload


def doubled_messages(count=400, keys=40):
    rng = random.Random(count)
    return [(rng.randrange(keys), float(rng.randrange(100))) for _ in range(count)]


def test_an_overridden_accumulate_is_folded_as_written():
    messages = doubled_messages()
    want = sorted(fold_each(DoubledSum(), messages))
    assert pairs(DoubledSum().fold_sorted, sorted(messages, key=operator.itemgetter(0))) == want
    assert sorted(hash_chunks(DoubledSum().hash_fold, messages, [3, 1, 5])[1]) == want


@pytest.mark.parametrize("strategy", list(GroupByStrategy))
def test_a_superstep_folds_an_overridden_accumulate_as_written(dfs, strategy):
    """The sender and receiver group-bys of a superstep plan, two senders
    feeding one receiver, against the per-message loops."""
    job = pagerank.build_job(groupby_strategy=strategy)
    job.combiner = DoubledSum()
    spec = PlanGenerator(job, dfs, "doubled", PartitionMap(["node0"])).superstep_plan(
        GlobalState()
    )
    (sender,) = [op for op in spec.operators if op.name.startswith("Sender")]
    (edge,) = [edge for edge in spec.edges if edge.producer is sender]
    receiver = edge.consumer
    ctx = types.SimpleNamespace(files=None)
    messages = doubled_messages()
    halves = messages[:150], messages[150:]
    shipped = sorted(
        itertools.chain.from_iterable(
            list(sender.grouped_stream(ctx, list(half))) for half in halves
        ),
        key=operator.itemgetter(0),
    )
    combiner = DoubledSum()
    want = sorted(
        itertools.chain.from_iterable(
            ((encode_key(vid), state) for vid, state in fold_each(combiner, half))
            for half in halves
        ),
        key=operator.itemgetter(0),
    )
    assert shipped == want
    assert list(receiver.grouped_stream(ctx, shipped)) == merge_each(combiner, want)
