"""The built-in combiners' batch folds are their per-message loops.

``SumCombiner``, ``MinCombiner`` and ``MaxCombiner`` write their operator
into ``fold_sorted``, ``merge_rounds``, ``hash_fold`` and ``hash_merge``.
Each is held, over seeded random inputs, to ``init``/``accumulate``/
``merge`` called once per message as below — and to the
``Combiner`` defaults, which are that loop — by ``repr`` (the sign of a
zero, a NaN, an int against a float count) and by the exception raised.
"""

import itertools
import math
import random

import pytest

from repro.pregelix.api import Combiner, MaxCombiner, MinCombiner, SumCombiner

SEEDS = range(40)
FLOATS = (0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
          -5e-324, 2.2250738585072009e-308, 1.5, -2.25, 1e308)
NUMBERS = FLOATS + (0, 1, -3, 2 ** 53 + 1, True, False)


def payloads(name, rng):
    """What one message may carry: ``None`` too for min and max."""
    pool = NUMBERS + (None,) * 3 if name != "sum" else NUMBERS
    return lambda: rng.choice(pool)


COMBINERS = {"sum": SumCombiner, "min": MinCombiner, "max": MaxCombiner}


def outcome(function):
    """``repr`` of what ``function()`` returns, or its exception."""
    try:
        return repr(function())
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return "%s: %s" % (type(error).__name__, error)


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


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(COMBINERS))
def test_fold_sorted_is_the_accumulate_loop(name, seed):
    rng = random.Random(seed)
    combiner = COMBINERS[name]()
    items = sorted_messages(rng, payloads(name, rng), rng.randrange(60))
    want = outcome(lambda: fold_each(combiner, items))
    assert outcome(lambda: pairs(combiner.fold_sorted, items)) == want
    assert outcome(lambda: pairs(Combiner.fold_sorted.__get__(combiner), items)) == want


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(COMBINERS))
def test_merge_rounds_is_the_merge_loop(name, seed):
    rng = random.Random(seed)
    combiner = COMBINERS[name]()
    # Partials as senders ship them, ``None`` included for min and max.
    items = sorted_messages(rng, payloads(name, rng), rng.randrange(60), keys=8)
    rounds = rounds_of(rng, items)
    want = outcome(lambda: merge_each(combiner, items))
    got = outcome(lambda: list(itertools.chain.from_iterable(
        combiner.merge_rounds(iter(rounds))
    )))
    assert got == want
    # Round by round, the same runs close in the same list as the default's.
    assert outcome(lambda: list(combiner.merge_rounds(rounds))) == outcome(
        lambda: list(Combiner.merge_rounds(combiner, rounds))
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
    payload = payloads(name, rng)
    items = [(rng.randrange(15), payload()) for _ in range(rng.randrange(80))]
    rooms = [rng.randrange(1, 6) for _ in range(rng.randrange(8))]
    want = outcome(lambda: hash_chunks(
        getattr(Combiner, method).__get__(combiner), items, rooms
    ))
    assert outcome(lambda: hash_chunks(
        getattr(combiner, method), items, rooms
    )) == want
    # ... and the default is the loop itself.
    loop = fold_each if method == "hash_fold" else merge_each_unsorted
    assert outcome(lambda: list(dict(
        hash_chunks(getattr(Combiner, method).__get__(combiner), items, rooms)[1]
    ).items())) == outcome(lambda: loop(combiner, items))


def merge_each_unsorted(combiner, items):
    merged = {}
    for key, partial in items:
        merged[key] = combiner.merge(merged[key], partial) if key in merged else partial
    return list(merged.items())


@pytest.mark.parametrize("method", ["hash_fold", "hash_merge"])
@pytest.mark.parametrize("name", sorted(COMBINERS))
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
