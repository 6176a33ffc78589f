"""Property tests: the sort and group-by strategies keep their input.

For seeded random inputs, the external sort and all four group-by
strategies of the paper's taxonomy — {sort, hashsort} × {re-grouping
partitioning connector, pre-clustered merging connector} — must preserve
the input's combined ``(key, value)`` multiset, put each key on one
partition, and agree with each other on every key's values.

Memory budgets are deliberately tiny so each run exercises the spill and
multi-run merge paths, not just the in-memory fast path.
"""

import random
from collections import Counter

import pytest

from repro.common import serde
from repro.hyracks.connectors import (
    MToNPartitioningConnector,
    MToNPartitioningMergingConnector,
    OneToOneConnector,
)
from repro.hyracks.engine import HyracksCluster
from repro.hyracks.job import JobSpec
from repro.hyracks.operators.func import (
    CollectSinkOperator,
    GeneratorSourceOperator,
)
from repro.hyracks.operators.groupby import (
    HashSortGroupByOperator,
    ListAggregator,
    PreclusteredGroupByOperator,
    SortGroupByOperator,
)
from repro.hyracks.operators.sort import ExternalSortOperator

PAIR = serde.PairSerde(serde.INT64, serde.INT64)
NUM_NODES = 4
TUPLES_PER_PARTITION = 120
KEY_SPACE = 40  # far fewer keys than tuples: every key repeats
SPILL_BUDGET = 256  # bytes; ~16 tuples per in-memory run


def generate_input(seed, partition):
    rng = random.Random(100_000 * seed + partition)
    return [
        (rng.randrange(KEY_SPACE), rng.randrange(1_000_000))
        for _ in range(TUPLES_PER_PARTITION)
    ]


def expected_multiset(seed):
    return Counter(
        pair
        for partition in range(NUM_NODES)
        for pair in generate_input(seed, partition)
    )


def make_source(seed):
    return GeneratorSourceOperator(
        lambda ctx, partition: generate_input(seed, partition)
    )


def values_aggregator():
    """Collect each key's values into a tuple; key decoded for output."""
    return ListAggregator(
        value_fn=lambda t: t[1],
        output_fn=lambda key, values: (serde.decode_key(key), tuple(values)),
        value_serde=serde.INT64,
    )


def group_key(t):
    return serde.encode_key(t[0])


def sort_regroup_job(seed):
    """Partitioning connector, then a full sort-based group-by."""
    spec = JobSpec("sort-regroup")
    source = spec.add(make_source(seed))
    group = spec.add(
        SortGroupByOperator(
            group_key, values_aggregator(), PAIR, memory_limit_bytes=SPILL_BUDGET
        )
    )
    sink = spec.add(CollectSinkOperator("out"))
    spec.connect(MToNPartitioningConnector(key_fn=lambda t: t[0]), source, group)
    spec.connect(OneToOneConnector(), group, sink)
    return spec


def hashsort_regroup_job(seed):
    """Partitioning connector, then a full hashsort group-by."""
    spec = JobSpec("hashsort-regroup")
    source = spec.add(make_source(seed))
    group = spec.add(
        HashSortGroupByOperator(
            group_key, values_aggregator(), memory_limit_bytes=SPILL_BUDGET
        )
    )
    sink = spec.add(CollectSinkOperator("out"))
    spec.connect(MToNPartitioningConnector(key_fn=lambda t: t[0]), source, group)
    spec.connect(OneToOneConnector(), group, sink)
    return spec


def sort_merged_job(seed):
    """Sender-side external sort, merging connector, one-pass group-by."""
    spec = JobSpec("sort-merged")
    source = spec.add(make_source(seed))
    local_sort = spec.add(
        ExternalSortOperator(group_key, PAIR, memory_limit_bytes=SPILL_BUDGET)
    )
    group = spec.add(PreclusteredGroupByOperator(group_key, values_aggregator()))
    sink = spec.add(CollectSinkOperator("out"))
    spec.connect(OneToOneConnector(), source, local_sort)
    spec.connect(
        MToNPartitioningMergingConnector(
            key_fn=lambda t: t[0], sort_key_fn=group_key, tuple_serde=PAIR
        ),
        local_sort,
        group,
    )
    spec.connect(OneToOneConnector(), group, sink)
    return spec


def hashsort_merged_job(seed):
    """Sender-side partial group-by, merging connector, partial merge."""
    spec = JobSpec("hashsort-merged")
    source = spec.add(make_source(seed))
    local_group = spec.add(
        HashSortGroupByOperator(
            group_key,
            ListAggregator(
                value_fn=lambda t: t[1],
                output_fn=lambda key, values: (key, tuple(values)),
                value_serde=serde.INT64,
            ),
            memory_limit_bytes=SPILL_BUDGET,
        )
    )
    final_group = spec.add(
        PreclusteredGroupByOperator(
            lambda t: t[0],
            ListAggregator(
                value_fn=lambda t: t[1],
                output_fn=lambda key, chunks: (
                    serde.decode_key(key),
                    tuple(value for chunk in chunks for value in chunk),
                ),
            ),
        )
    )
    sink = spec.add(CollectSinkOperator("out"))
    spec.connect(OneToOneConnector(), source, local_group)
    spec.connect(
        MToNPartitioningMergingConnector(
            key_fn=lambda t: t[0], sort_key_fn=lambda t: t[0]
        ),
        local_group,
        final_group,
    )
    spec.connect(OneToOneConnector(), final_group, sink)
    return spec


def external_sort_job(seed):
    """Shuffle then spill-heavy external sort; no grouping."""
    spec = JobSpec("external-sort")
    source = spec.add(make_source(seed))
    sort = spec.add(
        ExternalSortOperator(
            lambda t: serde.encode_key(t[0]) + serde.encode_key(t[1]),
            PAIR,
            memory_limit_bytes=SPILL_BUDGET,
        )
    )
    sink = spec.add(CollectSinkOperator("out"))
    spec.connect(MToNPartitioningConnector(key_fn=lambda t: t[0]), source, sort)
    spec.connect(OneToOneConnector(), sort, sink)
    return spec


GROUP_BY_STRATEGIES = {
    "sort-regroup": sort_regroup_job,
    "hashsort-regroup": hashsort_regroup_job,
    "sort-merged": sort_merged_job,
    "hashsort-merged": hashsort_merged_job,
}


def run_collected(build_job, seed, tmp_path, tag):
    with HyracksCluster(
        num_nodes=NUM_NODES, root_dir=str(tmp_path / tag)
    ) as cluster:
        result = cluster.execute(build_job(seed))
    return result.collected["out"]


def flatten_groups(collected):
    return Counter(
        (key, value)
        for partition in collected.values()
        for key, values in partition
        for value in values
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("strategy", sorted(GROUP_BY_STRATEGIES))
def test_group_by_strategy_keeps_the_input_multiset(strategy, seed, tmp_path):
    collected = run_collected(GROUP_BY_STRATEGIES[strategy], seed, tmp_path, strategy)
    assert flatten_groups(collected) == expected_multiset(seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_external_sort_sorts_and_keeps_the_input_multiset(seed, tmp_path):
    collected = run_collected(external_sort_job, seed, tmp_path, "xsort")
    for tuples in collected.values():
        assert tuples == sorted(tuples)
    combined = Counter(
        pair for tuples in collected.values() for pair in tuples
    )
    assert combined == expected_multiset(seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_strategies_agree_on_grouped_content(seed, tmp_path):
    """All four strategies produce the same key → value-multiset map."""
    per_strategy = {}
    for strategy, build_job in GROUP_BY_STRATEGIES.items():
        collected = run_collected(build_job, seed, tmp_path, "x" + strategy)
        grouped = {}
        for partition in collected.values():
            for key, values in partition:
                assert key not in grouped  # each key lands on one partition
                grouped[key] = Counter(values)
        per_strategy[strategy] = grouped
    reference = per_strategy["sort-regroup"]
    for strategy, grouped in per_strategy.items():
        assert grouped == reference, strategy
