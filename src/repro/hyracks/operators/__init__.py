"""The Hyracks operator library used by the Pregelix physical plans."""

from repro.hyracks.operators.func import (
    CollectSinkOperator,
    FilterOperator,
    GeneratorSourceOperator,
    MapOperator,
    UnionOperator,
)
from repro.hyracks.operators.sort import ExternalSortOperator
from repro.hyracks.operators.groupby import (
    GroupAggregator,
    HashSortGroupByOperator,
    ListAggregator,
    PreclusteredGroupByOperator,
    SortGroupByOperator,
)
from repro.hyracks.operators.aggregate import (
    GlobalAggregateOperator,
    LocalAggregateOperator,
)
from repro.hyracks.operators.index_ops import (
    IndexBulkLoadOperator,
    IndexScanOperator,
)
from repro.hyracks.operators.join import (
    IndexFullOuterJoinOperator,
    IndexLeftOuterJoinOperator,
    MergeChooseOperator,
)
from repro.hyracks.operators.scan import HDFSScanOperator, HDFSWriteOperator

__all__ = [
    "CollectSinkOperator",
    "FilterOperator",
    "GeneratorSourceOperator",
    "MapOperator",
    "UnionOperator",
    "ExternalSortOperator",
    "GroupAggregator",
    "ListAggregator",
    "PreclusteredGroupByOperator",
    "SortGroupByOperator",
    "HashSortGroupByOperator",
    "LocalAggregateOperator",
    "GlobalAggregateOperator",
    "IndexBulkLoadOperator",
    "IndexScanOperator",
    "IndexFullOuterJoinOperator",
    "IndexLeftOuterJoinOperator",
    "MergeChooseOperator",
    "HDFSScanOperator",
    "HDFSWriteOperator",
]
