"""Index access operators: scan, bulk load, and insert/delete.

Indexes live in each node's *runtime context* (the per-worker service
registry that, as in the paper, outlives individual jobs — the ``Vertex``
index must persist across the per-superstep jobs), addressed by
``(name, partition)``; only this module knows where that registry is.
"Index" is anything with ``bulk_load``/``scan``/``destroy``: a B-tree, an
LSM B-tree, or a :class:`~repro.hyracks.storage.run_file.RunFile`.
"""

from repro.common.errors import StorageError
from repro.hyracks.job import OperatorDescriptor

_REGISTRY = "indexes"


def register_index(ctx, name, partition, index):
    """Publish ``index`` in the node's runtime context."""
    ctx.services.setdefault(_REGISTRY, {})[(name, partition)] = index


def find_index(ctx, name, partition):
    """The registered index, or ``None`` when nothing was ever loaded."""
    return ctx.services.get(_REGISTRY, {}).get((name, partition))


def get_index(ctx, name, partition):
    """Look up a registered index; raises if missing."""
    index = find_index(ctx, name, partition)
    if index is None:
        raise StorageError(
            "no index %r partition %d registered on node %s"
            % (name, partition, ctx.node.node_id)
        )
    return index


def drop_index(ctx, name, partition):
    """Remove and destroy a registered index, if present."""
    index = ctx.services.get(_REGISTRY, {}).pop((name, partition), None)
    if index is not None:
        index.destroy()


def drop_indexes(node, names):
    """Drop every partition of the ``names`` indexes ``node`` holds."""
    # Snapshot with list(dict): atomic under the GIL, unlike a
    # comprehension — concurrent jobs (repro.serve) register their own
    # run-scoped indexes while another run is released.
    for name, partition in list(node.services.get(_REGISTRY, {})):
        if name in names:
            drop_index(node, name, partition)


def load_index(ctx, name, partition, index_factory, pairs):
    """Replace ``(name, partition)`` by a fresh index of sorted ``pairs``."""
    drop_index(ctx, name, partition)
    index = index_factory(ctx, partition)
    index.bulk_load(pairs)
    register_index(ctx, name, partition, index)


class IndexScanOperator(OperatorDescriptor):
    """Emits ``(key, value)`` pairs of the partition's registered index."""

    def __init__(self, index_name, low=None, high=None, name=None):
        super().__init__(name or "IndexScan(%s)" % index_name)
        self.index_name = index_name
        self.low = low
        self.high = high

    def run(self, ctx, partition, inputs):
        index = get_index(ctx, self.index_name, partition)
        return {self.OUT: list(index.scan(self.low, self.high))}


class IndexBulkLoadOperator(OperatorDescriptor):
    """Bulk loads sorted ``(key, value)`` input into a fresh index.

    Any existing index under the same name is destroyed first, so the
    operator is idempotent across supersteps (the ``Vid`` index of the
    left-outer-join plan is rebuilt each superstep this way).
    """

    def __init__(self, index_name, index_factory, name=None):
        super().__init__(name or "IndexBulkLoad(%s)" % index_name)
        self.index_name = index_name
        self.index_factory = index_factory

    def run(self, ctx, partition, inputs):
        (stream,) = inputs
        load_index(ctx, self.index_name, partition, self.index_factory, stream)
        return {}
