"""A shared-nothing parallel dataflow engine (the Hyracks analog).

Jobs are DAGs of *operators* (which consume and produce partitioned tuple
streams) and *connectors* (which redistribute tuples between operator
partitions). A cluster of simulated worker nodes executes one clone of
each operator per partition; a constraint-solving scheduler decides which
node runs which clone.

Subpackages:

``repro.hyracks.storage``
    Slotted pages, an LRU buffer cache with spill, run files, a page-based
    B-tree and an LSM B-tree — the access methods Pregelix stores the
    ``Vertex`` relation in.
``repro.hyracks.operators``
    Scans, external sort, the three group-by implementations, the two
    index outer joins, UDF-call and aggregation operators.
"""

from repro.hyracks.job import JobSpec, OperatorDescriptor, ConnectorDescriptor
from repro.hyracks.engine import HyracksCluster, NodeContext
from repro.hyracks.scheduler import (
    AbsoluteLocationConstraint,
    ChoiceLocationConstraint,
    CountConstraint,
)

__all__ = [
    "JobSpec",
    "OperatorDescriptor",
    "ConnectorDescriptor",
    "HyracksCluster",
    "NodeContext",
    "AbsoluteLocationConstraint",
    "ChoiceLocationConstraint",
    "CountConstraint",
]
