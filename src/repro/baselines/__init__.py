"""Process-centric comparison systems (paper Section 7's competitors).

All of them run one BSP loop — :meth:`ProcessCentricBase.run
<repro.baselines.base.ProcessCentricBase.run>` — over the same user
vertex programs as Pregelix; a baseline is the *architecture* of one
comparison system expressed as that loop's hooks: what must be
memory-resident, how messages are held and delivered, what a superstep's
work costs. Failure points are not hard-coded: every engine charges its
actual data structures against the same per-worker byte budget the
Pregelix cluster uses, and dies with :class:`MemoryBudgetExceeded`
exactly when its architecture says it must.

* :class:`~repro.baselines.giraph.GiraphLikeEngine` — everything
  heap-resident (``mode="mem"``) or the preliminary out-of-core support
  that still keeps most of the vertex footprint resident
  (``mode="ooc"``); per-worker inboxes of sender-combined bundles.
* :class:`~repro.baselines.graphlab.GraphLabLikeEngine` — GAS with ghost
  vertex replication; fastest per-iteration on small data, memory grows
  with the replication factor.
* :class:`~repro.baselines.hama.HamaLikeEngine` — sorted vertex files but
  strictly memory-resident, uncombined, individually enveloped messages.
* :class:`~repro.baselines.graphx.GraphXLikeEngine` — RDD-style triplet
  dataflow whose load path materializes several collections at once and
  whose every iteration scans every triplet.

Graph mutations are applied by the loop where the architecture can
follow them (Giraph, Hama) and refused with a :class:`ReproError`
where a side structure is built once at load (GraphLab's ghost sets,
GraphX's triplets).
"""

from repro.baselines.base import BaselineOutcome, JVM_OBJECT_OVERHEAD
from repro.baselines.giraph import GiraphLikeEngine
from repro.baselines.graphlab import GraphLabLikeEngine
from repro.baselines.hama import HamaLikeEngine
from repro.baselines.graphx import GraphXLikeEngine

__all__ = [
    "BaselineOutcome",
    "JVM_OBJECT_OVERHEAD",
    "GiraphLikeEngine",
    "GraphLabLikeEngine",
    "HamaLikeEngine",
    "GraphXLikeEngine",
]
