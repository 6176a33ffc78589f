"""A Giraph-like process-centric BSP engine (paper Section 2.2).

``mode="mem"`` keeps every partition's vertex objects and the message
stores on the worker heaps — the configuration Google's Pregel and
Giraph's default use, and the one that fails outright once the dataset
(times JVM object overhead) outgrows aggregate RAM.

``mode="ooc"`` models Giraph's *preliminary* out-of-core support as the
paper found it ("it does not yet work as expected"): vertices are kept
serialized and nominally spillable, but the partition store's working
set — read buffers, partition caches, and the partitions pinned while
computing — keeps most of the vertex footprint resident anyway, so the
failure point moves only slightly. The constant serialize/deserialize
churn also makes it visibly slower per iteration (paper Figure 11).
"""

from repro.common import costmodel
from repro.baselines.base import (
    JVM_OBJECT_OVERHEAD,
    BoundVertexState,
    ProcessCentricBase,
    message_serialized_size,
)

#: Fraction of the vertex heap footprint the "preliminary" out-of-core
#: support still keeps resident (pinned partitions + store buffers).
OOC_RESIDENT_FRACTION = 0.92
#: Giraph's message store keeps combined bundles serialized in byte
#: buffers (plus list/index bookkeeping) — much lighter than the object
#: heap, but not free.
MESSAGE_STORE_FACTOR = 1.4


class GiraphLikeEngine(ProcessCentricBase):
    """Process-centric BSP with in-memory ("mem") or spilled ("ooc") vertices."""

    def __init__(self, num_workers, worker_memory_bytes, mode="mem"):
        if mode not in ("mem", "ooc"):
            raise ValueError("mode must be 'mem' or 'ooc'")
        super().__init__(num_workers, worker_memory_bytes)
        self.mode = mode
        self.name = "giraph-%s" % mode
        # The message store is serialized in both modes; ooc drops the
        # in-heap bookkeeping on top.
        self._message_factor = MESSAGE_STORE_FACTOR if mode == "mem" else 1.0
        self.inboxes = [dict() for _ in range(self.num_workers)]  # vid -> payloads
        self.inbox_charges = [0] * self.num_workers

    # ------------------------------------------------------------------
    # the vertex store: heap objects, or serialized rows in ooc mode
    # ------------------------------------------------------------------
    def charge_vertex(self, worker, nbytes, state):
        if self.mode == "mem":
            self.charge(worker, nbytes * JVM_OBJECT_OVERHEAD, "vertices")
        else:
            self.charge(
                worker,
                nbytes * JVM_OBJECT_OVERHEAD * OOC_RESIDENT_FRACTION,
                "vertex store working set",
            )

    def keep(self, worker, state):
        entry = state
        if self.mode == "ooc":  # serialize on store-back
            entry = self.codec.dumps(state.row())
        self.stores[worker][state.vid] = entry

    def state_of(self, worker, vid):
        entry = self.stores[worker][vid]
        if self.mode == "ooc":  # deserialize on access
            halt, value, edges = self.codec.loads(entry)
            entry = BoundVertexState(vid, value, edges, halted=halt)
        return entry

    # ------------------------------------------------------------------
    # the message store: per-worker inboxes of sender-combined bundles
    # ------------------------------------------------------------------
    def begin_superstep(self):
        # Per destination worker: target vid -> combiner state.
        self.outboxes = [dict() for _ in range(self.num_workers)]

    def deliveries(self, worker):
        inbox = self.inboxes[worker]
        for vid in list(self.stores[worker]):
            yield self.state_of(worker, vid), inbox.get(vid)

    def send(self, worker, target, payload):
        # Sender-side combining, as real Giraph does.
        combiner = self.job.combiner
        box = self.outboxes[self.worker_of(target)]
        combined = box.get(target)
        if combined is None:
            combined = combiner.init()
        box[target] = combiner.accumulate(combined, payload)

    def barrier(self):
        # Drop last superstep's inbox, charge the combined bundles now
        # buffered at each receiver.
        job = self.job
        for worker, charged in enumerate(self.inbox_charges):
            if charged:
                self.release(worker, charged)
        self.inbox_charges = [0] * self.num_workers
        self.inboxes = [dict() for _ in range(self.num_workers)]
        bundle_bytes = 0
        for dest_worker, box in enumerate(self.outboxes):
            for target, state in box.items():
                payloads = list(job.combiner.expand(job.combiner.finish(state)))
                raw_bytes = sum(
                    message_serialized_size(job, payload) for payload in payloads
                )
                bundle_bytes += raw_bytes
                nbytes = raw_bytes * self._message_factor
                self.charge(dest_worker, nbytes, "message store")
                self.inbox_charges[dest_worker] += nbytes
                self.inboxes[dest_worker][target] = payloads
        return bundle_bytes * self.remote_fraction()

    def work(self, touched, computes, messages):
        """Every resident vertex object is touched (the process-centric
        store has no live-vertex index); compute calls and message
        objects add on top. In ooc mode each touched vertex also pays
        serialize/deserialize churn and the spilled store pays a disk
        round trip per superstep.
        """
        cpu = (
            touched * costmodel.GIRAPH_VERTEX_TOUCH
            + computes * costmodel.BASELINE_COMPUTE
            + messages * costmodel.GIRAPH_MESSAGE
        )
        if self.mode == "mem":
            return cpu, 0.0
        cpu += touched * costmodel.OOC_SERDE_CHURN
        store_bytes = sum(
            len(entry) for store in self.stores for entry in store.values()
        )
        return cpu, costmodel.disk_seconds(2 * store_bytes, self.num_workers)
