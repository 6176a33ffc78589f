"""A Hama-like BSP engine (paper Sections 2.3 and 7).

Apache Hama stores vertices in immutable sorted files — limited
out-of-core support for the *vertex* data — but requires all messages to
be memory-resident, uncombined, with a heavy per-message envelope (Hama
messages are individually addressed BSP messages, not combined graph
messages). The result: it fails at even smaller dataset/RAM ratios than
GraphLab, and its per-superstep sort of the message queue makes it slow
where it does run — both visible in the paper's Figures 10 and 11.
"""

import bisect
import math

from repro.common import costmodel
from repro.baselines.base import (
    JVM_OBJECT_OVERHEAD,
    ProcessCentricBase,
    message_serialized_size,
)

#: Per-message BSP envelope (headers, addressing) on top of the payload.
MESSAGE_ENVELOPE_BYTES = 8
#: Hama wraps every vertex in heavyweight BSP/Writable machinery (its
#: vertices ride inside general BSP messages); this multiplies the plain
#: JVM object overhead.
HAMA_RUNTIME_OVERHEAD = 3.0


class HamaLikeEngine(ProcessCentricBase):
    """BSP with sorted-file vertices and memory-resident raw messages."""

    name = "hama"

    def __init__(self, num_workers, worker_memory_bytes):
        super().__init__(num_workers, worker_memory_bytes)
        # Per worker: the raw (vid, payload) messages held for the next
        # superstep, and the heap bytes charged for them.
        self.queues = [[] for _ in range(self.num_workers)]
        self.queue_bytes = [0] * self.num_workers

    def read_input(self, dfs, input_path, parse_line=None):
        partitions = super().read_input(dfs, input_path, parse_line)
        for rows in partitions:  # vertex files are sorted by vid
            rows.sort(key=lambda row: row[0])
        return partitions

    def charge_vertex(self, worker, nbytes, state):
        self.charge(
            worker,
            nbytes * JVM_OBJECT_OVERHEAD * HAMA_RUNTIME_OVERHEAD,
            "vertex store",
        )

    def begin_superstep(self):
        # Hama sorts each worker's raw message queue by destination
        # every superstep (no combiner support in this architecture).
        self.delivered = self.queues
        self.queues = [[] for _ in range(self.num_workers)]
        self.sort_seconds = 0.0
        for queue in self.delivered:
            queue.sort(key=lambda pair: pair[0])
            if queue:
                m = len(queue)
                self.sort_seconds += m * math.log2(max(m, 2)) * costmodel.HAMA_SORT
        self.arriving_bytes = [0] * self.num_workers
        self.remote_bytes = 0

    def deliveries(self, worker):
        store = self.stores[worker]
        inbox = self.delivered[worker]
        position = 0
        for vid in sorted(store):
            position = bisect.bisect_left(inbox, (vid,), lo=position)
            payloads = []
            cursor = position
            while cursor < len(inbox) and inbox[cursor][0] == vid:
                payloads.append(inbox[cursor][1])
                cursor += 1
            yield store[vid], payloads

    def send(self, worker, target, payload):
        dest = self.worker_of(target)
        wire_bytes = message_serialized_size(self.job, payload)
        nbytes = (wire_bytes + MESSAGE_ENVELOPE_BYTES) * JVM_OBJECT_OVERHEAD
        self.charge(dest, nbytes, "raw messages")
        self.arriving_bytes[dest] += nbytes
        if dest != worker:
            self.remote_bytes += wire_bytes
        self.queues[dest].append((target, payload))

    def barrier(self):
        for worker, held in enumerate(self.queue_bytes):
            if held:
                self.release(worker, held)
        self.queue_bytes = self.arriving_bytes
        return self.remote_bytes

    def work(self, touched, computes, messages):
        cpu = (
            touched * costmodel.GIRAPH_VERTEX_TOUCH
            + computes * costmodel.BASELINE_COMPUTE
            + messages * costmodel.HAMA_MESSAGE
            + self.sort_seconds
        )
        return cpu, 0.0
