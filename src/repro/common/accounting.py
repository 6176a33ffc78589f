"""Resource accounting: per-worker memory budgets and I/O counters.

The paper's central experimental axis is *dataset size / aggregated RAM*.
To reproduce it on one machine we give every simulated worker a byte
budget. Engines differ only in what they charge against the budget:
process-centric baselines charge vertex and message state (and die when
it does not fit), while the Pregelix storage layer charges the ``Msg``
images it keeps resident and writes a run file for what the budget
refuses.

Where a number lives: each holder here is the one home of the counts
it keeps, and it knows nothing about who reads them. A node's
:class:`IOCounters` and a job's :class:`IOCounters`/:class:`Counters`
are read by the engine (``repro.hyracks.engine``), which diffs the node
holders into a ``JobResult`` and exports both kinds as metrics; nothing
is written twice.

All three classes are thread-safe: overlapping served jobs update them
concurrently.
"""

import threading

from repro.common.errors import MemoryBudgetExceeded


class MemoryBudget:
    """A byte allowance that raises when exceeded.

    >>> budget = MemoryBudget(100)
    >>> budget.allocate(60, what="vertices")
    >>> budget.used
    60
    >>> budget.release(10)
    >>> budget.remaining
    50
    """

    def __init__(self, capacity_bytes, name="worker"):
        if capacity_bytes < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = int(capacity_bytes)
        self.name = name
        self._used = 0
        self._peak = 0
        self._epoch = 0  # bumped by every reset
        self._lock = threading.Lock()

    @property
    def used(self):
        return self._used

    @property
    def peak(self):
        """High-water mark of allocated bytes since the last reset."""
        return self._peak

    @property
    def remaining(self):
        return self.capacity - self._used

    def allocate(self, nbytes, what=""):
        """Charge ``nbytes``; raise :class:`MemoryBudgetExceeded` if over.
        Returns the charge's epoch, for :meth:`release`."""
        nbytes = int(nbytes)
        with self._lock:
            if self._used + nbytes > self.capacity:
                raise MemoryBudgetExceeded(nbytes, self._used, self.capacity, what)
            self._used += nbytes
            if self._used > self._peak:
                self._peak = self._used
            return self._epoch

    def release(self, nbytes, epoch=None):
        """Give back ``nbytes``. With the ``epoch`` :meth:`allocate`
        returned, a charge that a :meth:`reset` has forgotten since is
        not given back a second time."""
        nbytes = int(nbytes)
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                return
            if nbytes > self._used:
                raise ValueError(
                    "releasing %d bytes but only %d allocated" % (nbytes, self._used)
                )
            self._used -= nbytes

    def reset(self):
        """Forget all charges *and* the high-water mark.

        A worker budget is reused across jobs (``NodeContext`` keeps one
        per node); resetting only ``_used`` would leak one job's peak
        into the next job's report.
        """
        with self._lock:
            self._used = 0
            self._peak = 0
            self._epoch += 1

    def __repr__(self):
        return "MemoryBudget(%s: %d/%d bytes, peak %d)" % (
            self.name,
            self._used,
            self.capacity,
            self._peak,
        )


class IOCounters:
    """Disk and network byte/operation counters for one component.

    A node's holder sees only disk traffic (its file manager, scans
    and checkpoints record into it); a job's holder sees what its
    connectors ship, plus the disk round trip of sender-side
    materialization. Thread-safe.
    """

    DISK_FIELDS = ("disk_reads", "disk_writes", "disk_read_bytes", "disk_write_bytes")
    FIELDS = DISK_FIELDS + ("network_bytes", "network_messages")

    def __init__(self):
        self.disk_reads = 0
        self.disk_writes = 0
        self.disk_read_bytes = 0
        self.disk_write_bytes = 0
        self.network_bytes = 0
        self.network_messages = 0
        self._lock = threading.Lock()

    def record_read(self, nbytes):
        with self._lock:
            self.disk_reads += 1
            self.disk_read_bytes += int(nbytes)

    def record_write(self, nbytes):
        with self._lock:
            self.disk_writes += 1
            self.disk_write_bytes += int(nbytes)

    def record_network(self, nbytes, messages=1):
        with self._lock:
            self.network_bytes += int(nbytes)
            self.network_messages += int(messages)

    def snapshot(self):
        with self._lock:
            return {field: getattr(self, field) for field in self.FIELDS}

    def __repr__(self):
        return "IOCounters(%r)" % (self.snapshot(),)


class Counters:
    """A free-form named-counter bag (the statistics collector's currency).

    One per job: operators ``add`` into it, the engine hands it out on
    the :class:`JobResult`. Thread-safe.
    """

    def __init__(self):
        self._values = {}
        self._lock = threading.Lock()

    def add(self, name, amount=1):
        with self._lock:
            self._values[name] = self._values.get(name, 0) + amount

    def get(self, name, default=0):
        return self._values.get(name, default)

    def snapshot(self):
        with self._lock:
            return dict(self._values)

    def __repr__(self):
        return "Counters(%r)" % (self._values,)
