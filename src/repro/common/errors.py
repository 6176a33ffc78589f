"""Exception hierarchy shared by every subsystem in the reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class MemoryBudgetExceeded(ReproError):
    """A worker tried to allocate past its simulated RAM budget.

    Process-centric engines (the Giraph/GraphLab/Hama/GraphX baselines)
    surface this as a job failure, which is exactly how the paper's
    comparison systems behave once the dataset-to-RAM ratio grows. The
    Pregelix engine never raises it for data: its storage layer spills
    instead.
    """

    def __init__(self, requested, used, budget, what=""):
        self.requested = int(requested)
        self.used = int(used)
        self.budget = int(budget)
        self.what = what
        super().__init__(
            "memory budget exceeded%s: requested %d bytes with %d/%d in use"
            % (" (%s)" % what if what else "", self.requested, self.used, self.budget)
        )


class SchedulingError(ReproError):
    """The constraint solver could not produce a valid task placement."""


class StorageError(ReproError):
    """An access-method or buffer-cache invariant was violated."""


class ChecksumError(StorageError):
    """Stored bytes no longer match their block checksum (bit rot / torn
    write / injected corruption). Carries the path and the offending
    block indexes so verification reports can point at the damage."""

    def __init__(self, path, blocks=()):
        self.path = path
        self.blocks = tuple(blocks)
        super().__init__(
            "checksum mismatch in %s (block%s %s)"
            % (
                path,
                "s" if len(self.blocks) != 1 else "",
                ", ".join(str(b) for b in self.blocks) or "?",
            )
        )


class JobFailure(ReproError):
    """A submitted job failed; carries the originating cause."""

    def __init__(self, message, cause=None):
        super().__init__(message)
        self.cause = cause


class WorkerFailure(ReproError):
    """An injected worker fault (power-off / disk error) during execution."""

    def __init__(self, node_id, kind="interruption"):
        self.node_id = node_id
        self.kind = kind
        super().__init__("worker %s failed (%s)" % (node_id, kind))


class TransientIOError(WorkerFailure):
    """A transient I/O fault (flaky DFS write, brief network blip).

    Unlike a machine ``interruption`` it is worth retrying in place with
    backoff before escalating to checkpoint recovery; ``kind`` is fixed
    to ``"transient_io"`` so the failure manager can classify it, and
    ``site`` records where it fired (retry wrappers only re-execute
    sites that are idempotent).
    """

    def __init__(self, node_id, site=""):
        super().__init__(node_id, kind="transient_io")
        self.site = site


class CheckpointNotFound(ReproError):
    """Recovery was requested but no usable checkpoint exists."""


class DeadlineExceeded(ReproError):
    """A job ran past its wall-clock budget.

    Raised cooperatively at a superstep boundary (the driver's
    ``boundary_hook``), never mid-plan, so the engine's state is always
    consistent when the run unwinds. Carries the budget and how far past
    it the run was when the boundary check fired.
    """

    def __init__(self, message, budget_seconds=None, elapsed_seconds=None):
        self.budget_seconds = budget_seconds
        self.elapsed_seconds = elapsed_seconds
        super().__init__(message)


class JobCancelled(ReproError):
    """A run was cancelled cooperatively at a superstep boundary.

    ``reason`` distinguishes a user-requested cancel (``"user"``) from a
    watchdog intervention (``"stuck"``) so the serving layer can decide
    between a CANCELLED terminal state and a retry/quarantine path.
    """

    def __init__(self, message, reason="user"):
        self.reason = reason
        super().__init__(message)


class ProcessCrashed(ReproError):
    """The process hosting a run died (simulated). A dead process cleans
    nothing — its checkpoints must stay for a successor to resume from —
    so code that releases state on failure lets this through untouched."""


class GraphMutationConflict(ReproError):
    """Unresolvable conflicting vertex mutations reached the resolver."""
