"""The job service's one description: every knob, declared once.

:class:`ServeConfig` is the only place a service knob is named,
defaulted, range-checked and described. A field's ``metadata`` carries
its ``repro serve`` flag, help, argparse ``type`` and ``metavar``, and
``low``, the inclusive lower bound ``__post_init__`` enforces, so the
CLI adds the flags in one loop and :meth:`ServeConfig.from_args` reads
them back in one loop. ``checkpoint_interval`` and ``watchdog`` have no
flag: only the chaos drill and tests set them. ``parallelism`` has no
flag either and accepts only 1. Knobs nobody sets are
constants of the module that reads them (DESIGN.md §14 "Configuration").
"""

import os
from dataclasses import dataclass, field, fields

from repro.hyracks.engine import DEFAULT_NODE_MEMORY
from repro.serve.admission import TenantQuota
from repro.serve.autoscale import AutoscalePolicy


def _knob(help, flag=None, type=None, metavar=None, low=None, **argparse):
    return dict(flag=flag, help=help, type=type, metavar=metavar, low=low,
                **argparse)


def _mebibytes(text):
    return int(text) << 20


def _tenant_quota(spec):
    """``TENANT=W[:R[:Q[:F]]]`` as ``(tenant, TenantQuota)``."""
    tenant, sep, quota = spec.partition("=")
    if not sep or not tenant or not quota:
        raise ValueError("expected TENANT=W[:R[:Q[:F]]], got %r" % spec)
    return tenant, TenantQuota.parse(quota)


def _local_journal(path):
    return "file:%s" % os.path.abspath(path)


@dataclass(frozen=True)
class ServeConfig:
    """How one :class:`~repro.serve.service.JobService` is built and run."""

    num_nodes: int = field(default=4, metadata=_knob(
        "simulated machines in the resident cluster (ignored when the "
        "service is handed a cluster)", "--nodes", int, "N", low=1))
    workers: int = field(default=2, metadata=_knob(
        "dispatcher threads (job-level concurrency)",
        "--workers", int, "N", low=1))
    #: Always 1: a job's operator clones run one after another, and the
    #: field stays only for callers that still pass it (DESIGN.md §13).
    parallelism: int = field(default=1, metadata=_knob(
        "per-job operator-clone concurrency; 1 is the only value"))
    #: Bytes; the flag takes MiB.
    node_memory_bytes: int = field(default=DEFAULT_NODE_MEMORY, metadata=_knob(
        "per-node memory budget in MiB (default %d)" % (DEFAULT_NODE_MEMORY >> 20),
        "--node-memory-mb", _mebibytes, "MB", low=1))
    #: ``{tenant: TenantQuota}``; an unlisted tenant gets ``TenantQuota()``.
    quotas: dict = field(default_factory=dict, metadata=_knob(
        "tenant quota as weight[:max_running[:max_queued[:memory_fraction]]], "
        "memory_fraction in (0, 1] (repeatable)",
        "--quota", _tenant_quota, "TENANT=W[:R[:Q[:F]]]", action="append"))
    result_cache_capacity: int = field(default=64, metadata=_knob(
        "result-cache entries (0 disables)", "--result-cache", int, "N", low=0))
    #: An :class:`AutoscalePolicy`, or ``None`` for a fixed-size cluster.
    autoscale: AutoscalePolicy = field(default=None, metadata=_knob(
        "autoscale the resident cluster between MIN and MAX nodes (scale up "
        "on queue backlog, drain back down when idle)",
        "--autoscale", AutoscalePolicy.parse, "MIN:MAX"))
    #: ``file:<path>`` or ``dfs:<path>`` (see ``open_journal``); the flag
    #: takes a local directory.
    journal: str = field(default=None, metadata=_knob(
        "durable job journal in a local directory (fsync'd, so it survives "
        "kill -9), replayed on startup; enables restart recovery, forced "
        "checkpointing of served jobs and journal-latency shedding",
        "--journal", _local_journal, "DIR"))
    default_deadline_seconds: float = field(default=None, metadata=_knob(
        "wall-clock budget applied to submissions that do not carry their "
        "own deadline_seconds (enforced at superstep boundaries)",
        "--default-deadline", float, "S", low=0))
    checkpoint_interval: int = field(default=2, metadata=_knob(
        "superstep interval forced onto served jobs when a journal is "
        "attached (resume needs checkpoints to land on); jobs that set one "
        "keep theirs; 0 disables", low=0))
    shed_queue_depth: int = field(default=None, metadata=_knob(
        "shed new submissions (503 + Retry-After) once the queue holds N jobs",
        "--shed-queue-depth", int, "N", low=0))
    shed_append_seconds: float = field(default=None, metadata=_knob(
        "shed new submissions once the journal's rolling append latency "
        "exceeds S seconds", "--shed-append-seconds", float, "S", low=0))
    watchdog: bool = field(default=True, metadata=_knob(
        "run the stuck-job watchdog (DESIGN.md §16)"))
    batch_max: int = field(default=1, metadata=_knob(
        "coalesce up to N compatible queued point queries into one shared "
        "multi-query run (DESIGN.md §17; 1 disables batching)",
        "--batch-max", int, "N", low=1))
    batch_window: float = field(default=0.25, metadata=_knob(
        "seconds a batch leader waits for compatible queued jobs before "
        "dispatching (only with --batch-max > 1)",
        "--batch-window", float, "S", low=0))

    def __post_init__(self):
        # --quota arrives as (tenant, quota) pairs; the field holds a dict.
        object.__setattr__(self, "quotas", dict(self.quotas))
        for knob in fields(self):
            low, value = knob.metadata["low"], getattr(self, knob.name)
            if low is not None and value is not None and value < low:
                raise ValueError("%s must be >= %s, got %r" % (
                    knob.metadata["flag"] or knob.name, low, value))
        if self.parallelism != 1:
            raise ValueError("parallelism must be 1, got %r" % (self.parallelism,))
        if not isinstance(self.autoscale, (AutoscalePolicy, type(None))):
            raise TypeError("autoscale must be an AutoscalePolicy or None")
        if not isinstance(self.watchdog, bool):
            raise TypeError("watchdog must be a bool")

    @classmethod
    def from_args(cls, args):
        """The config a parsed ``repro serve`` command line describes; a
        flag left unset keeps its field's default."""
        given = ((knob.name, getattr(args, knob.name))
                 for knob in fields(cls) if knob.metadata["flag"])
        return cls(**{name: value for name, value in given if value is not None})
