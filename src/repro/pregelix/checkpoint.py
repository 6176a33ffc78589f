"""Checkpointing and recovery (paper Section 5.5), made durable.

At user-selected superstep boundaries the driver runs a checkpoint plan
that writes ``Vertex``, ``Msg`` (and ``Vid`` for the left-outer-join
plan) to HDFS, alongside a copy of GS. After a machine loss, the failure
manager reloads the latest checkpoint onto the surviving nodes with a
recovery plan that scans the checkpointed data and bulk loads fresh
indexes — checkpointing ``Msg`` is what lets user programs stay unaware
of failures. Both plans are one loop over the run's node-local relations
(:meth:`~repro.pregelix.relations.RunRelations.node_local`) with one
operator pair: a blob is the run-file framing of the partition's
``(key, value)`` pairs, whether a B-tree or a sorted run holds them.

The paper assumes DFS checkpoints are durable and complete; this module
enforces it with an **atomic commit protocol**:

1. every partition blob is written under a ``_tmp.`` staging prefix
   inside the superstep directory;
2. at commit time the staged files are renamed to their final names and
   a ``MANIFEST`` — JSON listing every file with its size and CRC32,
   plus the superstep and a digest of GS — is written to staging and
   then published via ``rename``, the namespace's single atomic
   primitive. The manifest rename *is* the commit point: a checkpoint
   torn anywhere before it simply has no manifest and is never eligible
   for recovery.

``latest_checkpoint`` verifies manifests (existence, sizes, whole-file
CRCs, and the DFS's own block checksums) and falls back to the newest
checkpoint that *passes*, emitting ``checkpoint.verify_failed`` and
``recovery.fallback`` telemetry on the way. Superseded checkpoints are
garbage-collected after each commit, always retaining at least two
committed generations so a corrupted newest checkpoint still leaves a
verified fallback.
"""

import json
import zlib

from repro.common.errors import CheckpointNotFound, ChecksumError
from repro.hdfs.retry import RetryPolicy
from repro.hyracks.job import JobSpec, OperatorDescriptor
from repro.hyracks.operators.index_ops import drop_index, find_index, register_index
from repro.hyracks.storage.index import Index
from repro.hyracks.storage.run_file import iter_pairs, pack_pairs

#: The commit marker published by rename; its presence == committed.
MANIFEST_NAME = "MANIFEST"
MANIFEST_VERSION = 1
#: Staging prefix uncommitted files carry inside a superstep directory.
STAGING_PREFIX = "_tmp."
#: Committed checkpoint generations retained by GC (>= 2 so a corrupted
#: newest checkpoint still leaves a verified fallback).
MIN_RETAIN = 2


class IndexCheckpointOperator(OperatorDescriptor):
    """Scans a registered relation partition — an index or a sorted run —
    and writes it to HDFS as one blob; a partition nothing was ever
    loaded into is the empty relation. ``label`` is what the fault site
    and the telemetry event call the relation (default: its name)."""

    def __init__(self, index_name, dfs, path_for_partition, label=None, name=None):
        super().__init__(name or "IndexCheckpoint(%s)" % index_name)
        self.index_name = index_name
        self.dfs = dfs
        self.path_for_partition = path_for_partition
        self.label = label or index_name

    def run(self, ctx, partition, inputs):
        index = find_index(ctx, self.index_name, partition)
        if index is None:
            blob = b""
        elif isinstance(index, Index):
            blob = pack_pairs(index.scan())
        else:
            blob = index.packed()
        ctx.fault_injector.check(
            "checkpoint.write",
            node=ctx.node.node_id,
            index=self.label,
            partition=partition,
        )
        self.dfs.write(self.path_for_partition(partition), blob)
        if isinstance(index, Index):
            # An index is scanned through the buffer cache, which charges
            # only its misses: charge the copy as one sequential read. A
            # run's image is the blob, and a spilled run's reader has
            # charged the file manager for its own.
            ctx.io.record_read(len(blob))
        ctx.telemetry.event(
            "checkpoint.write",
            category="checkpoint",
            index=self.label,
            partition=partition,
            bytes=len(blob),
        )
        return {}


class IndexRestoreOperator(OperatorDescriptor):
    """Reads a checkpoint blob and bulk loads a fresh partition from it,
    in place of whatever the node held under that name; a sorted run
    adopts the blob as its image."""

    def __init__(self, index_name, index_factory, dfs, path_for_partition, name=None):
        super().__init__(name or "IndexRestore(%s)" % index_name)
        self.index_name = index_name
        self.index_factory = index_factory
        self.dfs = dfs
        self.path_for_partition = path_for_partition

    def run(self, ctx, partition, inputs):
        blob = self.dfs.read(self.path_for_partition(partition))
        drop_index(ctx, self.index_name, partition)
        index = self.index_factory(ctx, partition)
        if isinstance(index, Index):
            index.bulk_load(iter_pairs(blob))
        else:
            index.adopt(blob)
        register_index(ctx, self.index_name, partition, index)
        return {}


def load_manifest(dfs, directory):
    """Parse a superstep directory's committed manifest.

    Raises :class:`CheckpointNotFound` when uncommitted, and surfaces
    :class:`ChecksumError` / ``ValueError`` for a damaged manifest.
    """
    path = directory.rstrip("/") + "/" + MANIFEST_NAME
    if not dfs.exists(path):
        raise CheckpointNotFound(path)
    return json.loads(dfs.read(path).decode("utf-8"))


class Checkpointer:
    """Builds checkpoint and recovery plans for one Pregelix run.

    :param telemetry: the driver's session, which checkpoint events and
        the retries of :attr:`retry` land in.
    :param retain: committed checkpoint generations kept by GC; clamped
        to at least :data:`MIN_RETAIN` so fallback always has a target.

    :attr:`retry` is the :class:`~repro.hdfs.retry.RetryPolicy` around
    driver-side DFS reads and superstep-boundary faults (partition blob
    writes already retry inside :class:`~repro.hdfs.MiniDFS`).
    """

    def __init__(self, plan_generator, telemetry, retain=MIN_RETAIN):
        self.relations = plan_generator.relations
        self.dfs = plan_generator.dfs
        self.job = plan_generator.job
        self.run_id = plan_generator.run_id
        self.telemetry = telemetry
        self.retry = RetryPolicy(telemetry=telemetry)
        self.retain = max(int(retain), MIN_RETAIN)

    def root(self):
        return self.relations.root + "/ckpt"

    def directory(self, superstep):
        return "%s/%06d" % (self.root(), superstep)

    def path(self, superstep, what, partition=None):
        base = "%s/%s" % (self.directory(superstep), what)
        if partition is None:
            return base
        return "%s-p%05d" % (base, partition)

    def staging_path(self, superstep, what, partition=None):
        """Where a not-yet-committed checkpoint file is written."""
        name = what if partition is None else "%s-p%05d" % (what, partition)
        return "%s/%s%s" % (self.directory(superstep), STAGING_PREFIX, name)

    def manifest_path(self, superstep):
        return "%s/%s" % (self.directory(superstep), MANIFEST_NAME)

    # ------------------------------------------------------------------
    def checkpoint_plan(self, superstep, generator):
        """Snapshot Vertex, Msg (and Vid) for ``superstep`` into HDFS.

        ``generator`` carries the partition map currently in force (it
        changes under a run when it rebalances or recovers). Every blob
        lands under the staging prefix; nothing becomes visible to
        recovery until :meth:`commit` publishes the manifest.
        """
        spec = JobSpec("%s-ckpt-%d" % (self.job.name, superstep))
        for kind, name, _factory in generator.relations.node_local():
            operator = spec.add(
                IndexCheckpointOperator(
                    name,
                    self.dfs,
                    lambda p, kind=kind: self.staging_path(superstep, kind, p),
                    label=kind,
                )
            )
            operator.partition_constraint = generator.partition_map.constraint()
        return spec

    # ------------------------------------------------------------------
    # the commit protocol
    # ------------------------------------------------------------------
    def commit(self, superstep, gs):
        """Publish checkpoint ``superstep``: GS copy, manifest, rename.

        ``gs`` is the driver's in-memory
        :class:`~repro.pregelix.types.GlobalState` — unlike the primary
        DFS copy it cannot have been corrupted by a storage fault. The
        manifest rename is the single commit point; everything before it
        is invisible to recovery. Committing also garbage-collects
        superseded checkpoint generations.
        """
        directory = self.directory(superstep)
        gs_data = self.relations.write_gs(gs, self.staging_path(superstep, "gs"))

        prefix = directory + "/" + STAGING_PREFIX
        staged = [p for p in self.dfs.list_files(directory) if p.startswith(prefix)]
        files = {}
        total_bytes = 0
        for staged_path in staged:
            name = staged_path[len(prefix):]
            final_path = directory + "/" + name
            self.dfs.rename(staged_path, final_path, overwrite=True)
            status = self.dfs.status(final_path)
            files[name] = {"size": status.length, "crc32": self.dfs.checksum(final_path)}
            total_bytes += status.length
        manifest = {
            "version": MANIFEST_VERSION,
            "run_id": self.run_id,
            "superstep": superstep,
            "gs_crc32": zlib.crc32(gs_data) & 0xFFFFFFFF,
            "files": files,
        }
        staging_manifest = directory + "/" + STAGING_PREFIX + MANIFEST_NAME
        self.dfs.write(
            staging_manifest, json.dumps(manifest, sort_keys=True).encode("utf-8")
        )
        self.dfs.rename(staging_manifest, self.manifest_path(superstep), overwrite=True)
        self.telemetry.event(
            "checkpoint.commit",
            category="checkpoint",
            run_id=self.run_id,
            superstep=superstep,
            files=len(files),
            bytes=total_bytes,
        )
        self.gc()

    def _listing(self):
        """``{superstep: paths below its directory}`` for every superstep
        directory present, committed or not."""
        listing = {}
        prefix = self.root() + "/"
        for path in self.dfs.list_files(self.root()):
            step, _, what = path[len(prefix):].partition("/")
            if step.isdigit():
                listing.setdefault(int(step), set()).add(what)
        return listing

    def committed_supersteps(self):
        """Supersteps with a published manifest, ascending (no verify)."""
        return sorted(
            step for step, names in self._listing().items() if MANIFEST_NAME in names
        )

    def superstep_directories(self):
        """Every superstep directory present, committed or not."""
        return sorted(self._listing())

    def verify(self, superstep):
        """Audit checkpoint ``superstep``; returns a list of problems.

        An empty list means the checkpoint is committed and intact: the
        manifest parses and names this superstep and a ``gs`` entry,
        every listed file exists with the recorded size and whole-file
        CRC32, and the DFS's own block checksums still match the stored
        bytes.
        """
        directory = self.directory(superstep)
        try:
            manifest = load_manifest(self.dfs, directory)
        except CheckpointNotFound:
            return ["no committed manifest"]
        except (ChecksumError, ValueError) as error:
            return ["manifest unreadable: %s" % error]
        files = manifest.get("files")
        if not isinstance(files, dict) or not files:
            return ["manifest lists no files"]
        problems = []
        for name in sorted(files):
            meta = files[name]
            path = directory + "/" + name
            if not self.dfs.exists(path):
                problems.append("%s: missing" % name)
                continue
            status = self.dfs.status(path)
            if status.length != meta.get("size"):
                problems.append(
                    "%s: size %d != manifest %s (torn write?)"
                    % (name, status.length, meta.get("size"))
                )
                continue
            bad_blocks = self.dfs.verify(path)
            if bad_blocks:
                problems.append(
                    "%s: block checksum mismatch (block %s)"
                    % (name, ", ".join(str(b) for b in bad_blocks))
                )
                continue
            if self.dfs.content_checksum(path) != meta.get("crc32"):
                # Stored bytes no longer match what the writer handed in —
                # the signature of a torn write, whose consistent prefix
                # passes every per-block CRC.
                problems.append("%s: stored content crc32 differs from manifest" % name)
        if "gs" not in files:
            problems.append("manifest carries no gs entry")
        if manifest.get("superstep") != superstep:
            problems.append(
                "manifest says superstep %s, directory says %d"
                % (manifest.get("superstep"), superstep)
            )
        return problems

    def num_partitions(self, superstep):
        """How many partitions committed checkpoint ``superstep`` holds
        (it stores one ``vertex`` blob per partition)."""
        files = load_manifest(self.dfs, self.directory(superstep))["files"]
        return sum(1 for name in files if name.startswith("vertex-p"))

    def latest_checkpoint(self):
        """Most recent *committed and verified* superstep, or ``None``.

        Superstep directories without a published manifest are never
        considered; committed checkpoints that fail verification are
        reported (``checkpoint.verify_failed``) and skipped, falling
        back to the newest generation that passes
        (``recovery.fallback``).
        """
        candidates = self.committed_supersteps()
        newest = candidates[-1] if candidates else None
        for superstep in reversed(candidates):
            problems = self.verify(superstep)
            if not problems:
                if superstep != newest:
                    self.telemetry.event(
                        "recovery.fallback",
                        category="checkpoint",
                        run_id=self.run_id,
                        superstep=superstep,
                        skipped=newest - superstep,
                    )
                return superstep
            self.telemetry.event(
                "checkpoint.verify_failed",
                category="checkpoint",
                run_id=self.run_id,
                superstep=superstep,
                problems=len(problems),
                first_problem=problems[0],
            )
        return None

    def gc(self):
        """Drop superseded checkpoint generations and aborted staging.

        Keeps the newest ``retain`` *committed* generations; any other
        superstep directory — older commits and uncommitted wreckage
        from aborted attempts alike — is deleted recursively.
        """
        committed = self.committed_supersteps()
        keep = set(committed[-self.retain:])
        removed = []
        for superstep in self.superstep_directories():
            if superstep in keep:
                continue
            self.dfs.delete(self.directory(superstep), recursive=True)
            removed.append(superstep)
        if removed:
            self.telemetry.event(
                "checkpoint.gc",
                category="checkpoint",
                run_id=self.run_id,
                removed=removed,
                kept=sorted(keep),
            )

    # ------------------------------------------------------------------
    def recovery_plan(self, superstep, new_generator):
        """Reload checkpoint ``superstep`` onto the surviving nodes.

        ``new_generator`` carries the re-placed partition map; index
        names stay identical because the run id is unchanged.
        """
        spec = JobSpec("%s-recover-%d" % (self.job.name, superstep))
        for kind, name, factory in new_generator.relations.node_local():
            operator = spec.add(
                IndexRestoreOperator(
                    name,
                    factory,
                    self.dfs,
                    lambda p, kind=kind: self.path(superstep, kind, p),
                )
            )
            operator.partition_constraint = new_generator.partition_map.constraint()
        return spec

    def restore_gs(self, superstep):
        """Read the GS tuple saved with checkpoint ``superstep``."""
        path = self.path(superstep, "gs")
        if not self.dfs.exists(path):
            raise CheckpointNotFound(path)
        # Also restore it as the primary copy.
        return self.relations.adopt_gs(self._read(path))

    def _read(self, path):
        """A driver-side DFS read, retried in place."""
        return self.retry.call(
            lambda: self.dfs.read(path), describe="checkpoint.read %s" % path
        )
