"""Checkpointing and recovery (paper Section 5.5), made durable.

At user-selected superstep boundaries the driver runs a checkpoint plan
that writes ``Vertex``, ``Msg`` (and ``Vid`` for the left-outer-join
plan) to HDFS, alongside a copy of GS. After a machine loss, the failure
manager reloads the latest checkpoint onto the surviving nodes with a
recovery plan that scans the checkpointed data and bulk loads fresh
indexes — checkpointing ``Msg`` is what lets user programs stay unaware
of failures.

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

import io
import json
import struct
import zlib

from repro.common.errors import CheckpointNotFound, ChecksumError
from repro.hyracks.job import JobSpec, OperatorDescriptor
from repro.hyracks.operators.index_ops import get_index
from repro.hyracks.storage.run_file import RunFileReader, RunFileWriter
from repro.pregelix.operators import runtime_state
from repro.pregelix.types import decode_global_state, encode_global_state

_FRAME = struct.Struct(">II")

#: The commit marker published by rename; its presence == committed.
MANIFEST_NAME = "MANIFEST"
MANIFEST_VERSION = 1
#: Staging prefix uncommitted files carry inside a superstep directory.
STAGING_PREFIX = "_tmp."
#: Committed checkpoint generations retained by GC (>= 2 so a corrupted
#: newest checkpoint still leaves a verified fallback).
MIN_RETAIN = 2


def pack_pairs(pairs):
    """Frame ``(key, value)`` byte pairs into one checkpoint blob."""
    buffer = io.BytesIO()
    for key, value in pairs:
        buffer.write(_FRAME.pack(len(key), len(value)))
        buffer.write(key)
        buffer.write(value)
    return buffer.getvalue()


def iter_pairs(blob):
    """Inverse of :func:`pack_pairs`."""
    offset = 0
    view = memoryview(blob)
    while offset < len(view):
        key_len, value_len = _FRAME.unpack_from(view, offset)
        offset += _FRAME.size
        key = bytes(view[offset : offset + key_len])
        offset += key_len
        value = bytes(view[offset : offset + value_len])
        offset += value_len
        yield key, value


class IndexCheckpointOperator(OperatorDescriptor):
    """Scans an index partition and writes it to HDFS as one blob."""

    def __init__(self, index_name, dfs, path_for_partition, name=None):
        super().__init__(name or "IndexCheckpoint(%s)" % index_name)
        self.index_name = index_name
        self.dfs = dfs
        self.path_for_partition = path_for_partition

    def run(self, ctx, partition, inputs):
        index = get_index(ctx, self.index_name, partition)
        blob = pack_pairs(index.scan())
        if ctx.fault_injector is not None:
            ctx.fault_injector.check(
                "checkpoint.write",
                node=ctx.node.node_id,
                index=self.index_name,
                partition=partition,
            )
        self.dfs.write(self.path_for_partition(partition), blob)
        ctx.io.record_read(len(blob))
        telemetry = getattr(ctx, "telemetry", None)
        if telemetry is not None:
            telemetry.event(
                "checkpoint.write",
                category="checkpoint",
                index=self.index_name,
                partition=partition,
                bytes=len(blob),
            )
        return {}


class IndexRestoreOperator(OperatorDescriptor):
    """Reads a checkpoint blob and bulk loads a fresh index from it."""

    def __init__(self, index_name, index_factory, dfs, path_for_partition, name=None):
        super().__init__(name or "IndexRestore(%s)" % index_name)
        self.index_name = index_name
        self.index_factory = index_factory
        self.dfs = dfs
        self.path_for_partition = path_for_partition

    def run(self, ctx, partition, inputs):
        from repro.hyracks.operators.index_ops import drop_index, register_index

        blob = self.dfs.read(self.path_for_partition(partition))
        drop_index(ctx, self.index_name, partition)
        index = self.index_factory(ctx, partition)
        index.bulk_load(iter_pairs(blob))
        register_index(ctx, self.index_name, partition, index)
        return {}


class MsgCheckpointOperator(OperatorDescriptor):
    """Copies the partition's local ``Msg`` run file into HDFS."""

    def __init__(self, run_id, dfs, path_for_partition, name=None):
        super().__init__(name or "MsgCheckpoint")
        self.run_id = run_id
        self.dfs = dfs
        self.path_for_partition = path_for_partition

    def run(self, ctx, partition, inputs):
        state = runtime_state(ctx, self.run_id)
        path = state["msg_files"].get(partition)
        pairs = RunFileReader(path, ctx.files) if path else []
        blob = pack_pairs(pairs)
        if ctx.fault_injector is not None:
            ctx.fault_injector.check(
                "checkpoint.write",
                node=ctx.node.node_id,
                index="msg",
                partition=partition,
            )
        self.dfs.write(self.path_for_partition(partition), blob)
        telemetry = getattr(ctx, "telemetry", None)
        if telemetry is not None:
            telemetry.event(
                "checkpoint.write",
                category="checkpoint",
                index="msg",
                partition=partition,
                bytes=len(blob),
            )
        return {}


class MsgRestoreOperator(OperatorDescriptor):
    """Rewrites the checkpointed ``Msg`` data as a local run file."""

    def __init__(self, run_id, superstep, dfs, path_for_partition, name=None):
        super().__init__(name or "MsgRestore")
        self.run_id = run_id
        self.superstep = superstep
        self.dfs = dfs
        self.path_for_partition = path_for_partition

    def run(self, ctx, partition, inputs):
        blob = self.dfs.read(self.path_for_partition(partition))
        path = ctx.files.create_temp_path(
            "msg-%s-p%d-restored-s%d" % (self.run_id, partition, self.superstep)
        )
        with RunFileWriter(path, ctx.files) as writer:
            for key, value in iter_pairs(blob):
                writer.append(key, value)
        runtime_state(ctx, self.run_id)["msg_files"][partition] = path
        return {}


# ---------------------------------------------------------------------
# manifest helpers (shared by the Checkpointer and `repro checkpoints`)
# ---------------------------------------------------------------------
def load_manifest(dfs, directory):
    """Parse a superstep directory's committed manifest.

    Raises :class:`CheckpointNotFound` when uncommitted, and surfaces
    :class:`ChecksumError` / ``ValueError`` for a damaged manifest.
    """
    path = directory.rstrip("/") + "/" + MANIFEST_NAME
    if not dfs.exists(path):
        raise CheckpointNotFound(path)
    return json.loads(dfs.read(path).decode("utf-8"))


def verify_checkpoint(dfs, directory):
    """Audit one superstep directory; returns a list of problems.

    An empty list means the checkpoint is committed and intact: the
    manifest parses, every listed file exists with the recorded size and
    whole-file CRC32, and the DFS's own block checksums still match the
    stored bytes.
    """
    directory = directory.rstrip("/")
    try:
        manifest = load_manifest(dfs, directory)
    except CheckpointNotFound:
        return ["no committed manifest"]
    except (ChecksumError, ValueError) as error:
        return ["manifest unreadable: %s" % error]
    problems = []
    files = manifest.get("files")
    if not isinstance(files, dict) or not files:
        return ["manifest lists no files"]
    for name in sorted(files):
        meta = files[name]
        path = directory + "/" + name
        if not dfs.exists(path):
            problems.append("%s: missing" % name)
            continue
        status = dfs.status(path)
        if status.length != meta.get("size"):
            problems.append(
                "%s: size %d != manifest %s (torn write?)"
                % (name, status.length, meta.get("size"))
            )
            continue
        bad_blocks = dfs.verify(path)
        if bad_blocks:
            problems.append(
                "%s: block checksum mismatch (block %s)"
                % (name, ", ".join(str(b) for b in bad_blocks))
            )
            continue
        if dfs.content_checksum(path) != meta.get("crc32"):
            # Stored bytes no longer match what the writer handed in —
            # the signature of a torn write, whose consistent prefix
            # passes every per-block CRC.
            problems.append("%s: stored content crc32 differs from manifest" % name)
    if "gs" not in files:
        problems.append("manifest carries no gs entry")
    return problems


class Checkpointer:
    """Builds checkpoint and recovery plans for one Pregelix run.

    :param retry: optional :class:`~repro.pregelix.failure.RetryPolicy`
        advanced around driver-side DFS reads during commit (partition
        blob writes already retry inside :class:`~repro.hdfs.MiniDFS`).
    :param retain: committed checkpoint generations kept by GC; clamped
        to at least :data:`MIN_RETAIN` so fallback always has a target.
    """

    def __init__(self, plan_generator, telemetry=None, retry=None, retain=MIN_RETAIN):
        self.gs_path = plan_generator.gs_path
        self.dfs = plan_generator.dfs
        self.job = plan_generator.job
        self.run_id = plan_generator.run_id
        self.telemetry = telemetry
        self.retry = retry
        self.retain = max(int(retain), MIN_RETAIN)

    def root(self):
        return "/pregelix/%s/ckpt" % self.run_id

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
        vertex = spec.add(
            IndexCheckpointOperator(
                generator.vertex_index,
                self.dfs,
                lambda p, s=superstep: self.staging_path(s, "vertex", p),
            )
        )
        vertex.partition_constraint = generator.partition_map.constraint()
        msg = spec.add(
            MsgCheckpointOperator(
                self.run_id,
                self.dfs,
                lambda p, s=superstep: self.staging_path(s, "msg", p),
            )
        )
        msg.partition_constraint = generator.partition_map.constraint()
        if self.job.needs_vid:
            vid = spec.add(
                IndexCheckpointOperator(
                    generator.vid_index,
                    self.dfs,
                    lambda p, s=superstep: self.staging_path(s, "vid", p),
                )
            )
            vid.partition_constraint = generator.partition_map.constraint()
        return spec

    # ------------------------------------------------------------------
    # the commit protocol
    # ------------------------------------------------------------------
    def commit(self, superstep, gs=None):
        """Publish checkpoint ``superstep``: GS copy, manifest, rename.

        ``gs`` is the in-memory :class:`~repro.pregelix.types.GlobalState`
        to snapshot; when omitted the primary DFS copy is read instead
        (the in-memory tuple is preferred — it cannot have been corrupted
        by a storage fault). The manifest rename is the single commit
        point; everything before it is invisible to recovery. Committing
        also garbage-collects superseded checkpoint generations.
        """
        directory = self.directory(superstep)
        if gs is not None:
            gs_data = encode_global_state(self.job.gs_codec(), gs)
        else:
            gs_data = self._read(self.gs_path)
        self.dfs.write(self.staging_path(superstep, "gs"), gs_data)

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
        if self.telemetry is not None:
            self.telemetry.event(
                "checkpoint.commit",
                category="checkpoint",
                run_id=self.run_id,
                superstep=superstep,
                files=len(files),
                bytes=total_bytes,
            )
        self.gc()

    def committed_supersteps(self):
        """Supersteps with a published manifest, ascending (no verify)."""
        supersteps = set()
        prefix = self.root() + "/"
        for path in self.dfs.list_files(self.root()):
            remainder = path[len(prefix):]
            step, _, what = remainder.partition("/")
            if step.isdigit() and what == MANIFEST_NAME:
                supersteps.add(int(step))
        return sorted(supersteps)

    def superstep_directories(self):
        """Every superstep directory present, committed or not."""
        supersteps = set()
        prefix = self.root() + "/"
        for path in self.dfs.list_files(self.root()):
            step = path[len(prefix):].partition("/")[0]
            if step.isdigit():
                supersteps.add(int(step))
        return sorted(supersteps)

    def verify(self, superstep):
        """Problems with checkpoint ``superstep`` (empty list = intact)."""
        problems = verify_checkpoint(self.dfs, self.directory(superstep))
        if not problems:
            try:
                manifest = load_manifest(self.dfs, self.directory(superstep))
            except (CheckpointNotFound, ChecksumError, ValueError):
                return ["manifest vanished during verification"]
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
                if superstep != newest and self.telemetry is not None:
                    self.telemetry.event(
                        "recovery.fallback",
                        category="checkpoint",
                        run_id=self.run_id,
                        superstep=superstep,
                        skipped=newest - superstep,
                    )
                return superstep
            if self.telemetry is not None:
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
        if removed and self.telemetry is not None:
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
        constraint = new_generator.partition_map.constraint()
        vertex = spec.add(
            IndexRestoreOperator(
                new_generator.vertex_index,
                new_generator._index_factory(),
                self.dfs,
                lambda p, s=superstep: self.path(s, "vertex", p),
            )
        )
        vertex.partition_constraint = constraint
        msg = spec.add(
            MsgRestoreOperator(
                self.run_id,
                superstep,
                self.dfs,
                lambda p, s=superstep: self.path(s, "msg", p),
            )
        )
        msg.partition_constraint = constraint
        if self.job.needs_vid:
            vid = spec.add(
                IndexRestoreOperator(
                    new_generator.vid_index,
                    new_generator._vid_factory(),
                    self.dfs,
                    lambda p, s=superstep: self.path(s, "vid", p),
                )
            )
            vid.partition_constraint = constraint
        return spec

    def restore_gs(self, superstep):
        """Read the GS tuple saved with checkpoint ``superstep``."""
        path = self.path(superstep, "gs")
        if not self.dfs.exists(path):
            raise CheckpointNotFound(path)
        # Also restore it as the primary copy.
        data = self._read(path)
        self.dfs.write(self.gs_path, data)
        return decode_global_state(self.job.gs_codec(), data)

    def _read(self, path):
        """A driver-side DFS read, retried when a policy is attached."""
        if self.retry is not None:
            return self.retry.call(
                lambda: self.dfs.read(path), describe="checkpoint.read %s" % path
            )
        return self.dfs.read(path)
