"""Timing wrappers installed around each layer's public functions at run time.

This PR measures layers only from outside: nothing under ``src/`` knows
it is being traced. :class:`Tracer.install` replaces class attributes
with wrappers and :meth:`Tracer.uninstall` puts the original objects
back. End-to-end numbers are never taken while a tracer is installed.

Every wrapper keeps a per-thread stack of frames, so a layer's **self
time** is its own duration minus the time its children covered. Four
wrapper kinds trade detail for overhead:

``span``  pushes a frame and records ``{id, name, layer, start, end,
          parent, repeat}`` — used where calls are few (jobs, operators,
          connectors, bulk loads, journal appends).
``gen``   the same for generator functions; time is accumulated across
          ``next()`` calls, so the consumer's work between two items is
          not charged to the generator.
``call``  pushes a frame (children are attributed) but records no span:
          calls are aggregated per ``(name, parent span)``. Used for
          per-key B-tree/LSM operations (tens of thousands per run).
``leaf``  no frame at all, aggregated the same way. Used for serde and
          buffer-cache page operations (millions per run), which call
          nothing that is wrapped. Nested serde calls (a tuple serde
          encoding its fields) pass straight through: only the
          outermost call is counted and timed.
"""

import functools
import itertools
import json
import os
import statistics
import threading
import time

_perf = time.perf_counter

#: Layers whose self time is reported as ``<layer>.self_s``; the keys are
#: the metric prefixes (README.md maps them to module names).
LAYERS = (
    "serde", "operators", "sort", "groupby", "connectors", "buffer_cache",
    "btree", "lsm", "engine", "driver", "checkpoint", "hdfs",
    "serve.journal", "serve.queue",
)


class _ThreadState:
    __slots__ = ("stack", "self_s", "agg", "spans", "counts", "in_serde")

    def __init__(self, aggregated_wrappers):
        self.stack = []      # frames: [span id, layer, child seconds]
        self.self_s = {}     # layer -> self seconds of recorded spans
        # one {parent span id: [calls, seconds, self seconds]} per
        # aggregated (leaf/call) wrapper, indexed like Tracer._aggregated
        self.agg = [{} for _ in range(aggregated_wrappers)]
        self.spans = []      # (id, name, layer, start, end, parent, busy, self)
        self.counts = {}     # free-form counters (tuples, bytes, ...)
        self.in_serde = False


def _all_subclasses(cls):
    seen = []
    todo = [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def _defining(base, attr):
    """``base`` and every subclass that defines ``attr`` itself."""
    return [cls for cls in _all_subclasses(base) if attr in cls.__dict__]


class Tracer:
    """One traced repeat of one workload."""

    def __init__(self, workload, repeat=0):
        self.workload = workload
        self.repeat = repeat
        self._local = threading.local()
        self._states = []
        self._ids = itertools.count(1)
        self._patched = []
        self._aggregated = []  # (name, layer) of every leaf/call wrapper

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------
    def _new_state(self):
        state = self._local.state = _ThreadState(len(self._aggregated))
        self._states.append(state)
        return state

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            return self._new_state()

    def count(self, name, amount=1):
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def peak(self, name, value):
        """Keep the largest ``value`` seen (``name`` starts with ``peak.``)."""
        counts = self._state().counts
        counts[name] = max(counts.get(name, 0), value)

    # ------------------------------------------------------------------
    # wrapper factories (the two aggregated kinds are the hot ones: state
    # lookup and bookkeeping are inlined to keep per-call cost low)
    # ------------------------------------------------------------------
    def _aggregate_slot(self, layer, name):
        self._aggregated.append((name, layer))
        return len(self._aggregated) - 1

    def leaf(self, layer, name, serde=False):
        local = self._local
        new_state = self._new_state
        slot = self._aggregate_slot(layer, name)

        def decorate(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                if serde:
                    if state.in_serde:
                        return func(*args, **kwargs)
                    state.in_serde = True
                started = _perf()
                try:
                    return func(*args, **kwargs)
                finally:
                    seconds = _perf() - started
                    if serde:
                        state.in_serde = False
                    stack = state.stack
                    if stack:
                        top = stack[-1]
                        top[2] += seconds
                        parent = top[0]
                    else:
                        parent = 0
                    entry = state.agg[slot].get(parent)
                    if entry is None:
                        state.agg[slot][parent] = [1, seconds, seconds]
                    else:
                        entry[0] += 1
                        entry[1] += seconds
                        entry[2] += seconds

            return wrapper

        return decorate

    def call(self, layer, name):
        local = self._local
        new_state = self._new_state
        slot = self._aggregate_slot(layer, name)

        def decorate(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                stack = state.stack
                parent = stack[-1][0] if stack else 0
                frame = [parent, layer, 0.0]
                stack.append(frame)
                started = _perf()
                try:
                    return func(*args, **kwargs)
                finally:
                    seconds = _perf() - started
                    stack.pop()
                    if stack:
                        stack[-1][2] += seconds
                    entry = state.agg[slot].get(parent)
                    if entry is None:
                        state.agg[slot][parent] = [1, seconds, seconds - frame[2]]
                    else:
                        entry[0] += 1
                        entry[1] += seconds
                        entry[2] += seconds - frame[2]

            return wrapper

        return decorate

    def span(self, layer, name, after=None):
        """``name`` is a string or ``callable(args) -> str``; ``after`` is
        ``callable(tracer, args, result)`` run outside the timed region."""
        get_state = self._state
        ids = self._ids

        def decorate(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                state = get_state()
                stack = state.stack
                parent = stack[-1][0] if stack else 0
                frame = [next(ids), layer, 0.0]
                stack.append(frame)
                started = _perf()
                try:
                    result = func(*args, **kwargs)
                finally:
                    ended = _perf()
                    seconds = ended - started
                    stack.pop()
                    if stack:
                        stack[-1][2] += seconds
                    self_seconds = seconds - frame[2]
                    state.self_s[layer] = state.self_s.get(layer, 0.0) + self_seconds
                    label = name if isinstance(name, str) else name(args)
                    state.spans.append(
                        (frame[0], label, layer, started, ended, parent,
                         seconds, self_seconds)
                    )
                if after is not None:
                    after(self, args, result)
                return result

            return wrapper

        return decorate

    def gen(self, layer, name, stream_arg=None, out_counter=None):
        """Wrap a generator function; ``stream_arg`` is the index of the
        positional argument holding the input tuples (the engine hands
        operators lists), counted under ``<layer>.tuples_in``; yielded
        items count under ``out_counter``."""
        tracer = self

        def decorate(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if stream_arg is not None:
                    tracer.count(layer + ".tuples_in", len(args[stream_arg]))
                return tracer._drive(func(*args, **kwargs), layer, name, out_counter)

            return wrapper

        return decorate

    def _drive(self, generator, layer, name, out_counter):
        state = self._state()
        stack = state.stack
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), layer, 0.0]
        busy = 0.0
        produced = 0
        started = _perf()
        try:
            while True:
                stack.append(frame)
                resumed = _perf()
                try:
                    item = next(generator)
                except StopIteration:
                    break
                finally:
                    seconds = _perf() - resumed
                    stack.pop()
                    busy += seconds
                    if stack:
                        stack[-1][2] += seconds
                produced += 1
                yield item
        finally:
            generator.close()
            self_seconds = busy - frame[2]
            state.self_s[layer] = state.self_s.get(layer, 0.0) + self_seconds
            state.spans.append(
                (frame[0], name, layer, started, _perf(), parent, busy, self_seconds)
            )
            if out_counter is not None:
                self.count(out_counter, produced)

    def counter(self, name_of):
        """Count calls under ``name_of(args)`` (``None`` skips) without
        timing them."""
        tracer = self

        def decorate(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                name = name_of(args)
                if name is not None:
                    tracer.count(name)
                return func(*args, **kwargs)

            return wrapper

        return decorate

    # ------------------------------------------------------------------
    # the patch table
    # ------------------------------------------------------------------
    def _table(self):
        """``(class, attribute, decorator)`` for every wrapped function."""
        from repro.common.serde import Serde
        from repro.hdfs import MiniDFS
        from repro.hyracks.connectors import (
            ConnectorDescriptor,
            MToNPartitioningConnector,
            MToNPartitioningMergingConnector,
        )
        from repro.hyracks.engine import HyracksCluster
        from repro.hyracks.job import OperatorDescriptor
        from repro.hyracks.operators.groupby import (
            HashSortGroupByOperator,
            PreclusteredGroupByOperator,
            SortGroupByOperator,
        )
        from repro.hyracks.operators.sort import ExternalSortOperator
        from repro.hyracks.storage.btree import BTree
        from repro.hyracks.storage.buffer_cache import BufferCache
        from repro.hyracks.storage.file_manager import FileManager
        from repro.hyracks.storage.lsm_btree import LSMBTree
        from repro.pregelix import multiquery  # noqa: F401  (registers lane serdes)
        from repro.pregelix.checkpoint import Checkpointer
        from repro.pregelix.runtime import PregelixDriver
        from repro.serve.journal import Journal
        from repro.serve.queue import FairShareQueue

        table = []
        for attr in ("dumps", "loads", "sizeof"):
            for cls in _defining(Serde, attr):
                table.append((cls, attr, self.leaf("serde", "serde." + attr, serde=True)))
        for attr in ("pin", "unpin", "new_page"):
            table.append(
                (BufferCache, attr, self.leaf("buffer_cache", "buffer_cache." + attr))
            )
        for cls, layer in ((BTree, "btree"), (LSMBTree, "lsm")):
            for attr in ("lookup", "insert"):
                table.append((cls, attr, self.call(layer, "%s.%s" % (layer, attr))))
        table.append((BTree, "bulk_load", self.span("btree", "btree.bulk_load")))
        table.append(
            (LSMBTree, "bulk_load",
             self.span("lsm", "lsm.bulk_load", after=_record_components))
        )
        table.append(
            (BTree, "scan", self.gen("btree", "btree.scan", out_counter="btree.scan_tuples"))
        )
        # LSMBTree.scan is a plain function returning the merged cursor.
        table.append((LSMBTree, "scan", self._lsm_scan))
        table.append(
            (LSMBTree, "flush_memory_component",
             self.span("lsm", "lsm.flush_memory_component", after=_record_components))
        )
        table.append(
            (ExternalSortOperator, "sorted_stream",
             self.gen("sort", "sort.sorted_stream", stream_arg=2))
        )
        for cls, label, stream_arg in (
            (SortGroupByOperator, "groupby.sort", 2),
            (HashSortGroupByOperator, "groupby.hashsort", 2),
            (PreclusteredGroupByOperator, "groupby.preclustered", 1),
        ):
            table.append(
                (cls, "grouped_stream",
                 self.gen("groupby", label, stream_arg=stream_arg,
                          out_counter="groupby.groups_out"))
            )
        # Spilled sorted runs, by the temp-file hint the operators pass.
        table.append(
            (FileManager, "create_temp_path",
             self.counter(_spill_run_counter))
        )
        for attr in ("route", "split", "assemble"):
            for cls in _defining(ConnectorDescriptor, attr):
                after = None
                if attr == "split" and cls in (
                    MToNPartitioningConnector, MToNPartitioningMergingConnector
                ):
                    after = _record_split
                table.append(
                    (cls, attr,
                     self.span("connectors",
                               "%s.%s" % (cls.__name__, attr), after=after))
                )
        for cls in _defining(OperatorDescriptor, "run"):
            table.append(
                (cls, "run", self.span("operators", lambda args: args[0].name))
            )
        table.append(
            (HyracksCluster, "execute",
             self.span("engine", lambda args: "execute:" + args[1].name))
        )
        table.append(
            (PregelixDriver, "run",
             self.span("driver", lambda args: "driver.run:" + args[1].name))
        )
        table.append((Checkpointer, "commit", self.span("checkpoint", "checkpoint.commit")))
        table.append((MiniDFS, "write", self.span("hdfs", "hdfs.write", after=_record_write)))
        table.append((Journal, "append", self.span("serve.journal", "journal.append")))
        table.append((FairShareQueue, "push", self.call("serve.queue", "queue.push")))
        # pop blocks until a job arrives: its time is a worker's idle
        # wait, kept apart from the queue's own work.
        table.append((FairShareQueue, "pop", self.call("serve.queue.wait", "queue.pop")))
        return table

    def _lsm_scan(self, func):
        drive = self._drive

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return drive(func(*args, **kwargs), "lsm", "lsm.scan", "lsm.scan_tuples")

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for cls, attr, decorate in self._table():
            original = cls.__dict__[attr]
            setattr(cls, attr, decorate(original))
            self._patched.append((cls, attr, original))
        return self

    def uninstall(self):
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def patched(self):
        """``(class, attribute, original object)`` while installed."""
        return list(self._patched)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def summary(self):
        """Merged per-thread results: self seconds per layer, calls and
        total seconds per wrapper name, counters."""
        self_s = {}
        calls = {}
        total_s = {}
        counts = {}
        for state in self._states:
            for layer, seconds in state.self_s.items():
                self_s[layer] = self_s.get(layer, 0.0) + seconds
            for (name, layer), per_parent in zip(self._aggregated, state.agg):
                for n, seconds, self_seconds in per_parent.values():
                    calls[name] = calls.get(name, 0) + n
                    total_s[name] = total_s.get(name, 0.0) + seconds
                    self_s[layer] = self_s.get(layer, 0.0) + self_seconds
            for span in state.spans:
                name = span[1]
                calls[name] = calls.get(name, 0) + 1
                total_s[name] = total_s.get(name, 0.0) + span[6]
            for name, amount in state.counts.items():
                if name.startswith("peak."):
                    counts[name] = max(counts.get(name, 0), amount)
                else:
                    counts[name] = counts.get(name, 0) + amount
        return {"self_s": self_s, "calls": calls, "total_s": total_s, "counts": counts}

    def records(self):
        """JSON-ready span and aggregated-call records of this repeat."""
        spans = []
        aggregated = []
        for state in self._states:
            for sid, name, layer, start, end, parent, busy, self_seconds in state.spans:
                spans.append({
                    "id": sid, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "busy_s": busy, "self_s": self_seconds,
                    "workload": self.workload, "repeat": self.repeat,
                })
            for (name, layer), per_parent in zip(self._aggregated, state.agg):
                for parent, (n, seconds, self_seconds) in per_parent.items():
                    aggregated.append({
                        "name": name, "layer": layer, "parent": parent,
                        "calls": n, "total_s": seconds, "self_s": self_seconds,
                        "workload": self.workload, "repeat": self.repeat,
                    })
        spans.sort(key=lambda record: record["start"])
        return {"spans": spans, "aggregated": aggregated}


def _spill_run_counter(args):
    """``create_temp_path(hint)`` calls that open a spilled sorted run."""
    hint = args[1] if len(args) > 1 else None
    return "spill_runs." + hint if hint in ("sort-run", "groupby-run") else None


def _record_split(tracer, args, result):
    """Per-consumer tuple counts of one partitioning ``split``."""
    for dest, tuples in enumerate(result):
        tracer.count("connectors.dest_tuples.%d" % dest, len(tuples))


def _record_components(tracer, args, result):
    """Most disk components any one LSM tree held after a load or flush."""
    tracer.peak("peak.lsm.disk_components", args[0].num_disk_components)


def _record_write(tracer, args, result):
    """Bytes of one ``MiniDFS.write(path, data)``; checkpoint files apart."""
    path, data = args[1], args[2]
    tracer.count("hdfs.write_bytes", len(data))
    if "/ckpt/" in path:
        tracer.count("checkpoint.bytes", len(data))


def layer_metrics(summaries):
    """Wrapper-derived per-layer metrics, as medians over traced repeats
    (counts repeat exactly, so their median is the count)."""
    rows = [_layer_metrics_of(summary) for summary in summaries]
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def _layer_metrics_of(summary):
    calls, counts, total_s = summary["calls"], summary["counts"], summary["total_s"]
    metrics = {
        layer + ".self_s": summary["self_s"].get(layer, 0.0) for layer in LAYERS
    }
    for attr in ("dumps", "loads", "sizeof"):
        metrics["serde.%s_calls" % attr] = calls.get("serde." + attr, 0)
    metrics["sort.tuples_in"] = counts.get("sort.tuples_in", 0)
    metrics["sort.spill_runs"] = (
        counts.get("spill_runs.sort-run", 0) + counts.get("spill_runs.groupby-run", 0)
    )
    tuples_in = counts.get("groupby.tuples_in", 0)
    groups_out = counts.get("groupby.groups_out", 0)
    metrics["groupby.tuples_in"] = tuples_in
    metrics["groupby.groups_out"] = groups_out
    metrics["groupby.combine_ratio"] = groups_out / tuples_in if tuples_in else 0.0
    for strategy in ("sort", "hashsort", "preclustered"):
        metrics["groupby.%s_calls" % strategy] = calls.get("groupby." + strategy, 0)
    per_dest = [
        amount for name, amount in counts.items()
        if name.startswith("connectors.dest_tuples.")
    ]
    metrics["connectors.partition_skew"] = (
        max(per_dest) * len(per_dest) / sum(per_dest) if per_dest and sum(per_dest) else 0.0
    )
    metrics["btree.lookups"] = calls.get("btree.lookup", 0)
    metrics["btree.inserts"] = calls.get("btree.insert", 0)
    metrics["btree.scan_tuples"] = counts.get("btree.scan_tuples", 0)
    metrics["lsm.disk_components"] = counts.get("peak.lsm.disk_components", 0)
    metrics["hdfs.write_bytes"] = counts.get("hdfs.write_bytes", 0)
    metrics["checkpoint.commits"] = calls.get("checkpoint.commit", 0)
    metrics["checkpoint.bytes"] = counts.get("checkpoint.bytes", 0)
    metrics["checkpoint.commit_s"] = total_s.get("checkpoint.commit", 0.0)
    metrics["serve.queue.pop_wait_s"] = total_s.get("queue.pop", 0.0)
    return metrics


def write(out_dir, workload, records):
    """Write the in-memory spans to ``<out_dir>/trace-<workload>.json``."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s.json" % workload)
    with open(path, "w") as handle:
        json.dump(dict(records, workload=workload), handle)
        handle.write("\n")
    return path
